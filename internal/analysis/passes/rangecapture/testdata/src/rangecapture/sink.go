package rangecapture

// PartitionSink is a fixture double of the engine's morsel emission handle.
// The analyzer recognizes emissions structurally — by method name and arity
// on a sink-shaped receiver (one with both a row-wise and a range method) —
// so this double is checked exactly like engine.PartitionSink.
type PartitionSink struct {
	emitted int
}

func (PartitionSink) Unary(in, out int64)                            {}
func (PartitionSink) Agg(in []int64, out int64)                      {}
func (PartitionSink) SourceRows(base int64, origs []int64)           {}
func (PartitionSink) UnaryRange(in []int64, base int64)              {}
func (PartitionSink) BinaryRange(l, r []int64, base int64)           {}
func (PartitionSink) FlattenRange(in []int64, pos []int, base int64) {}

// Registry hands out per-partition sinks; Partition must be hoisted out of
// emission loops.
type Registry struct{}

func (Registry) Partition(op, part int) PartitionSink { return PartitionSink{} }
