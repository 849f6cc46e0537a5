package provenance

import (
	"context"
	"slices"
	"sort"
	"sync"

	"pebble/internal/engine"
	"pebble/internal/obs"
)

// Collector implements engine.CaptureSink and assembles a Run. The executor
// requests one PartitionSink handle per partition morsel; the registry lock
// is paid once per morsel in Partition, and the handle then appends to its
// shard with zero locking and no map lookups (each morsel is owned by one
// worker during execution). StartOperator takes the write lock — the engine
// announces concurrently executing DAG branches while morsels of other
// operators still flow.
type Collector struct {
	mu    sync.RWMutex
	ops   map[int]*opShards // guarded by mu
	order []int             // guarded by mu
	// free recycles shard backing arrays across Finish/reuse cycles: the
	// merge copies every column out of the shards, so the arrays can back the
	// next capture without aliasing the returned Run.
	free [][]shard // guarded by mu

	// rec receives the Finish span and per-operator provenance-size
	// counters; set it with Observe before the run starts (not guarded —
	// written only while the collector is idle).
	rec *obs.Recorder
}

type opShards struct {
	info   engine.OpInfo
	shards []shard
}

// shard buffers the association rows of one (operator, partition) pair as
// columns. It is the collector's engine.PartitionSink: the executor owns a
// shard for the duration of a morsel, so the append methods need no
// synchronisation. The id slices of the bulk appends are lent — a shard
// copies them, one append per column and morsel — and an aggregate's id list
// is owned and kept as it is until Finish.
type shard struct {
	kind                AssocKind // of the rows appended so far
	out, in, right, pos []int64
	lists               [][]int64 // aggregate: ids_i per row
}

// appendOuts appends the output identifiers base, base+1, … of a bulk append.
func (s *shard) appendOuts(kind AssocKind, base int64, n int) {
	s.kind = kind
	s.out = slices.Grow(s.out, n)
	for i := 0; i < n; i++ {
		s.out = append(s.out, base+int64(i))
	}
}

// SourceRows implements engine.PartitionSink.
func (s *shard) SourceRows(base int64, origIDs []int64) {
	s.appendOuts(AssocSource, base, len(origIDs))
	s.in = append(s.in, origIDs...)
}

// Unary implements engine.PartitionSink.
func (s *shard) Unary(inID, outID int64) {
	s.kind = AssocUnary
	s.out, s.in = append(s.out, outID), append(s.in, inID)
}

// UnaryRange implements engine.PartitionSink.
func (s *shard) UnaryRange(inIDs []int64, base int64) {
	s.appendOuts(AssocUnary, base, len(inIDs))
	s.in = append(s.in, inIDs...)
}

// BinaryRange implements engine.PartitionSink.
func (s *shard) BinaryRange(leftIDs, rightIDs []int64, base int64) {
	s.appendOuts(AssocBinary, base, len(leftIDs))
	s.in, s.right = append(s.in, leftIDs...), append(s.right, rightIDs...)
}

// FlattenRange implements engine.PartitionSink.
func (s *shard) FlattenRange(inIDs []int64, positions []int, base int64) {
	s.appendOuts(AssocFlatten, base, len(inIDs))
	s.in, s.pos = append(s.in, inIDs...), slices.Grow(s.pos, len(positions))
	for _, p := range positions {
		s.pos = append(s.pos, int64(p))
	}
}

// Agg implements engine.PartitionSink, taking ownership of inIDs (the
// executor materialises the slice for the sink and never reuses it).
func (s *shard) Agg(inIDs []int64, outID int64) {
	s.kind = AssocAgg
	s.out, s.lists = append(s.out, outID), append(s.lists, inIDs)
}

// NewCollector returns an empty collector ready to be passed as
// engine.Options.Sink.
func NewCollector() *Collector {
	return &Collector{ops: make(map[int]*opShards)}
}

// Observe attaches a recorder: Finish reports its merge time as a span and
// the per-operator provenance footprint (the deterministic Sizes model) as
// counters, and hands the recorder to the Run, whose WriteTo reports encoded
// bytes. Call before the capture run starts; a nil recorder is fine.
func (c *Collector) Observe(rec *obs.Recorder) { c.rec = rec }

// maxFreeShards bounds the recycled backing arrays a collector retains, so a
// one-off giant pipeline cannot pin its shard memory forever.
const maxFreeShards = 32

// StartOperator implements engine.CaptureSink.
func (c *Collector) StartOperator(info engine.OpInfo, partitions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if partitions < 1 {
		partitions = 1
	}
	c.ops[info.OID] = &opShards{info: info, shards: c.takeShards(partitions)}
	c.order = append(c.order, info.OID)
}

// takeShards returns a zeroed-length shard slice for partitions morsels,
// reusing a recycled backing array when one is large enough. Caller holds mu.
func (c *Collector) takeShards(partitions int) []shard {
	for i, sh := range c.free {
		if cap(sh) < partitions {
			continue
		}
		c.free[i] = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		sh = sh[:partitions]
		for j := range sh {
			s := &sh[j]
			clear(s.lists) // merged into a run's In column: garbage now
			*s = shard{out: s.out[:0], in: s.in[:0], right: s.right[:0], pos: s.pos[:0], lists: s.lists[:0]}
		}
		return sh
	}
	return make([]shard, partitions)
}

// Partition implements engine.CaptureSink: one read-locked registry lookup
// per morsel, returning the shard the morsel owns. All subsequent appends go
// through the handle without any locking.
func (c *Collector) Partition(oid, part int) engine.PartitionSink {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &c.ops[oid].shards[part]
}

// Finish merges the shards into an immutable Run. The collector can be
// reused afterwards for a fresh capture; the shard backing arrays are
// recycled (the merge copies every column, so the Run never aliases them).
// Operators are ordered by id — the engine announces concurrently executing
// DAG branches in schedule order, but the serialized run must not depend on
// that schedule. Each column is concatenated once, into an array of its exact
// final size; an operator without rows has no bag (AssocNone).
func (c *Collector) Finish() *Run {
	defer c.rec.StartSpan(obs.SpanCollectorFinish)()
	c.mu.Lock()
	defer c.mu.Unlock()
	run := &Run{ops: make(map[int]*Operator, len(c.ops)), order: make([]int, 0, len(c.ops)), rec: c.rec}
	sort.Ints(c.order)
	for _, oid := range c.order {
		os := c.ops[oid]
		op := &Operator{
			OID:            os.info.OID,
			Type:           os.info.Type,
			Inputs:         os.info.Inputs,
			Manipulated:    os.info.Manipulated,
			ManipUndefined: os.info.ManipUndefined,
		}
		op.setColumns(mergeShards(os.shards))
		if len(c.free) < maxFreeShards {
			c.free = append(c.free, os.shards)
		}
		run.ops[oid] = op
		run.order = append(run.order, oid)
		c.rec.Add(oid, 0, obs.ProvBytes, op.Sizes().Total())
	}
	c.ops = make(map[int]*opShards)
	c.order = nil
	return run
}

// mergeShards concatenates the shards' columns in partition order.
func mergeShards(shards []shard) Columns {
	var c Columns
	n, totalIns := 0, 0
	for i := range shards {
		s := &shards[i]
		if len(s.out) > 0 {
			c.Kind = s.kind
		}
		n += len(s.out)
		for _, l := range s.lists {
			totalIns += len(l)
		}
	}
	if n == 0 {
		return c
	}
	concat := func(col func(*shard) []int64) []int64 {
		out := make([]int64, 0, n)
		for i := range shards {
			out = append(out, col(&shards[i])...)
		}
		return out
	}
	c.Out = concat(func(s *shard) []int64 { return s.out })
	switch c.Kind {
	case AssocBinary:
		c.Right = concat(func(s *shard) []int64 { return s.right })
	case AssocFlatten:
		c.Pos = concat(func(s *shard) []int64 { return s.pos })
	case AssocAgg:
		c.In, c.Offs = make([]int64, 0, totalIns), make([]int32, 1, n+1)
		for i := range shards {
			for _, l := range shards[i].lists {
				c.In = append(c.In, l...)
				c.Offs = append(c.Offs, int32(len(c.In)))
			}
		}
		return c
	}
	c.In = concat(func(s *shard) []int64 { return s.in })
	return c
}

// Capture is a convenience wrapper: it runs the pipeline with a fresh
// collector and returns both the execution result and the captured run.
// When opts.Recorder is set, the collector reports its Finish span and
// per-operator provenance footprints into it.
func Capture(p *engine.Pipeline, inputs map[string]*engine.Dataset, opts engine.Options) (*engine.Result, *Run, error) {
	return CaptureContext(context.Background(), p, inputs, opts)
}

// CaptureContext is Capture with cooperative cancellation: the context is
// threaded to engine.RunContext, which checks it at morsel boundaries. A
// cancelled capture returns ctx's error and discards the partial provenance.
func CaptureContext(ctx context.Context, p *engine.Pipeline, inputs map[string]*engine.Dataset, opts engine.Options) (*engine.Result, *Run, error) {
	c := NewCollector()
	c.Observe(opts.Recorder)
	opts.Sink = c
	res, err := engine.RunContext(ctx, p, inputs, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, c.Finish(), nil
}
