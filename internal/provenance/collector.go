package provenance

import (
	"context"
	"fmt"
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

	// rec receives the Finish span and the per-operator encoded bytes; set
	// it with Observe before the run starts (not guarded — written only
	// while the collector is idle).
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

// Observe attaches a recorder: Finish reports its time as a span and each
// operator's encoded bytes as obs.ProvBytes. Call before the capture run
// starts; a nil recorder is fine.
func (c *Collector) Observe(rec *obs.Recorder) { c.rec = rec }

// StartOperator implements engine.CaptureSink.
func (c *Collector) StartOperator(info engine.OpInfo, partitions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if partitions < 1 {
		partitions = 1
	}
	c.ops[info.OID] = &opShards{info: info, shards: make([]shard, partitions)}
	c.order = append(c.order, info.OID)
}

// Partition implements engine.CaptureSink: one read-locked registry lookup
// per morsel, returning the shard the morsel owns. All subsequent appends go
// through the handle without any locking.
func (c *Collector) Partition(oid, part int) engine.PartitionSink {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &c.ops[oid].shards[part]
}

// Finish encodes the capture into its v3 stream and returns the run loaded
// lazily from it (ReadRunLazy): a captured run is the same object as a
// reloaded one, and its bags decode on first touch. Operators are ordered by
// id — the engine announces concurrently executing DAG branches in schedule
// order, but the stream must not depend on that schedule. Each operator's
// shards are concatenated into one scratch bag, reused across operators, that
// the encoder reads; an operator without rows has no bag (AssocNone). The
// collector can be reused afterwards for a fresh capture. The error is the
// load's: a stream Finish encoded that does not load is a bug, not an input
// error.
func (c *Collector) Finish() (*Run, error) {
	defer c.rec.StartSpan(obs.SpanCollectorFinish)()
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Ints(c.order)
	ops := make([]*Operator, len(c.order))
	for i, oid := range c.order {
		info := c.ops[oid].info
		ops[i] = &Operator{OID: info.OID, Type: info.Type, Inputs: info.Inputs,
			Manipulated: info.Manipulated, ManipUndefined: info.ManipUndefined}
	}
	var scratch Columns
	stream := encode(ops, func(op *Operator) Columns {
		scratch = mergeShards(scratch, c.ops[op.OID].shards)
		return scratch
	}, c.rec)
	c.ops, c.order = make(map[int]*opShards), nil
	run, err := ReadRunLazy(stream)
	if err != nil {
		return nil, fmt.Errorf("provenance: captured run does not load: %w", err)
	}
	return run, nil
}

// mergeShards concatenates the shards' columns in partition order into the
// arrays of c, each grown to the bag's size where it is shorter, and returns
// them.
func mergeShards(c Columns, shards []shard) Columns {
	c.Kind = AssocNone
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
	concat := func(dst []int64, col func(*shard) []int64) []int64 {
		dst = slices.Grow(dst[:0], n)
		for i := range shards {
			dst = append(dst, col(&shards[i])...)
		}
		return dst
	}
	c.Out = concat(c.Out, func(s *shard) []int64 { return s.out })
	switch c.Kind {
	case AssocBinary:
		c.Right = concat(c.Right, func(s *shard) []int64 { return s.right })
	case AssocFlatten:
		c.Pos = concat(c.Pos, func(s *shard) []int64 { return s.pos })
	case AssocAgg:
		c.In, c.Offs = slices.Grow(c.In[:0], totalIns), append(slices.Grow(c.Offs[:0], n+1), 0)
		for i := range shards {
			for _, l := range shards[i].lists {
				c.In = append(c.In, l...)
				c.Offs = append(c.Offs, int32(len(c.In)))
			}
		}
		return c
	}
	c.In = concat(c.In, func(s *shard) []int64 { return s.in })
	return c
}

// Capture is a convenience wrapper: it runs the pipeline with a fresh
// collector and returns both the execution result and the captured run.
// When opts.Recorder is set, the collector reports its Finish span and
// per-operator encoded bytes into it.
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
	run, err := c.Finish()
	if err != nil {
		return nil, nil, err
	}
	return res, run, nil
}
