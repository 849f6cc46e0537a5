package provenance

import (
	"context"
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
	// merge copies every association out of the shards, so the arrays can
	// back the next capture without aliasing the returned Run.
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

// shard buffers the association rows of one (operator, partition) pair. It
// is the collector's engine.PartitionSink: the executor owns a shard for the
// duration of a morsel, so the append methods need no synchronisation.
type shard struct {
	unary   []UnaryAssoc
	binary  []BinaryAssoc
	flatten []FlattenAssoc
	agg     []AggAssoc
	source  []SourceAssoc
}

// Unary implements engine.PartitionSink.
func (s *shard) Unary(inID, outID int64) {
	s.unary = append(s.unary, UnaryAssoc{In: inID, Out: outID})
}

// Agg implements engine.PartitionSink, taking ownership of inIDs (the
// executor materialises the slice for the sink and never reuses it).
func (s *shard) Agg(inIDs []int64, outID int64) {
	s.agg = append(s.agg, AggAssoc{Ins: inIDs, Out: outID})
}

// The bulk id-range appends below are the executor's morsel-level emission
// (one call per partition instead of one per row). The range slices are
// borrowed — the loops copy every id into the shard's own arrays.

// SourceRows implements engine.PartitionSink.
func (s *shard) SourceRows(base int64, origIDs []int64) {
	for i, orig := range origIDs {
		s.source = append(s.source, SourceAssoc{ID: base + int64(i), OrigID: orig})
	}
}

// UnaryRange implements engine.PartitionSink.
func (s *shard) UnaryRange(inIDs []int64, base int64) {
	for i, in := range inIDs {
		s.unary = append(s.unary, UnaryAssoc{In: in, Out: base + int64(i)})
	}
}

// BinaryRange implements engine.PartitionSink.
func (s *shard) BinaryRange(leftIDs, rightIDs []int64, base int64) {
	for i := range leftIDs {
		s.binary = append(s.binary, BinaryAssoc{Left: leftIDs[i], Right: rightIDs[i], Out: base + int64(i)})
	}
}

// FlattenRange implements engine.PartitionSink.
func (s *shard) FlattenRange(inIDs []int64, positions []int, base int64) {
	for i := range inIDs {
		s.flatten = append(s.flatten, FlattenAssoc{In: inIDs[i], Pos: positions[i], Out: base + int64(i)})
	}
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
			s.unary = s.unary[:0]
			s.binary = s.binary[:0]
			s.flatten = s.flatten[:0]
			s.agg = s.agg[:0]
			s.source = s.source[:0]
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
// recycled (the merge copies every association row, so the Run never aliases
// them). Operators are ordered by id — the engine announces concurrently
// executing DAG branches in schedule order, but the serialized run must not
// depend on that schedule. Each association slice is allocated at its exact
// final size before merging, so large runs don't pay repeated append
// re-allocations.
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
		var nUnary, nBinary, nFlatten, nAgg, nSource int
		for _, sh := range os.shards {
			nUnary += len(sh.unary)
			nBinary += len(sh.binary)
			nFlatten += len(sh.flatten)
			nAgg += len(sh.agg)
			nSource += len(sh.source)
		}
		// Slices stay nil when empty (codec round-trips rely on that).
		if nUnary > 0 {
			op.Unary = make([]UnaryAssoc, 0, nUnary)
		}
		if nBinary > 0 {
			op.Binary = make([]BinaryAssoc, 0, nBinary)
		}
		if nFlatten > 0 {
			op.Flatten = make([]FlattenAssoc, 0, nFlatten)
		}
		if nAgg > 0 {
			op.Agg = make([]AggAssoc, 0, nAgg)
		}
		if nSource > 0 {
			op.SourceIDs = make([]SourceAssoc, 0, nSource)
		}
		for _, sh := range os.shards {
			op.Unary = append(op.Unary, sh.unary...)
			op.Binary = append(op.Binary, sh.binary...)
			op.Flatten = append(op.Flatten, sh.flatten...)
			op.Agg = append(op.Agg, sh.agg...)
			op.SourceIDs = append(op.SourceIDs, sh.source...)
		}
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
