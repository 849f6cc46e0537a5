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

// Collector implements engine.CaptureSink and assembles a Run. It keeps every
// morsel's association columns as the engine hands them over, per operator and
// partition, and lays them out as one bag per operator only in Finish. Morsel
// read-locks the registry: the engine announces concurrently executing DAG
// branches, under the write lock in StartOperator, while morsels of other
// operators still flow. Each partition's morsels arrive from one goroutine at
// a time, so appending them to its shard needs no lock of its own.
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
	kind   AssocKind  // the layout of info.Type
	shards [][]morsel // per partition, in hand-over order
}

// morsel is one hand-over: n association rows with the output identifiers
// base, base+1, … and the columns the engine wrote for them.
type morsel struct {
	base int64
	n    int
	engine.Assocs
}

// assocKind is the layout Tab. 6 assigns to an operator type.
func assocKind(t engine.OpType) AssocKind {
	switch t {
	case engine.OpSource:
		return AssocSource
	case engine.OpJoin, engine.OpUnion:
		return AssocBinary
	case engine.OpFlatten:
		return AssocFlatten
	case engine.OpAggregate:
		return AssocAgg
	}
	return AssocUnary
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
	c.ops[info.OID] = &opShards{info: info, kind: assocKind(info.Type), shards: make([][]morsel, partitions)}
	c.order = append(c.order, info.OID)
}

// Morsel implements engine.CaptureSink, keeping a as it is.
func (c *Collector) Morsel(oid, part int, base int64, n int, a engine.Assocs) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := &c.ops[oid].shards[part]
	*s = append(*s, morsel{base: base, n: n, Assocs: a})
}

// Finish encodes the capture into its v4 stream and returns the run loaded
// lazily from it (ReadRunLazy): a captured run is the same object as a
// reloaded one, and its bags decode on first touch. Operators are ordered by
// id — the engine announces concurrently executing DAG branches in schedule
// order, but the stream must not depend on that schedule. Each operator's
// morsels are laid out in one scratch bag (mergeShards), reused across
// operators, that the encoder reads; an operator without rows has no bag
// (AssocNone). The
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
		o := c.ops[op.OID]
		scratch = mergeShards(scratch, o.kind, o.shards)
		return scratch
	}, c.rec)
	c.ops, c.order = make(map[int]*opShards), nil
	run, err := ReadRunLazy(stream)
	if err != nil {
		return nil, fmt.Errorf("provenance: captured run does not load: %w", err)
	}
	return run, nil
}

// mergeShards lays the morsels of shards out, in partition and hand-over
// order, as one bag of the given kind in the arrays of c, each grown to the
// bag's size where it is shorter, and returns them. Out is written from each
// morsel's base; a distinct's lists expand to one unary row per input.
func mergeShards(c Columns, kind AssocKind, shards [][]morsel) Columns {
	n, ins := 0, 0 // association rows; ids in the lists
	for _, ms := range shards {
		for _, m := range ms {
			n += m.n
			for _, l := range m.Lists {
				ins += len(l)
			}
		}
	}
	if kind == AssocUnary && ins > 0 {
		n = ins // distinct: a row per contributing input
	}
	c.Kind = kind
	if n == 0 {
		c.Kind = AssocNone
	}
	c.Out, c.In = slices.Grow(c.Out[:0], n), slices.Grow(c.In[:0], max(n, ins))
	c.Right, c.Pos, c.Offs = c.Right[:0], c.Pos[:0], c.Offs[:0]
	switch kind {
	case AssocBinary:
		c.Right = slices.Grow(c.Right, n)
	case AssocFlatten:
		c.Pos = slices.Grow(c.Pos, n)
	case AssocAgg:
		c.Offs = append(slices.Grow(c.Offs, n+1), 0)
	}
	for _, ms := range shards {
		for _, m := range ms {
			switch {
			case kind == AssocAgg:
				for i, l := range m.Lists {
					c.Out, c.In = append(c.Out, m.base+int64(i)), append(c.In, l...)
					c.Offs = append(c.Offs, int32(len(c.In)))
				}
			case m.Lists != nil: // distinct
				for i, l := range m.Lists {
					for _, in := range l {
						c.Out, c.In = append(c.Out, m.base+int64(i)), append(c.In, in)
					}
				}
			default:
				for i := range m.n {
					c.Out = append(c.Out, m.base+int64(i))
				}
				c.In, c.Right, c.Pos = append(c.In, m.In...), append(c.Right, m.Right...), append(c.Pos, m.Pos...)
			}
		}
	}
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
