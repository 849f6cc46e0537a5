// Package lineage reimplements the capture and tracing strategy of Titian
// (Interlandi et al., PVLDB 2015), the state-of-the-art lineage solution the
// paper compares against (Sec. 7.3.4): per operator only the top-level
// ⟨input id, output id⟩ associations are captured — no access paths, no
// manipulation mappings, no positions of nested elements — and backtracing
// is a pure sequence of id joins. The result of a lineage query is therefore
// the set of whole input items (full tuples) that contribute to a queried
// output item, without attribute-level precision.
//
// Running the same engine under this collector isolates exactly the extra
// cost of structural provenance, mirroring the paper's Titian comparison.
package lineage

import (
	"fmt"
	"sort"
	"sync"

	"pebble/internal/engine"
)

// Assoc layouts.
type unaryAssoc struct{ in, out int64 }
type binaryAssoc struct{ left, right, out int64 }
type aggAssoc struct {
	ins []int64
	out int64
}

// operator holds one operator's associations.
type operator struct {
	oid    int
	typ    engine.OpType
	preds  []int
	source []int64
	unary  []unaryAssoc
	binary []binaryAssoc
	agg    []aggAssoc
}

// Run is the lineage captured during one execution.
type Run struct {
	ops   map[int]*operator
	order []int
}

// Collector implements engine.CaptureSink, capturing lineage only. As with
// the structural collector, Morsel read-locks the operator registry (the
// engine starts concurrently executing operators while morsels of others
// still flow) and appends to the partition's shard, which one goroutine at a
// time hands over to.
type Collector struct {
	mu    sync.RWMutex
	ops   map[int]*opShards
	order []int
}

type opShards struct {
	oid    int
	typ    engine.OpType
	preds  []int
	shards []shard
}

// shard holds the associations of one (operator, partition) pair.
type shard struct {
	source []int64
	unary  []unaryAssoc
	binary []binaryAssoc
	agg    []aggAssoc
}

// NewCollector returns an empty lineage collector.
func NewCollector() *Collector { return &Collector{ops: make(map[int]*opShards)} }

// StartOperator implements engine.CaptureSink. Unlike the structural
// collector it drops the accessed-path and manipulation information.
func (c *Collector) StartOperator(info engine.OpInfo, partitions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if partitions < 1 {
		partitions = 1
	}
	preds := make([]int, len(info.Inputs))
	for i, in := range info.Inputs {
		preds[i] = in.Pred
	}
	c.ops[info.OID] = &opShards{oid: info.OID, typ: info.Type, preds: preds, shards: make([]shard, partitions)}
	c.order = append(c.order, info.OID)
}

// Morsel implements engine.CaptureSink, copying every id into the row
// structs Titian keeps. Titian has no flatten notion; the positions are
// dropped and only the id pairs retained (Sec. 7.3.2: "the overhead can
// increase when flatten operators store positions that lineage solutions do
// not capture").
func (c *Collector) Morsel(oid, part int, base int64, n int, a engine.Assocs) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	op := c.ops[oid]
	s := &op.shards[part]
	switch op.typ {
	case engine.OpSource:
		for i := range n {
			s.source = append(s.source, base+int64(i))
		}
	case engine.OpAggregate:
		for i, ins := range a.Lists {
			s.agg = append(s.agg, aggAssoc{ins: ins, out: base + int64(i)})
		}
	case engine.OpJoin, engine.OpUnion:
		for i := range a.In {
			s.binary = append(s.binary, binaryAssoc{left: a.In[i], right: a.Right[i], out: base + int64(i)})
		}
	case engine.OpDistinct:
		for i, ins := range a.Lists {
			for _, in := range ins {
				s.unary = append(s.unary, unaryAssoc{in: in, out: base + int64(i)})
			}
		}
	default:
		for i, in := range a.In {
			s.unary = append(s.unary, unaryAssoc{in: in, out: base + int64(i)})
		}
	}
}

// Finish merges the shards into an immutable Run; the collector is reusable
// afterwards. Operators are ordered by id so the run is independent of the
// engine's physical schedule.
func (c *Collector) Finish() *Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	run := &Run{ops: make(map[int]*operator, len(c.ops))}
	sort.Ints(c.order)
	for _, oid := range c.order {
		os := c.ops[oid]
		o := &operator{oid: os.oid, typ: os.typ, preds: os.preds}
		for _, sh := range os.shards {
			o.source = append(o.source, sh.source...)
			o.unary = append(o.unary, sh.unary...)
			o.binary = append(o.binary, sh.binary...)
			o.agg = append(o.agg, sh.agg...)
		}
		run.ops[oid] = o
		run.order = append(run.order, oid)
	}
	c.ops = make(map[int]*opShards)
	c.order = nil
	return run
}

// Trace traces the given output identifiers of operator startOID back to the
// sources by joining ids against the per-operator associations (the
// backtracing join that Titian, RAMP, and Newt apply, Sec. 6.3). It returns
// the contributing input-item ids per source operator.
func (r *Run) Trace(startOID int, outIDs []int64) (map[int][]int64, error) {
	result := make(map[int]map[int64]bool)
	if err := r.trace(startOID, outIDs, result); err != nil {
		return nil, err
	}
	out := make(map[int][]int64, len(result))
	for oid, ids := range result {
		flat := make([]int64, 0, len(ids))
		for id := range ids {
			flat = append(flat, id)
		}
		sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
		out[oid] = flat
	}
	return out, nil
}

func (r *Run) trace(oid int, ids []int64, result map[int]map[int64]bool) error {
	if len(ids) == 0 {
		return nil
	}
	o, ok := r.ops[oid]
	if !ok {
		return fmt.Errorf("lineage: no captured lineage for operator %d", oid)
	}
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	switch {
	case o.typ == engine.OpSource:
		set := result[oid]
		if set == nil {
			set = make(map[int64]bool)
			result[oid] = set
		}
		for _, id := range ids {
			set[id] = true
		}
		return nil
	case len(o.unary) > 0 || (len(o.binary) == 0 && len(o.agg) == 0 && len(o.source) == 0):
		var next []int64
		for _, a := range o.unary {
			if want[a.out] {
				next = append(next, a.in)
			}
		}
		return r.trace(o.preds[0], dedup(next), result)
	case len(o.binary) > 0:
		var left, right []int64
		for _, a := range o.binary {
			if want[a.out] {
				if a.left != -1 {
					left = append(left, a.left)
				}
				if a.right != -1 {
					right = append(right, a.right)
				}
			}
		}
		if err := r.trace(o.preds[0], dedup(left), result); err != nil {
			return err
		}
		return r.trace(o.preds[1], dedup(right), result)
	case len(o.agg) > 0:
		var next []int64
		for _, a := range o.agg {
			if want[a.out] {
				next = append(next, a.ins...)
			}
		}
		return r.trace(o.preds[0], dedup(next), result)
	}
	return nil
}

func dedup(ids []int64) []int64 {
	seen := make(map[int64]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Capture runs the pipeline under lineage capture.
func Capture(p *engine.Pipeline, inputs map[string]*engine.Dataset, opts engine.Options) (*engine.Result, *Run, error) {
	c := NewCollector()
	opts.Sink = c
	res, err := engine.Run(p, inputs, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, c.Finish(), nil
}
