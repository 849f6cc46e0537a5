package backtrace

import (
	"context"
	"fmt"
	"slices"

	"pebble/internal/engine"
	"pebble/internal/path"
	"pebble/internal/provenance"
)

// The per-item backtrace: Algs. 1–4 as they ran before trees were shared —
// every item owns a deep copy of its tree at every operator, the second
// phase of each algorithm runs on every copy, and Alg. 4 copies the whole
// group's positions for each member. It is the reference the shipped trace
// (trace.go: id join per item, rewrite per distinct tree) is compared with,
// item by item and byte by byte, in trace_ref_test.go. It shares the tree
// primitives (Clone, ApplyMappings, AccessPath, …) and the association
// indexes with the shipped code, and nothing of the interning, the memos,
// the merger or the Alg. 4 stem.
//
// RefTrace merges in place, so the trees of b are modified when startOID is a
// source: hand it a Clone.
func RefTrace(t *Tracer, startOID int, b *Structure) (*Result, error) {
	q := &refTracer{t: t, ctx: context.Background(), run: t.run, out: &Result{BySource: make(map[int]*Structure)}}
	if err := q.trace(startOID, b); err != nil {
		return nil, err
	}
	return q.out, nil
}

type refTracer struct {
	t   *Tracer
	ctx context.Context
	run *provenance.Run
	out *Result
}

// refItem is an item with the scratch position column of Algs. 2 and 4.
type refItem struct {
	*Item
	pos int
}

func (tr *refTracer) trace(oid int, b *Structure) error {
	if err := tr.ctx.Err(); err != nil {
		return err
	}
	if b.Len() == 0 {
		return nil
	}
	op, ok := tr.run.Op(oid)
	if !ok {
		return fmt.Errorf("backtrace: no captured provenance for operator %d", oid)
	}
	switch op.Type {
	case engine.OpSource:
		if existing, ok := tr.out.BySource[oid]; ok {
			merged := &Structure{Items: append(existing.Items, b.Items...)}
			tr.out.BySource[oid] = refMergeByID(merged)
		} else {
			tr.out.BySource[oid] = refMergeByID(b)
		}
		return nil
	case engine.OpFilter, engine.OpSelect, engine.OpMap,
		engine.OpDistinct, engine.OpOrderBy, engine.OpLimit:
		next := tr.backtraceUnary(op, b)
		return tr.trace(op.Inputs[0].Pred, next)
	case engine.OpFlatten:
		next := tr.backtraceFlatten(op, b)
		return tr.trace(op.Inputs[0].Pred, next)
	case engine.OpAggregate:
		next := tr.backtraceAggregation(op, b)
		return tr.trace(op.Inputs[0].Pred, next)
	case engine.OpJoin:
		left, right := tr.backtraceJoin(op, b)
		if err := tr.trace(op.Inputs[0].Pred, left); err != nil {
			return err
		}
		return tr.trace(op.Inputs[1].Pred, right)
	case engine.OpUnion:
		left, right := tr.backtraceUnion(op, b)
		if err := tr.trace(op.Inputs[0].Pred, left); err != nil {
			return err
		}
		return tr.trace(op.Inputs[1].Pred, right)
	}
	return fmt.Errorf("backtrace: unsupported operator type %q", op.Type)
}

// refMergeByID merges items sharing an identifier into the first one's tree,
// in place, preserving first-seen order.
func refMergeByID(b *Structure) *Structure {
	byID := make(map[int64]*Item)
	out := &Structure{}
	for _, it := range b.Items {
		if existing, ok := byID[it.ID]; ok {
			existing.Tree.Merge(it.Tree)
			continue
		}
		merged := &Item{ID: it.ID, Tree: it.Tree}
		byID[it.ID] = merged
		out.Items = append(out.Items, merged)
	}
	return out
}

// refApplyStatic undoes the operator's manipulations and records its
// accesses on every tree of b (the second phase of Alg. 3, ll. 2–6).
func refApplyStatic(op *provenance.Operator, b *Structure, inputIdx int) {
	in := op.Inputs[inputIdx]
	for _, it := range b.Items {
		if op.ManipUndefined {
			it.Tree.Opaque = true
			it.Tree.MarkAllManip(op.OID)
		} else {
			it.Tree.ApplyMappings(mappings(op, false), op.OID)
		}
		if !in.AccessUndefined {
			for _, a := range in.Accessed {
				it.Tree.AccessPath(a, op.OID)
			}
		}
	}
}

func (tr *refTracer) backtraceUnary(op *provenance.Operator, b *Structure) *Structure {
	idx := tr.t.indexFor(op)
	next := &Structure{}
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		for _, in := range idx.c.In[lo:hi] {
			next.Items = append(next.Items, &Item{ID: in, Tree: it.Tree.Clone()})
		}
	}
	refApplyStatic(op, next, 0)
	return refMergeByID(next)
}

func (tr *refTracer) backtraceFlatten(op *provenance.Operator, b *Structure) *Structure {
	idx := tr.t.indexFor(op)
	next := &Structure{}
	var items []refItem
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		if lo == hi {
			continue
		}
		item := &Item{ID: idx.c.In[hi-1], Tree: it.Tree.Clone()}
		next.Items = append(next.Items, item)
		items = append(items, refItem{Item: item, pos: int(idx.c.Pos[hi-1])})
	}
	refApplyStatic(op, next, 0)
	var colPath path.Path
	if ms := mappings(op, false); len(ms) > 0 {
		colPath = ms[0].In
	}
	for _, it := range items {
		if colPath != nil {
			it.Tree.SubstitutePlaceholder(colPath, it.pos)
		}
	}
	return refMergeByID(next)
}

func (tr *refTracer) backtraceAggregation(op *provenance.Operator, b *Structure) *Structure {
	idx := tr.t.indexFor(op)
	aggMs := mappings(op, false)
	keyMs := mappings(op, true)
	next := &Structure{}
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		if lo == hi {
			continue
		}
		for j, in := range idx.c.In[idx.c.Offs[lo]:idx.c.Offs[hi]] {
			pP := j + 1
			t := it.Tree.Clone()
			inProv := false
			for _, m := range aggMs {
				out := m.Out
				if out.HasPlaceholder() {
					out = substitutePos(out, pP)
					if len(t.Find(out)) == 0 {
						if wholeCollectionAddressed(t, stripIndex(m.Out)) {
							out = stripIndex(m.Out)
						}
					}
				}
				if len(t.Find(out)) > 0 {
					inProv = true
					if len(m.In) == 0 {
						t.RemoveAt(out)
					} else {
						t.ApplyMappings([]Mapping{{In: m.In, Out: out}}, op.OID)
					}
				}
				if m.Out.HasPlaceholder() {
					t.RemoveAt(stripIndex(m.Out))
				}
			}
			if !inProv {
				continue
			}
			t.ApplyMappings(keyMs, op.OID)
			for _, a := range op.Inputs[0].Accessed {
				t.AccessPath(a, op.OID)
			}
			next.Items = append(next.Items, &Item{ID: in, Tree: t})
		}
	}
	return refMergeByID(next)
}

func (tr *refTracer) backtraceJoin(op *provenance.Operator, b *Structure) (*Structure, *Structure) {
	idx := tr.t.indexFor(op)
	left, right := &Structure{}, &Structure{}
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		for k := lo; k < hi; k++ {
			if in := idx.c.In[k]; in != -1 {
				lt := it.Tree.Clone()
				lt.PruneToSchema(op.Inputs[0].Schema)
				left.Items = append(left.Items, &Item{ID: in, Tree: lt})
			}
			if in := idx.c.Right[k]; in != -1 {
				rt := it.Tree.Clone()
				rt.PruneToSchema(op.Inputs[1].Schema)
				right.Items = append(right.Items, &Item{ID: in, Tree: rt})
			}
		}
	}
	for i, s := range []*Structure{left, right} {
		for _, it := range s.Items {
			for _, a := range op.Inputs[i].Accessed {
				it.Tree.AccessPath(a, op.OID)
			}
		}
	}
	return refMergeByID(left), refMergeByID(right)
}

func (tr *refTracer) backtraceUnion(op *provenance.Operator, b *Structure) (*Structure, *Structure) {
	idx := tr.t.indexFor(op)
	left, right := &Structure{}, &Structure{}
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		for k := lo; k < hi; k++ {
			if in := idx.c.In[k]; in != -1 {
				left.Items = append(left.Items, &Item{ID: in, Tree: it.Tree.Clone()})
			}
			if in := idx.c.Right[k]; in != -1 {
				right.Items = append(right.Items, &Item{ID: in, Tree: it.Tree.Clone()})
			}
		}
	}
	return refMergeByID(left), refMergeByID(right)
}

// Lookups readies op's index the way a trace through op would and looks every
// identifier up in it, returning how many it found (BenchmarkFirstLookup).
func Lookups(t *Tracer, op *provenance.Operator, ids []int64) (found int) {
	ix := t.indexFor(op)
	for _, id := range ids {
		if lo, hi := ix.rows(id); lo < hi {
			found++
		}
	}
	return found
}

// IndexValues readies op's index and returns the In column it reads — the
// id_i of a unary, flatten or aggregate operator, the id_i1 of a binary one —
// so a test can tell whether it is the operator's own column or a copy.
func IndexValues(t *Tracer, op *provenance.Operator) []int64 {
	return t.indexFor(op).c.In
}

// IndexMode selects how ForceIndexes readies a tracer's indexes.
type IndexMode int

const (
	// IndexBuild sorts every operator's columns (opIndex.build), in order or
	// not: the path an out-of-order Out column takes.
	IndexBuild IndexMode = iota
	// IndexReference is refBuild below.
	IndexReference
)

// ForceIndexes installs an index made the given way for every operator of
// the tracer's run, before the tracer reads any off the columns.
func ForceIndexes(t *Tracer, mode IndexMode) {
	for _, op := range t.run.Operators() {
		ix := &opIndex{}
		ix.once.Do(func() {
			switch {
			case !indexed(op):
			case mode == IndexBuild:
				ix.build(op.Columns())
			default:
				ix.refBuild(op.Columns())
			}
		})
		t.idx.Store(op.OID, ix)
	}
}

// refBuild is the reference index, the one both shipped paths (fromColumns,
// and build for an Out column out of order) are compared with in
// inrun_test.go. It shares no code with them: it groups the row numbers by
// output identifier in a map, orders the keys, copies each key's rows out in
// row order and always spells keys and offsets out.
func (ix *opIndex) refBuild(c provenance.Columns) {
	byOut := make(map[int64][]int)
	for r, out := range c.Out {
		byOut[out] = append(byOut[out], r)
	}
	for out := range byOut {
		ix.keys = append(ix.keys, out)
	}
	slices.Sort(ix.keys)
	s := &ix.c
	s.Kind, ix.offs = c.Kind, []int32{0}
	if c.Kind == provenance.AssocAgg {
		s.Offs = []int32{0}
	}
	for _, out := range ix.keys {
		for _, r := range byOut[out] {
			s.Out = append(s.Out, out)
			switch c.Kind {
			case provenance.AssocAgg:
				s.In = append(s.In, c.In[c.Offs[r]:c.Offs[r+1]]...)
				s.Offs = append(s.Offs, int32(len(s.In)))
			case provenance.AssocBinary:
				s.In, s.Right = append(s.In, c.In[r]), append(s.Right, c.Right[r])
			case provenance.AssocFlatten:
				s.In, s.Pos = append(s.In, c.In[r]), append(s.Pos, c.Pos[r])
			default:
				s.In = append(s.In, c.In[r])
			}
		}
		ix.offs = append(ix.offs, int32(len(s.Out)))
	}
}
