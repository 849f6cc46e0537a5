package backtrace

import (
	"context"
	"fmt"
	"sort"

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
		for _, in := range idx.unary.lookup(it.ID) {
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
		a, ok := idx.flatten.lookup(it.ID)
		if !ok {
			continue
		}
		item := &Item{ID: a.in, Tree: it.Tree.Clone()}
		next.Items = append(next.Items, item)
		items = append(items, refItem{Item: item, pos: a.pos})
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
		for j, in := range idx.agg.lookup(it.ID) {
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
		lefts, rights := idx.binary.lookup(it.ID)
		for k := range lefts {
			if lefts[k] != -1 {
				lt := it.Tree.Clone()
				lt.PruneToSchema(op.Inputs[0].Schema)
				left.Items = append(left.Items, &Item{ID: lefts[k], Tree: lt})
			}
			if rights[k] != -1 {
				rt := it.Tree.Clone()
				rt.PruneToSchema(op.Inputs[1].Schema)
				right.Items = append(right.Items, &Item{ID: rights[k], Tree: rt})
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
		lefts, rights := idx.binary.lookup(it.ID)
		for k := range lefts {
			if lefts[k] != -1 {
				left.Items = append(left.Items, &Item{ID: lefts[k], Tree: it.Tree.Clone()})
			}
			if rights[k] != -1 {
				right.Items = append(right.Items, &Item{ID: rights[k], Tree: it.Tree.Clone()})
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
		switch op.AssocKind() {
		case provenance.AssocUnary:
			found += min(1, len(ix.unary.lookup(id)))
		case provenance.AssocAgg:
			found += min(1, len(ix.agg.lookup(id)))
		case provenance.AssocBinary:
			lefts, _ := ix.binary.lookup(id)
			found += min(1, len(lefts))
		case provenance.AssocFlatten:
			if _, ok := ix.flatten.lookup(id); ok {
				found++
			}
		}
	}
	return found
}

// IndexValues readies op's index and returns its value column — the id_i of a
// unary, flatten or aggregate operator, the id_i1 of a binary one — so a test
// can tell whether it is the operator's own In column or a copy.
func IndexValues(t *Tracer, op *provenance.Operator) []int64 {
	ix := t.indexFor(op)
	switch op.AssocKind() {
	case provenance.AssocUnary:
		return ix.unary.vals
	case provenance.AssocBinary:
		return ix.binary.lefts
	case provenance.AssocFlatten:
		return ix.flatten.ins
	case provenance.AssocAgg:
		return ix.agg.vals
	}
	return nil
}

// The row-struct index build: what every operator's index was built by before
// the run's columns became the index (trace.go: fromColumns, and build for an
// Out column out of order). It reads the association rows, not the columns,
// sorts through a permutation instead of sorting the columns, and always
// spells its keys out — the reference both shipped paths are compared with in
// inrun_test.go.

// IndexMode selects how ForceIndexes readies a tracer's indexes.
type IndexMode int

const (
	// IndexBuild sorts every operator's columns (opIndex.build), in order or
	// not: the path an out-of-order Out column takes.
	IndexBuild IndexMode = iota
	// IndexReference is the row-struct build below.
	IndexReference
)

// ForceIndexes installs an index made the given way for every operator of
// the tracer's run, before the tracer reads any off the columns.
func ForceIndexes(t *Tracer, mode IndexMode) {
	for _, op := range t.run.Operators() {
		ix := &opIndex{}
		ix.once.Do(func() {
			if mode == IndexBuild && op.AssocKind() > provenance.AssocSource {
				ix.build(op.Columns())
			} else if mode == IndexReference {
				ix.refBuild(op)
			}
		})
		t.idx.Store(op.OID, ix)
	}
}

// The association rows of Tab. 6 as structs: the form the reference index is
// built from, scattered out of the operator's columns.
type (
	refBinaryRow  struct{ Left, Right, Out int64 }
	refFlattenRow struct {
		In  int64
		Pos int
		Out int64
	}
	refAggRow struct {
		Ins []int64
		Out int64
	}
)

// refBuild constructs the flat index for the operator's association kind.
func (ix *opIndex) refBuild(op *provenance.Operator) {
	c := op.Columns()
	switch c.Kind {
	case provenance.AssocUnary:
		ix.unary = refBuildPairs(len(c.Out),
			func(i int) int64 { return c.Out[i] },
			func(i int) int64 { return c.In[i] })
	case provenance.AssocBinary:
		rows := make([]refBinaryRow, len(c.Out))
		for i := range rows {
			rows[i] = refBinaryRow{Left: c.In[i], Right: c.Right[i], Out: c.Out[i]}
		}
		ix.binary = refBuildBin(rows)
	case provenance.AssocFlatten:
		rows := make([]refFlattenRow, len(c.Out))
		for i := range rows {
			rows[i] = refFlattenRow{In: c.In[i], Pos: int(c.Pos[i]), Out: c.Out[i]}
		}
		ix.flatten = refBuildFlat(rows)
	case provenance.AssocAgg:
		rows := make([]refAggRow, len(c.Out))
		for i := range rows {
			rows[i] = refAggRow{Ins: c.In[c.Offs[i]:c.Offs[i+1]], Out: c.Out[i]}
		}
		ix.agg = refBuildAgg(rows)
	}
}

// refOrderByKey returns association-row indexes ordered by key, preserving row
// order within equal keys; nil when the rows are already sorted — the common
// case, since identifiers grow with partition-concatenated row order.
func refOrderByKey(n int, key func(int) int64) []int {
	sorted := true
	for i := 1; i < n; i++ {
		if key(i) < key(i-1) {
			sorted = false
			break
		}
	}
	if sorted {
		return nil
	}
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return key(ord[a]) < key(ord[b]) })
	return ord
}

// refAt resolves the i-th row under an optional reorder.
func refAt(ord []int, i int) int {
	if ord == nil {
		return i
	}
	return ord[i]
}

// refCountKeys counts distinct keys in ordered traversal, so the key and offset
// columns allocate exactly once.
func refCountKeys(n int, ord []int, key func(int) int64) int {
	u := 0
	for i := 0; i < n; i++ {
		if i == 0 || key(refAt(ord, i)) != key(refAt(ord, i-1)) {
			u++
		}
	}
	return u
}

// refBuildPairs groups (key, val) association rows into a pairIdx with exactly
// three allocations: count first, allocate once, fill.
func refBuildPairs(n int, key, val func(int) int64) pairIdx {
	ord := refOrderByKey(n, key)
	u := refCountKeys(n, ord, key)
	x := pairIdx{
		keyCol: keyCol{keys: make([]int64, 0, u)},
		offs:   make([]int32, 0, u+1),
		vals:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		r := refAt(ord, i)
		k := key(r)
		if len(x.keys) == 0 || k != x.keys[len(x.keys)-1] {
			x.keys = append(x.keys, k)
			x.offs = append(x.offs, int32(i))
		}
		x.vals[i] = val(r)
	}
	x.offs = append(x.offs, int32(n))
	return x
}

// refBuildBin groups binary associations by Out into parallel left/right runs.
func refBuildBin(a []refBinaryRow) binIdx {
	n := len(a)
	ord := refOrderByKey(n, func(i int) int64 { return a[i].Out })
	u := refCountKeys(n, ord, func(i int) int64 { return a[i].Out })
	x := binIdx{
		keyCol: keyCol{keys: make([]int64, 0, u)},
		offs:   make([]int32, 0, u+1),
		lefts:  make([]int64, n),
		rights: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		r := refAt(ord, i)
		k := a[r].Out
		if len(x.keys) == 0 || k != x.keys[len(x.keys)-1] {
			x.keys = append(x.keys, k)
			x.offs = append(x.offs, int32(i))
		}
		x.lefts[i] = a[r].Left
		x.rights[i] = a[r].Right
	}
	x.offs = append(x.offs, int32(n))
	return x
}

// refBuildFlat indexes flatten associations by Out. Outputs are unique by
// construction; should a duplicate ever appear, the last association row
// wins, matching the previous map-based build.
func refBuildFlat(a []refFlattenRow) flatIdx {
	n := len(a)
	ord := refOrderByKey(n, func(i int) int64 { return a[i].Out })
	u := refCountKeys(n, ord, func(i int) int64 { return a[i].Out })
	x := flatIdx{
		keyCol: keyCol{keys: make([]int64, 0, u)},
		ins:    make([]int64, 0, u),
		poss:   make([]int64, 0, u),
	}
	for i := 0; i < n; i++ {
		r := refAt(ord, i)
		k := a[r].Out
		if len(x.keys) > 0 && k == x.keys[len(x.keys)-1] {
			x.ins[len(x.ins)-1] = a[r].In
			x.poss[len(x.poss)-1] = int64(a[r].Pos)
			continue
		}
		x.keys = append(x.keys, k)
		x.ins = append(x.ins, a[r].In)
		x.poss = append(x.poss, int64(a[r].Pos))
	}
	return x
}

// refBuildAgg flattens aggregation groups into one pairIdx: group Outs as keys,
// the concatenated Ins as values, so an input's 1-based group position p_P
// is its offset within the key's value run plus one. The nested per-element
// append of the previous build is gone — the Ins column is counted first and
// allocated once.
func refBuildAgg(a []refAggRow) pairIdx {
	n := len(a)
	ord := refOrderByKey(n, func(i int) int64 { return a[i].Out })
	u := refCountKeys(n, ord, func(i int) int64 { return a[i].Out })
	total := 0
	for i := range a {
		total += len(a[i].Ins)
	}
	x := pairIdx{
		keyCol: keyCol{keys: make([]int64, 0, u)},
		offs:   make([]int32, 0, u+1),
		vals:   make([]int64, 0, total),
	}
	for i := 0; i < n; i++ {
		r := refAt(ord, i)
		k := a[r].Out
		if len(x.keys) == 0 || k != x.keys[len(x.keys)-1] {
			x.keys = append(x.keys, k)
			x.offs = append(x.offs, int32(len(x.vals)))
		}
		x.vals = append(x.vals, a[r].Ins...)
	}
	x.offs = append(x.offs, int32(len(x.vals)))
	return x
}
