package backtrace

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"pebble/internal/engine"
	"pebble/internal/obs"
	"pebble/internal/path"
	"pebble/internal/provenance"
)

// Result maps each reached source operator (read) to the backtracing
// structure over that source's annotated rows: which top-level input items
// the queried result items trace back to, and — per item — the backtracing
// tree distinguishing contributing from influencing attributes. Items whose
// trees have the same content point at the same *Tree, within a source and
// across sources, and may share it with the structure the trace was given:
// the trees of a result are read-only (see Tree).
type Result struct {
	BySource map[int]*Structure
}

// Structure returns the backtracing structure for a source operator (empty
// when the trace never reached it).
func (r *Result) Structure(sourceOID int) *Structure {
	if s, ok := r.BySource[sourceOID]; ok {
		return s
	}
	return NewStructure()
}

// Trace implements Alg. 1: starting from the backtracing structure b over
// the output of operator startOID, it recursively steps backward through the
// captured operator provenance until every path reaches a source operator,
// and returns the per-source backtracing structures. b and its trees are only
// read. Each step joins identifiers per item and rewrites trees per distinct
// tree: the second phase of Algs. 2–4 depends on the operator and the tree,
// not on the item.
func Trace(run *provenance.Run, startOID int, b *Structure) (*Result, error) {
	return NewTracer(run).Trace(startOID, b)
}

// TraceOp backtraces from a specific captured operator — the typed
// counterpart of Trace for callers that resolved the operator through
// provenance.Run.OpByID.
func TraceOp(run *provenance.Run, op *provenance.Operator, b *Structure) (*Result, error) {
	if op == nil {
		return nil, fmt.Errorf("backtrace: nil operator")
	}
	return Trace(run, op.OID, b)
}

// Tracer answers provenance queries over one captured run. It readies an
// operator's association index (output id → association rows) on the first
// trace through the operator — for a run the engine wrote that is the
// operator's own columns, shared and not copied (see opIndex) — and reuses it
// across queries: the query-side optimisation the paper lists as future work.
// A Tracer is safe for concurrent queries: each operator's index is readied
// exactly once under its own sync.Once, so concurrent queries touching
// different operators proceed in parallel instead of serializing on one
// tracer-wide lock, and queries arriving afterwards proceed lock-free.
type Tracer struct {
	run *provenance.Run
	idx sync.Map // operator id -> *opIndex

	// rec receives the backtrace-walk span of every query; set it with
	// Observe before querying (not guarded — written only while idle).
	rec *obs.Recorder
}

// Observe attaches a recorder: every Trace reports its walk duration as
// obs.SpanBacktrace. A nil recorder is fine. Returns the tracer for
// chaining.
func (t *Tracer) Observe(rec *obs.Recorder) *Tracer {
	t.rec = rec
	return t
}

// opIndex is one operator's association index — output identifier →
// association rows — read off the operator's columns on first use. The engine
// assigns output identifiers in row order, so the Out column of every run it
// writes is already sorted and the columns are the index (fromColumns): the
// index adds only its key side, and offsets where a key owns more than one
// row. Only an operator whose Out column is out of order (a hand-made, damaged
// or foreign artifact) is sorted first (build).
type opIndex struct {
	once sync.Once
	keyCol
	offs []int32 // key i owns rows offs[i]:offs[i+1]; nil: row i alone
	c    provenance.Columns
}

// keyCol is the key side of an index: the operator's distinct output
// identifiers, ascending. An engine operator numbers its output base,
// base+1, …; such a column is kept as its base alone and a lookup is a
// subtraction, with no key array and no search.
type keyCol struct {
	keys  []int64 // nil when dense
	dense bool    // the keys are base … base+n−1
	base  int64
	n     int
}

// find returns the position of id among the keys.
func (k *keyCol) find(id int64) (int, bool) {
	if k.dense {
		i := uint64(id - k.base)
		return int(i), i < uint64(k.n)
	}
	lo, hi := 0, len(k.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k.keys[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(k.keys) && k.keys[lo] == id
}

// rows returns the association rows lo:hi of one output identifier, in row
// order; lo == hi when it has none. The steps read the columns at them: a
// unary operator's inputs are c.In[lo:hi], a binary one's c.In and c.Right
// [lo:hi], a flatten's origin is row hi-1 (outputs are unique by
// construction; should one repeat, its last row wins) and an aggregate's
// inputs are c.In[c.Offs[lo]:c.Offs[hi]], adjacent, so an input's 1-based
// group position p_P is its offset there plus one.
func (ix *opIndex) rows(id int64) (lo, hi int) {
	i, ok := ix.find(id)
	switch {
	case !ok:
		return 0, 0
	case ix.offs == nil:
		return i, i + 1
	}
	return int(ix.offs[i]), int(ix.offs[i+1])
}

// NewTracer returns a tracer over the captured run.
func NewTracer(run *provenance.Run) *Tracer {
	return &Tracer{run: run}
}

// Trace runs one provenance query (Alg. 1) against the captured run.
func (t *Tracer) Trace(startOID int, b *Structure) (*Result, error) {
	return t.TraceContext(context.Background(), startOID, b)
}

// TraceContext is Trace with cooperative cancellation: the context is
// checked at every operator step of the backtracing walk (a walk visits each
// pipeline operator at most a handful of times), so a cancelled provenance
// query stops before building further association indexes.
func (t *Tracer) TraceContext(ctx context.Context, startOID int, b *Structure) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer t.rec.StartSpan(obs.SpanBacktrace)()
	q := &tracer{t: t, ctx: ctx, run: t.run, out: &Result{BySource: make(map[int]*Structure)},
		trees: interner{byHash: make(map[uint64][]*Tree)}}
	if err := q.trace(startOID, q.trees.internAll(b)); err != nil {
		return nil, err
	}
	return q.out, nil
}

// indexFor returns the operator's index, reading it off the operator's
// columns on first use — on a lazily loaded run that is the only region a
// trace through the operator decodes.
func (t *Tracer) indexFor(op *provenance.Operator) *opIndex {
	v, ok := t.idx.Load(op.OID)
	if !ok {
		v, _ = t.idx.LoadOrStore(op.OID, &opIndex{})
	}
	ix := v.(*opIndex)
	ix.once.Do(func() {
		defer t.rec.StartSpan(obs.SpanIndexBuild)()
		if op.OutOrdered() {
			ix.fromColumns(op.Columns())
		} else {
			ix.build(op.Columns())
		}
	})
	return ix
}

// fromColumns reads the index off columns whose Out column is non-decreasing
// and keeps them as they are: c may be the operator's shared bag, so it is
// read and aliased, never written. A dense Out column needs nothing more; one
// with repeats (distinct) or gaps folds into keys and offsets in one linear
// pass.
func (ix *opIndex) fromColumns(c provenance.Columns) {
	n, dense := len(c.Out), true
	for i := 0; i < n && dense; i++ {
		dense = c.Out[i] == c.Out[0]+int64(i)
	}
	ix.c, ix.keyCol = c, keyCol{dense: dense, n: n}
	switch {
	case dense && n > 0:
		ix.base = c.Out[0]
	case !dense:
		ix.keys, ix.offs = make([]int64, 0, n), make([]int32, 0, n+1)
		for i, out := range c.Out {
			if i == 0 || out != c.Out[i-1] {
				ix.keys, ix.offs = append(ix.keys, out), append(ix.offs, int32(i))
			}
		}
		ix.offs = append(ix.offs, int32(n))
	}
}

// build is the index of an operator whose Out column is out of order: the
// rows are copied out sorted by Out, keeping row order within equal keys, and
// the copy is read like any other.
func (ix *opIndex) build(c provenance.Columns) {
	ord := make([]int, len(c.Out))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return c.Out[ord[a]] < c.Out[ord[b]] })
	pick := func(col []int64) []int64 {
		out := make([]int64, len(col))
		for i := range col {
			out[i] = col[ord[i]]
		}
		return out
	}
	s := provenance.Columns{Kind: c.Kind, Out: pick(c.Out)}
	if c.Kind == provenance.AssocAgg {
		s.In, s.Offs = make([]int64, 0, len(c.In)), make([]int32, 1, len(c.Offs))
		for _, row := range ord {
			s.In = append(s.In, c.In[c.Offs[row]:c.Offs[row+1]]...)
			s.Offs = append(s.Offs, int32(len(s.In)))
		}
	} else {
		s.In, s.Right, s.Pos = pick(c.In), pick(c.Right), pick(c.Pos)
	}
	ix.fromColumns(s)
}

// tracer is the per-query state. Every tree a trace holds — the ones it was
// given, every rewrite, every merge — has gone through trees, so within a
// trace one content is one *Tree and the operator steps can key their work on
// the pointer.
type tracer struct {
	t     *Tracer
	ctx   context.Context
	run   *provenance.Run
	out   *Result
	trees interner
}

// interner is the intern table of one trace: the canonical tree of every
// content seen so far, found by structural hash (Tree.hash) and confirmed by
// Tree.equal. The key is not the rendered tree: rendering a tree costs several
// times a walk over it and allocates, and the table is consulted once per
// rewrite and once per merge.
type interner struct {
	byHash map[uint64][]*Tree
}

// intern returns the canonical tree with t's content: t itself when the
// content is new. The caller gives up t — it is shared from here on.
func (in *interner) intern(t *Tree) *Tree {
	h := t.hash()
	for _, c := range in.byHash[h] {
		if c.equal(t) {
			return c
		}
	}
	in.byHash[h] = append(in.byHash[h], t)
	return t
}

// internAll returns b with every tree replaced by its canonical one; b and
// its items are left as they are.
func (in *interner) internAll(b *Structure) *Structure {
	canon := make(map[*Tree]*Tree)
	out := &Structure{Items: make([]*Item, len(b.Items))}
	for i, it := range b.Items {
		c, ok := canon[it.Tree]
		if !ok {
			c = in.intern(it.Tree)
			canon[it.Tree] = c
		}
		if c != it.Tree {
			it = &Item{ID: it.ID, Tree: c}
		}
		out.Items[i] = it
	}
	return out
}

// rewrite is the second phase of a backtracing step for one distinct tree:
// f undoes the operator's manipulations and records its accesses on a private
// copy of t, and the result is interned, so that inputs which rewrite to the
// same content share one tree again. Steps call it behind a memo: once per
// distinct tree, not once per item.
func (tr *tracer) rewrite(t *Tree, f func(*Tree)) *Tree {
	c := t.Clone()
	f(c)
	return tr.trees.intern(c)
}

func (tr *tracer) trace(oid int, b *Structure) error {
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
	switch op.Type() {
	case engine.OpSource:
		m := newMerger()
		if existing, ok := tr.out.BySource[oid]; ok {
			m.addAll(existing)
		}
		m.addAll(b)
		tr.out.BySource[oid] = m.merged(&tr.trees)
		return nil
	case engine.OpFilter, engine.OpSelect, engine.OpMap,
		engine.OpDistinct, engine.OpOrderBy, engine.OpLimit:
		next := tr.backtraceUnary(op, b)
		return tr.trace(op.Inputs()[0].Pred, next)
	case engine.OpFlatten:
		next := tr.backtraceFlatten(op, b)
		return tr.trace(op.Inputs()[0].Pred, next)
	case engine.OpAggregate:
		next := tr.backtraceAggregation(op, b)
		return tr.trace(op.Inputs()[0].Pred, next)
	case engine.OpJoin:
		left, right := tr.backtraceJoin(op, b)
		if err := tr.trace(op.Inputs()[0].Pred, left); err != nil {
			return err
		}
		return tr.trace(op.Inputs()[1].Pred, right)
	case engine.OpUnion:
		left, right := tr.backtraceUnion(op, b)
		if err := tr.trace(op.Inputs()[0].Pred, left); err != nil {
			return err
		}
		return tr.trace(op.Inputs()[1].Pred, right)
	}
	return fmt.Errorf("backtrace: unsupported operator type %q", op.Type())
}

// mappings converts the captured manipulation mapping; keysOnly selects
// either the group-key mappings or the remaining ones.
func mappings(op *provenance.Operator, keys bool) []Mapping {
	var out []Mapping
	for _, m := range op.Manipulated() {
		if m.GroupKey == keys {
			out = append(out, Mapping{In: m.In, Out: m.Out})
		}
	}
	return out
}

// applyStatic undoes the operator's manipulations ms and records its accesses
// on the tree (the second phase of Alg. 3, ll. 2–6).
func applyStatic(op *provenance.Operator, ms []Mapping, t *Tree) {
	if op.ManipUndefined() {
		// Map operator: no structural information; mark everything as
		// manipulated and flag the tree opaque (Sec. 6.3).
		t.Opaque = true
		t.MarkAllManip(op.OID)
	} else {
		t.ApplyMappings(ms, op.OID)
	}
	if in := op.Inputs()[0]; !in.AccessUndefined {
		for _, a := range in.Accessed {
			t.AccessPath(a, op.OID)
		}
	}
}

// backtraceUnary is Alg. 3 for filter, select, and map: join b's ids against
// the ⟨id_i, id_o⟩ associations per item, then undo manipulations and record
// accesses per distinct tree.
func (tr *tracer) backtraceUnary(op *provenance.Operator, b *Structure) *Structure {
	idx := tr.t.indexFor(op)
	ms := mappings(op, false)
	memo := make(map[*Tree]*Tree)
	next := newMerger()
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		if lo == hi {
			continue
		}
		t, ok := memo[it.Tree]
		if !ok {
			t = tr.rewrite(it.Tree, func(c *Tree) { applyStatic(op, ms, c) })
			memo[it.Tree] = t
		}
		for _, in := range idx.c.In[lo:hi] {
			next.add(in, t)
		}
	}
	return next.merged(&tr.trees)
}

// backtraceFlatten is Alg. 2: the generic step rewrites the exploded
// attribute back to a_col[pos] with an unresolved placeholder; the merge
// step substitutes each item's concrete position and merges the trees of
// items originating from the same input item. Both are one rewrite per
// distinct (tree, position).
func (tr *tracer) backtraceFlatten(op *provenance.Operator, b *Structure) *Structure {
	idx := tr.t.indexFor(op)
	ms := mappings(op, false)
	var colPath path.Path
	if len(ms) > 0 {
		colPath = ms[0].In
	}
	type treeAt struct {
		tree *Tree
		pos  int
	}
	memo := make(map[treeAt]*Tree)
	next := newMerger()
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		if lo == hi {
			continue
		}
		in, pos := idx.c.In[hi-1], int(idx.c.Pos[hi-1])
		k := treeAt{it.Tree, pos}
		t, ok := memo[k]
		if !ok {
			t = tr.rewrite(it.Tree, func(c *Tree) {
				applyStatic(op, ms, c)
				if colPath != nil {
					c.SubstitutePlaceholder(colPath, pos)
				}
			})
			memo[k] = t
		}
		next.add(in, t)
	}
	return next.merged(&tr.trees)
}

// backtraceAggregation is Alg. 4, tracing aggregation and nesting back to
// the input of the preceding grouping: one stem per distinct tree, one
// rewrite per group position the tree addresses.
func (tr *tracer) backtraceAggregation(op *provenance.Operator, b *Structure) *Structure {
	idx := tr.t.indexFor(op)
	aggMs := mappings(op, false)
	keyMs := mappings(op, true)
	colls, plain := collectionAttrs(aggMs)
	stems := make(map[*Tree]*aggStem)
	next := newMerger()
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		if lo == hi {
			continue
		}
		ins := idx.c.In[idx.c.Offs[lo]:idx.c.Offs[hi]]
		stem, ok := stems[it.Tree]
		if !ok {
			stem = newAggStem(it.Tree, colls)
			stems[it.Tree] = stem
		}
		for j, in := range ins {
			pP := j + 1 // 1-based position within the group (= nested collection)
			k := pP
			if plain && !stem.addresses(pP) {
				k = 0 // the rewrite is the same for every such member
			}
			t, ok := stem.byPos[k]
			if !ok {
				if c := stem.member(pP); aggregationMember(op, aggMs, keyMs, c, pP) {
					t = tr.trees.intern(c)
				}
				stem.byPos[k] = t
			}
			if t != nil {
				next.add(in, t)
			}
		}
	}
	return next.merged(&tr.trees)
}

// aggregationMember is the body of Alg. 4 for the group member at position
// pP, on its private tree t (aggStem.member). It reports whether the member
// is in the provenance of the queried items.
func aggregationMember(op *provenance.Operator, aggMs, keyMs []Mapping, t *Tree, pP int) bool {
	inProv := false
	for _, m := range aggMs {
		out := m.Out
		if out.HasPlaceholder() {
			// Bag nesting: this input contributes exactly to the
			// element at its own position p_P (Alg. 4, l. 7).
			out = substitutePos(out, pP)
			if len(t.Find(out)) == 0 {
				// A query may address the whole nested collection
				// rather than individual positions; then every group
				// member contributes to it.
				if wholeCollectionAddressed(t, stripIndex(m.Out)) {
					out = stripIndex(m.Out)
				}
			}
		}
		if len(t.Find(out)) > 0 {
			inProv = true
			if len(m.In) == 0 {
				// count(*): the result value depends on the item but
				// maps to no input attribute.
				t.RemoveAt(out)
			} else {
				t.ApplyMappings([]Mapping{{In: m.In, Out: out}}, op.OID)
			}
		}
		if m.Out.HasPlaceholder() {
			// Remove the collection node and any other positions —
			// they describe other group members (Alg. 4, l. 13).
			t.RemoveAt(stripIndex(m.Out))
		}
	}
	if !inProv {
		return false
	}
	t.ApplyMappings(keyMs, op.OID)
	for _, a := range op.Inputs()[0].Accessed {
		t.AccessPath(a, op.OID)
	}
	return true
}

// collectionAttrs returns the attributes under which the aggregation nests
// its members by position: the a of every mapping whose output is a[pos].
// Line 13 of Alg. 4 removes those nodes from every member's tree, so what
// hangs under them at other members' positions can be left out of the copy a
// member works on (aggStem), and a member whose position the tree does not
// hold is rewritten like any other such member. Both rest on the mappings
// being what the engine emits — each aggregate writes one top-level attribute
// of its own, from a schema-level path. A hand-made or damaged artifact can
// carry others: a mapping that reaches into another's collection before line
// 13 removes it, or one that creates a node at a concrete position. Then
// plain is false, nothing is left out and every member is rewritten on its
// own.
func collectionAttrs(aggMs []Mapping) (colls []string, plain bool) {
	seen := make(map[string]bool, len(aggMs))
	for _, m := range aggMs {
		if len(m.Out) != 1 || m.Out[0].Attr == "" || seen[m.Out[0].Attr] {
			return nil, false
		}
		for _, step := range m.In {
			if step.Index > 0 {
				return nil, false
			}
		}
		seen[m.Out[0].Attr] = true
		if m.Out[0].Index == path.Pos {
			colls = append(colls, m.Out[0].Attr)
		}
	}
	return colls, true
}

// aggStem is one distinct tree entering an aggregation step, split for
// Alg. 4: the stem is the tree without the concrete position nodes under its
// collection attributes — one node per group member, which line 13 removes
// from every member's tree anyway — and member(pP) puts back the one position
// a member's rewrite reads. A member then costs O(stem + its own position),
// not O(group).
type aggStem struct {
	stem  *Tree
	colls []aggColl
	// byPos memoizes the rewritten, interned tree per addressed member
	// position; key 0 holds the one result of all members whose position the
	// tree does not address, and a nil tree means "not in the provenance".
	byPos map[int]*Tree
}

// aggColl is one collection node of the shared tree.
type aggColl struct {
	at    int           // index of the node among the root's children, in tree and stem alike
	byPos map[int]*Node // its concrete position children, first of each position
	some  [2]*Node      // up to two of them, to find one that is not a given member's
}

func newAggStem(t *Tree, colls []string) *aggStem {
	s := &aggStem{byPos: make(map[int]*Tree)}
	root := t.Root.cloneBare(nil)
	root.Children = make([]*Node, len(t.Root.Children))
	taken := make([]bool, len(colls)) // Find, too, sees the first child of a name
	for i, n := range t.Root.Children {
		ci := slices.Index(colls, n.Name)
		if ci < 0 || taken[ci] {
			root.Children[i] = n.clone(root)
			continue
		}
		taken[ci] = true
		c := aggColl{at: i, byPos: make(map[int]*Node)}
		stemNode := n.cloneBare(root)
		for _, p := range n.Children {
			if p.Name != "" || p.Pos == path.Pos {
				stemNode.Children = append(stemNode.Children, p.clone(stemNode))
				continue
			}
			if _, dup := c.byPos[p.Pos]; !dup {
				c.byPos[p.Pos] = p
			}
			if c.some[0] == nil {
				c.some[0] = p
			} else if c.some[1] == nil {
				c.some[1] = p
			}
		}
		root.Children[i] = stemNode
		s.colls = append(s.colls, c)
	}
	s.stem = &Tree{Root: root, Opaque: t.Opaque}
	return s
}

// addresses reports whether the tree holds a node for group position pP.
func (s *aggStem) addresses(pP int) bool {
	for i := range s.colls {
		if s.colls[i].byPos[pP] != nil {
			return true
		}
	}
	return false
}

// member returns the private tree Alg. 4 rewrites for the group member at
// position pP: the stem, and under each collection node the member's own
// position (the [pos] placeholder, which a concrete position also matches,
// is part of the stem). Where the shared tree holds other members' positions
// a bare node stands in for all of them, so that the collection still reads
// as addressed by position rather than as a whole (wholeCollectionAddressed)
// and still is no empty shell once the member's position is moved out
// (ApplyMappings folds those) — exactly as with all of them present.
func (s *aggStem) member(pP int) *Tree {
	t := s.stem.Clone()
	for i := range s.colls {
		c := &s.colls[i]
		node := t.Root.Children[c.at]
		own := c.byPos[pP]
		if own != nil {
			node.Children = append(node.Children, own.clone(node))
		}
		for _, o := range c.some {
			if o != nil && o != own {
				node.addChild(&Node{Pos: o.Pos, Contributing: o.Contributing})
				break
			}
		}
	}
	return t
}

// wholeCollectionAddressed reports whether the tree addresses the collection
// attribute at p as a whole (a node without position children).
func wholeCollectionAddressed(t *Tree, p path.Path) bool {
	for _, n := range t.Find(p) {
		if len(n.posChildren()) == 0 {
			return true
		}
	}
	return false
}

// substitutePos replaces the [pos] placeholder in p with the concrete
// position.
func substitutePos(p path.Path, pos int) path.Path {
	out := p.Clone()
	for i := range out {
		if out[i].Index == path.Pos {
			out[i].Index = pos
		}
	}
	return out
}

// stripIndex removes the positional index of the last step, yielding the
// path of the collection attribute itself.
func stripIndex(p path.Path) path.Path {
	out := p.Clone()
	if len(out) > 0 {
		out[len(out)-1].Index = path.NoIndex
	}
	return out
}

// backtraceJoin splits b toward the two join inputs: each side receives the
// item ids of its input, with tree nodes of the other side's schema removed
// and the side's join-key paths marked as accessed — one rewrite per distinct
// tree and side.
func (tr *tracer) backtraceJoin(op *provenance.Operator, b *Structure) (*Structure, *Structure) {
	idx := tr.t.indexFor(op)
	var memo [2]map[*Tree]*Tree
	var next [2]*merger
	for side := range next {
		memo[side] = make(map[*Tree]*Tree)
		next[side] = newMerger()
	}
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		for k := lo; k < hi; k++ {
			for side, in := range [2]int64{idx.c.In[k], idx.c.Right[k]} {
				if in == -1 {
					continue
				}
				t, ok := memo[side][it.Tree]
				if !ok {
					input := op.Inputs()[side]
					t = tr.rewrite(it.Tree, func(c *Tree) {
						c.PruneToSchema(input.Schema)
						for _, a := range input.Accessed {
							c.AccessPath(a, op.OID)
						}
					})
					memo[side][it.Tree] = t
				}
				next[side].add(in, t)
			}
		}
	}
	return next[0].merged(&tr.trees), next[1].merged(&tr.trees)
}

// backtraceUnion splits b toward the two union inputs: items whose recorded
// identifier for the chosen side is undefined (-1) originate from the other
// input and are filtered out. A union changes no tree, so the trees are
// passed on as they are.
func (tr *tracer) backtraceUnion(op *provenance.Operator, b *Structure) (*Structure, *Structure) {
	idx := tr.t.indexFor(op)
	left, right := newMerger(), newMerger()
	for _, it := range b.Items {
		lo, hi := idx.rows(it.ID)
		for k := lo; k < hi; k++ {
			if in := idx.c.In[k]; in != -1 {
				left.add(in, it.Tree)
			}
			if in := idx.c.Right[k]; in != -1 {
				right.add(in, it.Tree)
			}
		}
	}
	return left.merged(&tr.trees), right.merged(&tr.trees)
}
