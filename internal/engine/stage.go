package engine

import (
	"fmt"
	"sync"
	"time"

	"pebble/internal/nested"
	"pebble/internal/obs"
	"pebble/internal/path"
)

// A stage is the unit the scheduler executes (DESIGN.md §4, "Stages and row
// ownership"): a maximal chain of row-wise unary operators — filter, flatten,
// select, map — each but the last with exactly one consumer, or any other
// operator alone. A partition's morsel flows through every member before the
// next morsel starts, so only the last member's rows are materialised.
//
// compute runs the bodies over all partitions: rows carry their
// partition-local index where an identifier will be, and a member inside the
// chain records the local index of its input row. reserve takes one member's
// turn at the reserve gate for Σ counts identifiers, so member k's row i of
// partition p is bases[k][p] + i, as if every member had run alone. commit
// writes the identifiers into the last member's rows and emits every
// member's association columns, the input side shifted by bases[k-1][p].
type stage struct {
	index   int      // 1-based position in plan order of first members
	ops     []*Op    // members in plan order
	members []member // row-wise stages: what each member runs over a morsel

	outs   [][]morselOut // [member][partition], filled by compute
	bases  [][]int64     // [member][partition] first identifier; reserve appends a member's
	failed int           // compute: the earliest failing member
	err    error         // compute: its error in the lowest failing partition
	wall   time.Duration // compute + commit; no wait at the reserve gate
}

func rowWise(t OpType) bool {
	return t == OpFilter || t == OpFlatten || t == OpSelect || t == OpMap
}

// planStages cuts the plan into stages.
func planStages(p *Pipeline) []*stage {
	consumers := make(map[*Op][]*Op, len(p.Ops()))
	for _, o := range p.Ops() {
		for _, in := range o.inputs {
			consumers[in] = append(consumers[in], o)
		}
	}
	var stages []*stage
	inside := make(map[*Op]bool) // members other than the first of their stage
	for _, o := range p.Ops() {
		if inside[o] {
			continue
		}
		st := &stage{index: len(stages) + 1, ops: []*Op{o}}
		for cur := o; rowWise(cur.typ) && len(consumers[cur]) == 1 && rowWise(consumers[cur][0].typ); {
			cur = consumers[cur][0]
			st.ops = append(st.ops, cur)
			inside[cur] = true
		}
		for k, o := range st.ops {
			if rowWise(o.typ) {
				st.members = append(st.members, st.member(k, o))
			}
		}
		stages = append(stages, st)
	}
	return stages
}

// member is a row-wise operator inside a stage: its body over one morsel and
// the static per-row expression cost the recorder charges it. Every body
// writes row i with ID i — the partition-local index the next member reads as
// its input id — and, under capture, in1[i] = the ID of the row it came from.
type member struct {
	evalOps int
	run     func(in []Row, d morselDst) (morselOut, error)
}

func (st *stage) member(k int, o *Op) member {
	switch o.typ {
	case OpFilter:
		return member{EvalOps(o.pred), func(in []Row, d morselDst) (morselOut, error) { return filterMorsel(o.pred, in, d) }}
	case OpSelect:
		ss := newSelectShape(o.fields)
		return member{selectEvalOps(o.fields), func(in []Row, d morselDst) (morselOut, error) { return selectMorsel(o.fields, ss, in, d) }}
	case OpFlatten:
		scratch := st.arenaIsScratch(k)
		return member{1, func(in []Row, d morselDst) (morselOut, error) { // one path eval per row
			return flattenMorsel(o.flattenCol, o.flattenNew, in, d, scratch)
		}}
	}
	return member{0, func(in []Row, d morselDst) (morselOut, error) { return mapMorsel(o.mapFn, in, d) }}
}

// arenaIsScratch is the ownership rule for the value arena of member k, a
// flatten. The arena holds only the top-level value array of each exploded row, so
// it may be reused morsel after morsel iff nothing that leaves the stage can
// keep a pointer to such an array: a filter passes its rows on (ask its
// consumer), a flatten copies the top-level values into its own arena, and a
// select copies out what its leaves read — unless a leaf can yield the row
// itself (a whole-row column) or is an opaque computed expression. A map is
// opaque, and at the end of the stage the rows themselves leave.
func (st *stage) arenaIsScratch(k int) bool {
	for _, o := range st.ops[k+1:] {
		switch o.typ {
		case OpFilter:
			continue
		case OpFlatten:
			return true
		case OpSelect:
			return leavesCopyOut(o.fields)
		default:
			return false
		}
	}
	return false
}

// leavesCopyOut reports whether every leaf of a select is a column whose path
// steps into the row, so the value it yields is not the row's own array.
func leavesCopyOut(fields []SelectField) bool {
	for _, f := range fields {
		switch {
		case len(f.Col) > 0:
			if !stepsIn(f.Col) {
				return false
			}
		case len(f.Struct) > 0:
			if !leavesCopyOut(f.Struct) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func stepsIn(p path.Path) bool {
	for _, s := range p {
		if s.Attr != "" || s.Index >= 1 {
			return true
		}
	}
	return false
}

// stageScratch is the memory the members inside a stage write one morsel
// into: the rows the next member consumes at once, the flatten arenas the
// ownership rule releases, and the bodies' working arrays. One is borrowed
// per morsel, so a worker reuses it morsel after morsel; nothing in it is
// cleared between uses, and nothing the stage hands on may point into it.
// An aggregate borrows one per bucket for its working arrays.
type stageScratch struct {
	rows  [][]Row          // per member
	arena [][]nested.Value // per member
	cols  []nested.Value   // flatten: the collection of every input row
	vals  []nested.Value   // filter, aggregate: one path gathered off a chunk
	sel   []int32          // filter: the surviving rows
	chunk []Row            // aggregate: the rows of a chunk of the bucket
}

var stageScratchPool = sync.Pool{
	New: func() any { return new(stageScratch) },
}

// grown returns s resized to n, reusing capacity; contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratchPoison, when a test sets it, overwrites a scratch that goes back to
// the pool, so a row that still points into it reads garbage at once.
var scratchPoison func(*stageScratch)

func getStageScratch(members int) *stageScratch {
	s := stageScratchPool.Get().(*stageScratch)
	for len(s.rows) < members {
		s.rows, s.arena = append(s.rows, nil), append(s.arena, nil)
	}
	return s
}

func putStageScratch(s *stageScratch) {
	if scratchPoison != nil {
		scratchPoison(s)
	}
	stageScratchPool.Put(s)
}

// morselDst is where member k of a stage writes one morsel.
type morselDst struct {
	sc      *stageScratch
	k       int
	owned   bool // the rows are the stage's output: fresh memory, not scratch
	capture bool
}

// out returns a morsel of n rows to fill in, with its input-id column under
// capture.
func (d morselDst) out(n int) morselOut {
	m := morselOut{n: n}
	if d.owned {
		m.rows = make([]Row, n)
	} else {
		d.sc.rows[d.k] = grown(d.sc.rows[d.k], n)
		m.rows = d.sc.rows[d.k]
	}
	if d.capture {
		m.in1 = make([]int64, n)
	}
	return m
}

// selectMorsel projects one partition morsel; the output items share ss's
// shapes and one value arena. The columns are gathered into the arena one
// leaf at a time, then each row's computed fields and items are built.
func selectMorsel(fields []SelectField, ss *selectShape, in []Row, d morselDst) (morselOut, error) {
	out := d.out(len(in))
	arena := make([]nested.Value, len(in)*ss.slots) // retained by the output items
	for _, l := range ss.leaves {
		gather(l.col, in, arena, l.at, ss.slots)
	}
	for i := range in {
		item, err := ss.item(fields, arena[i*ss.slots:(i+1)*ss.slots], in[i].Value)
		if err != nil {
			return morselOut{}, err
		}
		out.rows[i] = Row{ID: int64(i), Value: item}
		if out.in1 != nil {
			out.in1[i] = in[i].ID
		}
	}
	return out, nil
}

func mapMorsel(fn MapFunc, in []Row, d morselDst) (morselOut, error) {
	out := d.out(len(in))
	for i := range in {
		v, err := fn.Fn(in[i].Value)
		if err != nil {
			return morselOut{}, fmt.Errorf("map %s: %w", fn.Name, err)
		}
		if v.Kind() != nested.KindItem {
			return morselOut{}, fmt.Errorf("map %s returned %s, want a data item (τ(λ(i)) ⇒ ⟨...⟩)", fn.Name, v.Kind())
		}
		out.rows[i] = Row{ID: int64(i), Value: v}
		if out.in1 != nil {
			out.in1[i] = in[i].ID
		}
	}
	return out, nil
}

// flattenMorsel explodes the collection at col of every row of one morsel
// into one output row per element, the element under attribute name. Pass 1
// gathers the collections and sizes the output exactly; pass 2 writes every
// item into one value arena — scratch when the ownership rule allows — under
// its input row's shape with name set.
func flattenMorsel(col path.Path, name string, in []Row, d morselDst, arenaScratch bool) (morselOut, error) {
	d.sc.cols = grown(d.sc.cols, len(in))
	cols := d.sc.cols
	gather(col, in, cols, 0, 1)
	var memo shapeMemo
	nOut, slots := 0, 0
	for i := range in {
		c := &cols[i]
		if c.IsNull() {
			continue // no collection to explode
		}
		if !c.Kind().IsCollection() {
			return morselOut{}, fmt.Errorf("flatten: %s is %s, want bag or set", col, c.Kind())
		}
		nOut += c.Len()
		slots += c.Len() * memo.withAttr(in[i].Value.Shape(), name).shape.Len()
	}
	out := d.out(nOut)
	if d.capture {
		out.pos = make([]int, nOut)
	}
	var arena []nested.Value
	if arenaScratch {
		d.sc.arena[d.k] = grown(d.sc.arena[d.k], slots)
		arena = d.sc.arena[d.k]
	} else {
		arena = make([]nested.Value, slots) // retained by the output items
	}
	n := 0
	for i := range in {
		elems := cols[i].Elems()
		if len(elems) == 0 {
			continue
		}
		r := &in[i]
		ds := memo.withAttr(r.Value.Shape(), name)
		width := ds.shape.Len()
		for idx, elem := range elems {
			vals := arena[:width:width]
			arena = arena[width:]
			copy(vals, r.Value.FieldValues())
			vals[ds.at] = elem
			out.rows[n] = Row{ID: int64(n), Value: ds.shape.Item(vals...)}
			if out.in1 != nil {
				out.in1[n], out.pos[n] = r.ID, idx+1
			}
			n++
		}
	}
	return out, nil
}

// compute runs the stage's bodies over every partition and leaves what they
// produced in outs. A failure is kept, not returned: the stage reports the
// earliest member in plan order that fails, then the lowest partition — what
// running the members one after the other over all partitions would report.
func (st *stage) compute(e *executor) {
	start := clock()
	defer func() { st.wall += time.Since(start) }()
	if st.members == nil {
		outs, err := e.exec(st.ops[0])
		st.outs, st.err = [][]morselOut{outs}, err
		return
	}
	in := e.in(st.ops[0], 0)
	parts := len(in.Partitions)
	st.outs = make([][]morselOut, len(st.ops))
	for k, o := range st.ops {
		st.outs[k] = make([]morselOut, parts)
		e.startOperator(o, parts, nil, nil, nested.Null())
	}
	failed, errs := make([]int, parts), make([]error, parts)
	st.err = e.forEachPartition(parts, func(part int) error {
		failed[part], errs[part] = st.runMorsel(e, part, in.Partitions[part])
		return nil
	})
	for part, err := range errs {
		if err != nil && (st.err == nil || failed[part] < st.failed) {
			st.failed, st.err = failed[part], err
		}
	}
}

// runMorsel takes one partition through every member, each reading what the
// one before it wrote into the scratch; it returns the member that failed.
func (st *stage) runMorsel(e *executor, part int, in []Row) (int, error) {
	sc := getStageScratch(len(st.ops))
	defer putStageScratch(sc)
	last := len(st.ops) - 1
	t := clock()
	for k, o := range st.ops {
		out, err := st.members[k].run(in, morselDst{sc: sc, k: k, owned: k == last, capture: e.opts.Sink != nil})
		if err != nil {
			return k, err
		}
		if rec := e.opts.Recorder; rec != nil {
			rec.Add(o.id, part, obs.RowsIn, int64(len(in)))
			rec.Add(o.id, part, obs.ExprEvals, int64(len(in))*int64(st.members[k].evalOps))
		}
		in = out.rows
		if k < last {
			out.rows = nil // they live in the scratch, until the next member has read them
		}
		now := clock()
		out.busy, t = now.Sub(t), now
		st.outs[k][part] = out
	}
	return 0, nil
}

// reserve takes the next member's turn at the reserve gate: Σ counts
// identifiers, dealt to its partitions in order.
func (st *stage) reserve(e *executor) {
	k := len(st.bases)
	outs := st.outs[k]
	total := 0
	for i := range outs {
		total += outs[i].n
	}
	bases := make([]int64, len(outs))
	next := e.reserve(st.ops[k].id, int64(total))
	for i := range outs {
		bases[i] = next
		next += int64(outs[i].n)
	}
	st.bases = append(st.bases, bases)
}

// commit writes the reserved identifiers into the stage's output rows, emits
// every member's associations and returns the output dataset.
func (st *stage) commit(e *executor) (*Dataset, error) {
	start := clock()
	last := len(st.ops) - 1
	err := e.forEachPartition(len(st.outs[last]), func(part int) error {
		for k, o := range st.ops {
			var inBase int64
			if k > 0 {
				inBase = st.bases[k-1][part]
			}
			e.commitMorsel(o, part, &st.outs[k][part], st.bases[k][part], inBase)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Dataset{Name: st.ops[last].sourceName, Partitions: make([][]Row, len(st.outs[last]))}
	for part := range out.Partitions {
		out.Partitions[part] = st.outs[last][part].rows
	}
	st.wall += time.Since(start)
	return out, nil
}

// stats returns member k's OpStats once the stage has committed. The stage's
// wall time is split between the members by the time their bodies took,
// summed over the morsels.
func (st *stage) stats(k int) OpStats {
	s := OpStats{OID: st.ops[k].id, Type: st.ops[k].typ, Stage: st.index, Elapsed: st.wall}
	var own, all time.Duration
	for m, outs := range st.outs {
		for i := range outs {
			all += outs[i].busy
			if m == k {
				own += outs[i].busy
				s.Rows += outs[i].n
			}
		}
	}
	if len(st.ops) > 1 && all > 0 {
		s.Elapsed = time.Duration(float64(st.wall) * float64(own) / float64(all))
	}
	return s
}
