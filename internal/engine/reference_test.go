package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"pebble/internal/nested"
	"pebble/internal/obs"
	"pebble/internal/path"
)

// This file holds the row-at-a-time reference bodies of join and aggregate —
// the bodies that shipped beside the keyTable kernels until the kernels
// became total — and the bucket-level differential tests that pin the
// kernels to them: same output rows, same association ids, same error text,
// at bucket sizes straddling the 256-row accumulation chunk. Its second half
// is the operator-at-a-time executor the stage executor replaced
// (runReference): every operator materialises its whole output as pending
// rows and finalizeRef copies them into identified rows.

// ---- reference bodies ----

// pending is a produced row awaiting its identifier, carrying the
// association data the capture sink needs: what every operator body built
// per row before rows were written once.
type pending struct {
	value nested.Value
	in1   int64
	in2   int64
	pos   int
	inIDs []int64
}

// concatItemsRef builds the join result r = ⟨i, j⟩ by concatenating the
// attributes of both items; attribute names must be disjoint.
func concatItemsRef(l, r nested.Value) (nested.Value, error) {
	if l.Kind() != nested.KindItem || r.Kind() != nested.KindItem {
		return nested.Value{}, fmt.Errorf("join: inputs must be data items, got %s and %s", l.Kind(), r.Kind())
	}
	fields := make([]nested.Field, 0, l.NumFields()+r.NumFields())
	fields = append(fields, l.Fields()...)
	for _, f := range r.Fields() {
		if _, dup := l.Get(f.Name); dup {
			return nested.Value{}, fmt.Errorf("join: attribute %q exists on both sides; project inputs to disjoint names", f.Name)
		}
		fields = append(fields, f)
	}
	return nested.Item(fields...), nil
}

// concatWithNullsRef extends a left item with null values for the right
// side's top-level attributes, one field list per row.
func concatWithNullsRef(l nested.Value, rightSchema []string) (nested.Value, error) {
	if l.Kind() != nested.KindItem {
		return nested.Value{}, fmt.Errorf("join: inputs must be data items, got %s", l.Kind())
	}
	fields := l.Fields()
	for _, a := range rightSchema {
		if _, dup := l.Get(a); dup {
			return nested.Value{}, fmt.Errorf("join: attribute %q exists on both sides; project inputs to disjoint names", a)
		}
		fields = append(fields, nested.F(a, nested.Null()))
	}
	return nested.Item(fields...), nil
}

// joinBucketRef builds a hash-chain map on the left, probes with the right
// in sequence order, and concatenates per match.
func joinBucketRef(lrows, rrows []keyedRow, leftOuter bool, rightSchema []string) ([]pending, error) {
	build := make(map[uint64][]keyedRow, len(lrows))
	for _, kr := range lrows {
		build[kr.hash] = append(build[kr.hash], kr)
	}
	matched := make(map[int64]bool)
	out := make([]pending, 0, len(rrows))
	probe := make([]keyedRow, len(rrows))
	copy(probe, rrows)
	sort.Slice(probe, func(i, j int) bool { return probe[i].seq < probe[j].seq })
	for _, rkr := range probe {
		for _, lkr := range build[rkr.hash] {
			if nested.CompareWidened(lkr.key, rkr.key) != 0 {
				continue
			}
			item, err := concatItemsRef(lkr.row.Value, rkr.row.Value)
			if err != nil {
				return nil, err
			}
			matched[lkr.row.ID] = true
			out = append(out, pending{value: item, in1: lkr.row.ID, in2: rkr.row.ID})
		}
	}
	if leftOuter {
		unmatched := make([]keyedRow, 0, len(lrows))
		for _, kr := range lrows {
			if !matched[kr.row.ID] {
				unmatched = append(unmatched, kr)
			}
		}
		sort.Slice(unmatched, func(i, j int) bool { return unmatched[i].seq < unmatched[j].seq })
		for _, kr := range unmatched {
			item, err := concatWithNullsRef(kr.row.Value, rightSchema)
			if err != nil {
				return nil, err
			}
			out = append(out, pending{value: item, in1: kr.row.ID, in2: -1})
		}
	}
	return out, nil
}

// broadcastBuildRef builds the broadcast join's hash-chain map over the
// whole build side, row by row.
func broadcastBuildRef(buildKey Expr, buildDS *Dataset) (map[uint64][]keyedRow, error) {
	build := make(map[uint64][]keyedRow)
	for _, p := range buildDS.Partitions {
		for _, r := range p {
			k, err := buildKey.Eval(r.Value)
			if err != nil {
				return nil, err
			}
			if k.IsNull() {
				continue
			}
			h := valueHash(k)
			build[h] = append(build[h], keyedRow{row: r, key: k, hash: h})
		}
	}
	return build, nil
}

// broadcastProbeRef probes one partition row by row, evaluating the probe
// key as it goes.
func broadcastProbeRef(probeKey Expr, build map[uint64][]keyedRow, rows []Row, buildLeft bool) ([]pending, int, error) {
	out := make([]pending, 0, len(rows))
	probeHashed := 0
	for _, r := range rows {
		k, err := probeKey.Eval(r.Value)
		if err != nil {
			return nil, 0, err
		}
		if k.IsNull() {
			continue
		}
		probeHashed++
		for _, bkr := range build[valueHash(k)] {
			if nested.CompareWidened(bkr.key, k) != 0 {
				continue
			}
			lRow, rRow := bkr.row, r
			if !buildLeft {
				lRow, rRow = r, bkr.row
			}
			item, err := concatItemsRef(lRow.Value, rRow.Value)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, pending{value: item, in1: lRow.ID, in2: rRow.ID})
		}
	}
	return out, probeHashed, nil
}

// aggBucketRef groups by hash chain and nested.Equal, buffers every group's
// rows, and evaluates computeAggRef per (group, spec).
func aggBucketRef(o *Op, bucket []keyedRow, capture bool) ([]pending, error) {
	type group struct {
		key  nested.Value
		rows []keyedRow
	}
	groups := make(map[uint64][]*group)
	var order []*group
	for _, kr := range bucket {
		var g *group
		for _, cand := range groups[kr.hash] {
			if nested.Equal(cand.key, kr.key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: kr.key}
			groups[kr.hash] = append(groups[kr.hash], g)
			order = append(order, g)
		}
		g.rows = append(g.rows, kr)
	}
	sort.Slice(order, func(i, j int) bool { return nested.Compare(order[i].key, order[j].key) < 0 })
	var out []pending
	for _, g := range order {
		sort.Slice(g.rows, func(i, j int) bool { return g.rows[i].seq < g.rows[j].seq })
		fields := make([]nested.Field, 0, len(o.groupBy)+len(o.aggs))
		fields = append(fields, g.key.Fields()...)
		for _, spec := range o.aggs {
			av, err := computeAggRef(spec, g.rows)
			if err != nil {
				return nil, err
			}
			fields = append(fields, nested.F(spec.Out, av))
		}
		var ids []int64
		if capture {
			ids = make([]int64, len(g.rows))
			for i, kr := range g.rows {
				ids[i] = kr.row.ID
			}
		}
		out = append(out, pending{value: nested.Item(fields...), inIDs: ids})
	}
	return out, nil
}

// computeAggRef evaluates one aggregation over the buffered rows of a group.
func computeAggRef(spec AggSpec, rows []keyedRow) (nested.Value, error) {
	if spec.Func == AggCount && len(spec.In) == 0 {
		return nested.Int(int64(len(rows))), nil
	}
	if len(spec.In) == 0 {
		return nested.Value{}, fmt.Errorf("aggregate %s needs an input path", spec.Func)
	}
	values := make([]nested.Value, 0, len(rows))
	for _, kr := range rows {
		v, ok := spec.In.Eval(kr.row.Value)
		if !ok {
			v = nested.Null()
		}
		values = append(values, v)
	}
	switch spec.Func {
	case AggCount:
		n := int64(0)
		for _, v := range values {
			if !v.IsNull() {
				n++
			}
		}
		return nested.Int(n), nil
	case AggSum, AggAvg:
		var sum float64
		var sumI int64
		allInt := true
		n := 0
		for _, v := range values {
			if v.IsNull() {
				continue
			}
			f, ok := v.AsDouble()
			if !ok {
				return nested.Value{}, fmt.Errorf("aggregate %s over non-numeric %s", spec.Func, v.Kind())
			}
			if i, isInt := v.AsInt(); isInt {
				sumI += i
			} else {
				allInt = false
			}
			sum += f
			n++
		}
		if spec.Func == AggAvg {
			if n == 0 {
				return nested.Null(), nil
			}
			return nested.Double(sum / float64(n)), nil
		}
		if allInt {
			return nested.Int(sumI), nil
		}
		return nested.Double(sum), nil
	case AggMax, AggMin:
		var best nested.Value
		found := false
		for _, v := range values {
			if v.IsNull() {
				continue
			}
			if !found {
				best = v
				found = true
				continue
			}
			c := nested.CompareWidened(v, best)
			if (spec.Func == AggMax && c > 0) || (spec.Func == AggMin && c < 0) {
				best = v
			}
		}
		if !found {
			return nested.Null(), nil
		}
		return best, nil
	case AggCollectList:
		return nested.Bag(values...), nil
	case AggCollectSet:
		elems := make([]nested.Value, 0, len(values))
		for _, v := range values {
			if !v.IsNull() {
				elems = append(elems, v)
			}
		}
		return nested.Set(elems...), nil
	}
	return nested.Value{}, fmt.Errorf("unknown aggregate function %q", spec.Func)
}

// ---- dataset types ----

// topLevelSchema returns the top-level attribute names of a dataset's rows,
// those of every distinct row shape in first-seen order; empty datasets
// yield nil. The engine reads them off datasetType.
func topLevelSchema(d *Dataset) []string {
	var names []string
	seen := make(map[*nested.Shape]bool)
	for _, part := range d.Partitions {
		for i := range part {
			if s := part[i].Value.Shape(); s != nil && !seen[s] {
				seen[s] = true
				for _, n := range s.Names() {
					if !slices.Contains(names, n) {
						names = append(names, n)
					}
				}
			}
		}
	}
	return names
}

// refTypeOf is the reference for merging vals one by one into the zero
// nested.Type: it decides the kind from the set of kinds among vals, where
// the merge folds them in order. One kind is itself, int with double is
// double, more are unknown (null), and none is null if a null is among them.
// The attributes are those of every item in first-seen order, each the
// reference type of its values; a collection's element type is that of all
// the collections' elements.
func refTypeOf(vals []nested.Value) nested.Type {
	var t nested.Type
	kinds := map[nested.Kind]bool{}
	var elems []nested.Value
	byName := map[string][]nested.Value{}
	for _, v := range vals {
		switch k := v.Kind(); k {
		case nested.KindNull, nested.KindInvalid:
			if t.Kind == nested.KindInvalid {
				t.Kind = k
			}
			continue
		case nested.KindItem:
			for i := range v.NumFields() {
				name := v.FieldName(i)
				if _, ok := byName[name]; !ok {
					t.Fields = append(t.Fields, nested.FieldType{Name: name})
				}
				byName[name] = append(byName[name], v.FieldValue(i))
			}
		case nested.KindBag, nested.KindSet:
			elems = append(elems, v.Elems()...)
		}
		kinds[v.Kind()] = true
	}
	switch {
	case len(kinds) == 1:
		for k := range kinds {
			t.Kind = k
		}
	case len(kinds) == 2 && kinds[nested.KindInt] && kinds[nested.KindDouble]:
		t.Kind = nested.KindDouble
	case len(kinds) > 1:
		t.Kind = nested.KindNull
	}
	for i, f := range t.Fields {
		t.Fields[i].Type = refTypeOf(byName[f.Name])
	}
	if t.Kind.IsCollection() && len(elems) > 0 {
		elem := refTypeOf(elems)
		t.Elem = &elem
	}
	return t
}

// refDatasetType is refTypeOf over the values p reads off d's rows, null
// where it reads none; ok is false when d has no rows.
func refDatasetType(d *Dataset, p path.Path) (nested.Type, bool) {
	var vals []nested.Value
	for _, part := range d.Partitions {
		for _, r := range part {
			v, ok := p.Eval(r.Value)
			if !ok {
				v = nested.Null()
			}
			vals = append(vals, v)
		}
	}
	return refTypeOf(vals), len(vals) > 0
}

// sameType reports whether two types agree in kind, in attribute names and
// types (the names a conflict kept too), and in element types.
func sameType(a, b nested.Type) bool {
	if a.Kind != b.Kind || len(a.Fields) != len(b.Fields) || (a.Elem == nil) != (b.Elem == nil) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i].Name != b.Fields[i].Name || !sameType(a.Fields[i].Type, b.Fields[i].Type) {
			return false
		}
	}
	return a.Elem == nil || sameType(*a.Elem, *b.Elem)
}

// ---- differential harness ----

// refSizes straddle the 256-row accumulation chunk.
var refSizes = []int{0, 1, batchSize - 1, batchSize, batchSize + 1}

// renderPending renders rows, association ids and the error of one reference
// body, and renderOut those of one kernel, so that the two agree iff the
// strings are equal.
func renderPending(out []pending, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	for _, p := range out {
		fmt.Fprintf(&sb, "%s <- %d,%d %v\n", p.value, p.in1, p.in2, p.inIDs)
	}
	return sb.String()
}

func renderOut(out morselOut, err error) string {
	prs := make([]pending, len(out.rows))
	for i, r := range out.rows {
		prs[i].value = r.Value
		if out.In != nil {
			prs[i].in1 = out.In[i]
		}
		if out.Right != nil {
			prs[i].in2 = out.Right[i]
		}
		if out.Lists != nil {
			prs[i].inIDs = out.Lists[i]
		}
	}
	return renderPending(prs, err)
}

// shuffleOne runs the real shuffle map and merge phases into one bucket, so
// the bodies under test see exactly the keyed rows production feeds them
// (null keys dropped unless keepNull, hashes cached, partition-major order).
func shuffleOne(t *testing.T, values []nested.Value, firstID int64, sk shuffleKey, keepNull bool) []keyedRow {
	t.Helper()
	ds := NewDataset("in", values, 3, NewIDGen(firstID))
	e := &executor{ctx: context.Background()}
	buckets, _, err := e.shuffle(ds, 1, sk, 1, keepNull)
	if err != nil {
		t.Fatal(err)
	}
	return buckets[0]
}

// evalRef is the shuffle key of one row, evaluated on its own: the row
// itself, an item of the grouping paths' values, or the key expression.
func (k shuffleKey) evalRef(row nested.Value) (nested.Value, error) {
	switch {
	case k.identity:
		return row, nil
	case k.expr != nil:
		return k.expr.Eval(row)
	}
	vals := make([]nested.Value, len(k.groupBy))
	for gi, g := range k.groupBy {
		vals[gi], _ = ColPath(g.Path).Eval(row)
	}
	return k.shape.Item(vals...), nil
}

// shuffleRef is the two-phase shuffle that shipped until rows were written to
// their bucket once: the map phase appends each kept row, keyed, to
// append-grown per-partition bucket runs, and the merge concatenates the runs
// of every bucket partition by partition. It evaluates the keys row by row
// (evalRef). The reference executor shuffles through it.
func (e *executor) shuffleRef(d *Dataset, oid int, sk shuffleKey, buckets int, keepNull bool) ([][]keyedRow, error) {
	keyOps := sk.evalOps()
	perPart := make([][][]keyedRow, len(d.Partitions))
	starts := make([]int, len(d.Partitions))
	n := 0
	for i, p := range d.Partitions {
		starts[i] = n
		n += len(p)
	}
	err := e.forEachPartition(len(d.Partitions), func(part int) error {
		local := make([][]keyedRow, buckets)
		hashed := 0
		rows := d.Partitions[part]
		for i, r := range rows {
			k, err := sk.evalRef(r.Value)
			if err != nil {
				return err
			}
			if k.IsNull() && !keepNull {
				continue
			}
			h := valueHash(k)
			hashed++
			b := int(h % uint64(buckets))
			local[b] = append(local[b], keyedRow{row: r, key: k, hash: h, seq: starts[part] + i})
		}
		perPart[part] = local
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(rows))
			rec.Add(oid, part, obs.RowsIn, n)
			rec.Add(oid, part, obs.KeysHashed, int64(hashed))
			rec.Add(oid, part, obs.ExprEvals, n*int64(keyOps))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]keyedRow, buckets)
	err = e.forEachPartition(buckets, func(b int) error {
		total := 0
		for _, local := range perPart {
			total += len(local[b])
		}
		if total == 0 {
			return nil
		}
		merged := make([]keyedRow, 0, total)
		for _, local := range perPart {
			merged = append(merged, local[b]...)
		}
		out[b] = merged
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TestShuffleMatchesReference: the shuffle fills every bucket with the rows,
// keys, hashes and sequence numbers of the two-phase reference, in the same
// order, and marks -1 exactly the rows the reference drops — at 1, 3 and 16
// buckets, keeping null keys and not, over an empty partition, a partition of
// only null keys, and with hashes forced to collide between distinct keys.
func TestShuffleMatchesReference(t *testing.T) {
	mixed := make([]nested.Value, 300)
	for i := range mixed {
		switch {
		case i%7 == 3:
			mixed[i] = nested.Null()
		case i%5 == 0:
			mixed[i] = nested.StringVal(fmt.Sprint("s", i%11))
		default:
			mixed[i] = nested.Int(int64(i % 23))
		}
	}
	var parts [][]Row
	id := int64(1)
	for _, keys := range [][]nested.Value{mixed, {}, {nested.Null(), nested.Null(), nested.Null()}, mixed[:100]} {
		rows := make([]Row, len(keys))
		for i, k := range keys {
			rows[i] = Row{ID: id, Value: nested.Item(nested.F("k", k), nested.F("id", nested.Int(id)))}
			id++
		}
		parts = append(parts, rows)
	}
	ds := &Dataset{Partitions: parts}
	orig := valueHash
	defer func() { valueHash = orig }()
	for _, collide := range []bool{false, true} {
		valueHash = orig
		if collide {
			valueHash = func(v nested.Value) uint64 { return orig(v) % 4 }
		}
		for _, sk := range []struct {
			name string
			key  shuffleKey
		}{{"column", exprShuffleKey(Col("k"))}, {"group", groupShuffleKey([]GroupKey{Key("k")})}} {
			for _, buckets := range []int{1, 3, 16} {
				for _, keepNull := range []bool{false, true} {
					t.Run(fmt.Sprintf("collide=%v/%s/buckets=%d/keepNull=%v", collide, sk.name, buckets, keepNull), func(t *testing.T) {
						ref := &executor{ctx: context.Background()}
						want, err := ref.shuffleRef(ds, 1, sk.key, buckets, keepNull)
						if err != nil {
							t.Fatal(err)
						}
						e := &executor{ctx: context.Background(), pool: newWorkerPool(2)}
						defer e.pool.close()
						got, marks, err := e.shuffle(ds, 1, sk.key, buckets, keepNull)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != buckets || len(want) != buckets {
							t.Fatalf("%d buckets, reference %d, want %d", len(got), len(want), buckets)
						}
						for b := range got {
							if len(got[b]) != len(want[b]) {
								t.Fatalf("bucket %d: %d rows, reference %d", b, len(got[b]), len(want[b]))
							}
							for i, g := range got[b] {
								w := want[b][i]
								if g.row.ID != w.row.ID || !nested.Equal(g.row.Value, w.row.Value) || g.key.Kind() != w.key.Kind() ||
									!nested.Equal(g.key, w.key) || g.hash != w.hash || g.seq != w.seq {
									t.Fatalf("bucket %d row %d: got {%d %s %s %x %d}, reference {%d %s %s %x %d}", b, i,
										g.row.ID, g.row.Value, g.key, g.hash, g.seq, w.row.ID, w.row.Value, w.key, w.hash, w.seq)
								}
							}
						}
						for p, rows := range parts {
							for i, r := range rows {
								k, _ := r.Value.Get("k")
								dropped := sk.name == "column" && k.IsNull() && !keepNull
								if m := marks[p][i]; (m < 0) != dropped || m >= int32(buckets) {
									t.Fatalf("partition %d row %d (key %s): mark %d", p, i, k, m)
								}
							}
						}
					})
				}
			}
		}
	}
}

// joinSide builds n rows for one join input: key attribute kName cycling
// through n/3+1 distinct values (so keys repeat and chains grow), every
// seventh key null, plus one payload attribute. mutate may replace a row.
func joinSide(n int, kName, payload string, mutate func(i int, v nested.Value) nested.Value) []nested.Value {
	rows := make([]nested.Value, n)
	for i := range rows {
		k := nested.Int(int64(i % (n/3 + 1)))
		if i%7 == 6 {
			k = nested.Null()
		}
		rows[i] = nested.Item(nested.F(kName, k), nested.F(payload, nested.Int(int64(i))))
		if mutate != nil {
			rows[i] = mutate(i, rows[i])
		}
	}
	return rows
}

type joinShape struct {
	name      string
	leftOuter bool
	// rKey/rPayload name the right side's attributes; a name shared with
	// the left side ("lk", "lv") is the clashing-attribute shape.
	rKey, rPayload string
	// mutL/mutR replace rows of a side; shapes that set one join on constKey.
	mutL, mutR func(i int, v nested.Value) nested.Value
	wantErr    string // substring; "" means the shape must succeed
}

// keys returns the shape's join key expressions.
func (sh joinShape) keys() (Expr, Expr) {
	if sh.mutL != nil || sh.mutR != nil {
		return constKey{}, constKey{}
	}
	return Col("lk"), Col(sh.rKey)
}

// nonItemAt replaces row i with a bare string: a non-item row, which only a
// hand-built dataset can hold. A bare value has no attributes to read a key
// from, so the shapes using it join on constKey.
func nonItemAt(at int) func(int, nested.Value) nested.Value {
	return func(i int, v nested.Value) nested.Value {
		if i == at {
			return nested.StringVal("bare")
		}
		return v
	}
}

// constKey is a computed join key that gives every row — item or not — the
// same key, so every probe row matches every build row.
type constKey struct{}

func (constKey) Eval(nested.Value) (nested.Value, error) { return nested.Int(7), nil }
func (constKey) Paths() []path.Path                      { return nil }
func (constKey) String() string                          { return "const-key" }

func joinShapes() []joinShape {
	return []joinShape{
		{name: "inner", rKey: "rk", rPayload: "rv"},
		{name: "left-outer", leftOuter: true, rKey: "rk", rPayload: "rv"},
		{name: "clash-payload", rKey: "rk", rPayload: "lv", wantErr: `attribute "lv" exists on both sides`},
		{name: "clash-key", rKey: "lk", rPayload: "rv", wantErr: `attribute "lk" exists on both sides`},
		{name: "left-outer-clash", leftOuter: true, rKey: "rk", rPayload: "lv", wantErr: `attribute "lv" exists on both sides`},
		{name: "left-non-item", rKey: "rk", rPayload: "rv", mutL: nonItemAt(0), wantErr: "got string and item"},
		{name: "right-non-item", rKey: "rk", rPayload: "rv", mutR: nonItemAt(0), wantErr: "got item and string"},
	}
}

// joinBucket joins one shuffle bucket as execJoin does — pass 1, then pass 2
// of every chunk — with the probe rows cut at maxMatches matches.
func joinBucket(lrows, rrows []keyedRow, leftOuter bool, rightSchema *nested.Shape, capture bool, maxMatches int) (morselOut, error) {
	b := planJoinBucket(lrows, rrows, leftOuter, rightSchema, capture, maxMatches)
	return emitChunks(&b)
}

// emitChunks runs pass 2 of every chunk of b. It runs them last to first, so
// that a chunk reading what an earlier one wrote would show, and reports the
// first error by chunk index, as forEachPartition does.
func emitChunks(b *bucketJoin) (morselOut, error) {
	var first error
	for c := b.chunks() - 1; c >= 0; c-- {
		if err := b.emit(c); err != nil {
			first = err
		}
	}
	return b.out, first
}

func TestJoinBucketMatchesReference(t *testing.T) {
	for _, sh := range joinShapes() {
		for _, nl := range refSizes {
			for _, nr := range refSizes {
				for _, maxMatches := range []int{joinChunkMatches, 1} {
					name := fmt.Sprintf("%s/l=%d/r=%d", sh.name, nl, nr)
					if maxMatches != joinChunkMatches {
						name += fmt.Sprintf("/cut=%d", maxMatches)
					}
					t.Run(name, func(t *testing.T) {
						lvals := joinSide(nl, "lk", "lv", sh.mutL)
						rvals := joinSide(nr, sh.rKey, sh.rPayload, sh.mutR)
						lKey, rKey := sh.keys()
						lrows := shuffleOne(t, lvals, 1, exprShuffleKey(lKey), false)
						rrows := shuffleOne(t, rvals, 100000, exprShuffleKey(rKey), false)
						schema := []string{sh.rKey, sh.rPayload}
						got := renderOut(joinBucket(lrows, rrows, sh.leftOuter, nested.NewShape(schema...), true, maxMatches))
						want := renderPending(joinBucketRef(lrows, rrows, sh.leftOuter, schema))
						if got != want {
							t.Fatalf("kernel and reference disagree:\nkernel:    %s\nreference: %s", head(got), head(want))
						}
						if sh.wantErr != "" && nl > 0 && (nr > 0 || sh.leftOuter) && !strings.Contains(got, sh.wantErr) {
							t.Fatalf("want error containing %q, got %s", sh.wantErr, head(got))
						}
					})
				}
			}
		}
	}
}

// TestJoinBucketSplitsHotKey joins a bucket whose hot key has 100 build rows
// and 200 probe rows, 20 000 matches, beside cold keys, some of whose build
// rows match nothing: at joinChunkMatches the probe rows fall into two chunks
// (the first ends at probe row 198), at 1 into one per probe row. Rows, ids
// and the error — a non-item or clashing probe row past the first cut, an
// unmatched non-item build row in the left outer tail — must be the
// nested-loop reference's, and the matches of every chunk share one shape.
func TestJoinBucketSplitsHotKey(t *testing.T) {
	const hot, past = 7, 230
	side := func(n int, firstID int64, kName, payload string, keyOf func(i int) int64, mut map[int]nested.Value) []keyedRow {
		rows, shape := make([]keyedRow, n), nested.NewShape(kName, payload)
		for i := range rows {
			k := nested.Int(keyOf(i))
			v := shape.Item(k, nested.Int(int64(i)))
			if m, ok := mut[i]; ok {
				v = m
			}
			rows[i] = keyedRow{row: Row{ID: firstID + int64(i), Value: v}, key: k, hash: valueHash(k), seq: i}
		}
		return rows
	}
	// 300 build rows: a third on the hot key, a third on a key of their own
	// that no probe row has, a third on one of ten cold keys. 250 probe rows:
	// every fifth on a cold key (4 or 9, ten build rows each), the others hot.
	lkey := func(i int) int64 {
		switch i % 3 {
		case 1:
			return hot
		case 2:
			return 1000 + int64(i)
		}
		return int64(i % 10)
	}
	rkey := func(i int) int64 {
		if i%5 == 4 {
			return int64(i % 10)
		}
		return hot
	}
	bare := nested.StringVal("bare")
	clash := nested.Item(nested.F("rk", nested.Int(hot)), nested.F("lv", nested.Int(0)))
	cases := []struct {
		name       string
		leftOuter  bool
		mutL, mutR map[int]nested.Value
		wantErr    string
	}{
		{name: "inner"},
		{name: "left-outer", leftOuter: true},
		{name: "probe-non-item", mutR: map[int]nested.Value{past: bare}, wantErr: "got item and string"},
		{name: "probe-clash", mutR: map[int]nested.Value{past: clash}, wantErr: `attribute "lv" exists on both sides`},
		{name: "left-outer-probe-clash", leftOuter: true, mutR: map[int]nested.Value{past: clash}, wantErr: `attribute "lv" exists on both sides`},
		{name: "left-outer-unmatched-non-item", leftOuter: true, mutL: map[int]nested.Value{5: bare}, wantErr: "must be data items, got string"},
		{name: "left-outer-match-error-first", leftOuter: true, mutL: map[int]nested.Value{5: bare}, mutR: map[int]nested.Value{past: clash}, wantErr: `attribute "lv" exists on both sides`},
	}
	for _, tc := range cases {
		lrows := side(300, 1, "lk", "lv", lkey, tc.mutL)
		rrows := side(250, 100000, "rk", "rv", rkey, tc.mutR)
		want := renderPending(joinBucketRef(lrows, rrows, tc.leftOuter, []string{"rk", "rv"}))
		for _, maxMatches := range []int{1, 1000, joinChunkMatches} {
			t.Run(fmt.Sprintf("%s/cut=%d", tc.name, maxMatches), func(t *testing.T) {
				if b := planJoinBucket(lrows, rrows, tc.leftOuter, nested.NewShape("rk", "rv"), false, maxMatches); len(b.cut) == 0 || b.cut[0].hi > past {
					t.Fatalf("chunks %v, %v: the hot key no longer spans several, or row %d is in the first", b.cut, b.last, past)
				}
				out, err := joinBucket(lrows, rrows, tc.leftOuter, nested.NewShape("rk", "rv"), true, maxMatches)
				if got := renderOut(out, err); got != want {
					t.Fatalf("kernel and reference disagree:\nkernel:    %s\nreference: %s", head(got), head(want))
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) || tc.wantErr == "" && err != nil {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				for i, r := range out.rows {
					if err == nil && out.Right[i] >= 0 && r.Value.Shape() != out.rows[0].Value.Shape() {
						t.Fatalf("match %d does not share the shape of match 0: the chunks derive their own", i)
					}
				}
			})
		}
	}
}

// TestJoinBucketNonItemRows feeds buckets whose keyed rows are not data
// items (only hand-built datasets can produce them; the key is supplied
// directly since a bare value has no attributes to read one from). The error
// must name both kinds in ⟨left, right⟩ order, like the reference.
func TestJoinBucketNonItemRows(t *testing.T) {
	key := nested.Int(7)
	kr := func(id int64, v nested.Value, seq int) keyedRow {
		return keyedRow{row: Row{ID: id, Value: v}, key: key, hash: valueHash(key), seq: seq}
	}
	item := func(name string) nested.Value { return nested.Item(nested.F(name, nested.Int(1))) }
	bare := nested.StringVal("bare")
	cases := []struct {
		name         string
		lrows, rrows []keyedRow
		leftOuter    bool
		want         string
	}{
		{"left-non-item", []keyedRow{kr(1, bare, 0)}, []keyedRow{kr(2, item("r"), 0)}, false, "got string and item"},
		{"right-non-item", []keyedRow{kr(1, item("l"), 0)}, []keyedRow{kr(2, bare, 0)}, false, "got item and string"},
		{"second-match-non-item", []keyedRow{kr(1, item("l"), 0), kr(2, bare, 1)}, []keyedRow{kr(3, item("r"), 0)}, false, "got string and item"},
		{"clash-before-non-item", []keyedRow{kr(1, item("a"), 0)}, []keyedRow{kr(2, item("a"), 0), kr(3, bare, 1)}, false, `attribute "a" exists`},
		{"unmatched-non-item", []keyedRow{{row: Row{ID: 1, Value: bare}, key: nested.Int(8), hash: valueHash(nested.Int(8))}}, []keyedRow{kr(2, item("r"), 0)}, true, "must be data items, got string"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := renderOut(joinBucket(tc.lrows, tc.rrows, tc.leftOuter, nested.NewShape("r"), true, joinChunkMatches))
			want := renderPending(joinBucketRef(tc.lrows, tc.rrows, tc.leftOuter, []string{"r"}))
			if got != want {
				t.Fatalf("kernel and reference disagree:\nkernel:    %s\nreference: %s", got, want)
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("want error containing %q, got %s", tc.want, got)
			}
		})
	}
}

// TestBroadcastProbeMatchesReference: pass 1 and 2 of every broadcast probe
// partition equal the row-at-a-time probe, built on either side.
func TestBroadcastProbeMatchesReference(t *testing.T) {
	for _, sh := range joinShapes() {
		if sh.leftOuter {
			continue // left outer joins never broadcast
		}
		for _, buildLeft := range []bool{true, false} {
			for _, nb := range refSizes {
				for _, np := range refSizes {
					t.Run(fmt.Sprintf("%s/buildLeft=%v/build=%d/probe=%d", sh.name, buildLeft, nb, np), func(t *testing.T) {
						nl, nr := nb, np
						if !buildLeft {
							nl, nr = np, nb
						}
						left := NewDataset("l", joinSide(nl, "lk", "lv", sh.mutL), 3, NewIDGen(1))
						right := NewDataset("r", joinSide(nr, sh.rKey, sh.rPayload, sh.mutR), 3, NewIDGen(100000))
						buildDS, probeDS := left, right
						buildKey, probeKey := sh.keys()
						if !buildLeft {
							buildDS, probeDS = right, left
							buildKey, probeKey = probeKey, buildKey
						}
						tab := newKeyTable(buildDS.Len())
						buildRows, err := broadcastBuild(tab, exprShuffleKey(buildKey), buildDS)
						if err != nil {
							t.Fatal(err)
						}
						refBuild, err := broadcastBuildRef(buildKey, buildDS)
						if err != nil {
							t.Fatal(err)
						}
						sawErr := false
						for _, rows := range probeDS.Partitions {
							keys, err := exprShuffleKey(probeKey).evalMorsel(rows)
							if err != nil {
								t.Fatal(err)
							}
							b := planBroadcastProbe(tab, buildRows, rows, keys, buildLeft, true, joinChunkMatches)
							out, err := emitChunks(&b)
							refOut, refHashed, refErr := broadcastProbeRef(probeKey, refBuild, rows, buildLeft)
							got, want := renderOut(out, err), renderPending(refOut, refErr)
							if got != want {
								t.Fatalf("kernel and reference disagree:\nkernel:    %s\nreference: %s", head(got), head(want))
							}
							if hashed := len(b.probe); err == nil && hashed != refHashed {
								t.Fatalf("probe hashed %d keys, reference %d", hashed, refHashed)
							}
							sawErr = sawErr || err != nil
						}
						if sh.wantErr != "" && nb > 0 && np > 0 && !sawErr {
							t.Fatalf("no probe partition reported %q", sh.wantErr)
						}
					})
				}
			}
		}
	}
}

// aggValues builds n rows for the aggregate buckets: two group attributes
// (one sometimes null, so null groups form), an int column with nulls and
// absences, a column mixing ints and doubles (including NaN and -0.0), a
// string column, and a column that is numeric except for one string at row
// badAt (non-numeric sum; -1 keeps it clean).
func aggValues(n, badAt int) []nested.Value {
	rows := make([]nested.Value, n)
	for i := range rows {
		fields := []nested.Field{
			nested.F("g", nested.StringVal([]string{"a", "b", "c"}[i%3])),
			nested.F("id", nested.Int(int64(i))),
		}
		if i%5 != 4 {
			fields = append(fields, nested.F("h", nested.Int(int64(i%2))))
		}
		switch i % 4 {
		case 0:
			fields = append(fields, nested.F("iv", nested.Int(int64(i%13))))
		case 1:
			fields = append(fields, nested.F("iv", nested.Null()))
		case 2:
			fields = append(fields, nested.F("iv", nested.Int(int64(-i))))
		}
		mixed := nested.Int(int64(i % 11))
		switch i % 6 {
		case 1:
			mixed = nested.Double(float64(i) / 4)
		case 3:
			mixed = nested.Double(math.Copysign(0, -1))
		case 5:
			mixed = nested.Null()
		}
		if i == 17 {
			mixed = nested.Double(math.NaN())
		}
		fields = append(fields, nested.F("mixed", mixed), nested.F("s", nested.StringVal(fmt.Sprintf("s%d", i%4))))
		maybe := nested.Int(int64(i))
		if i == badAt {
			maybe = nested.StringVal("oops")
		}
		fields = append(fields, nested.F("maybe", maybe))
		rows[i] = nested.Item(fields...)
	}
	return rows
}

func TestAggBucketMatchesReference(t *testing.T) {
	allFuncs := []AggSpec{
		Agg(AggCount, "", "n"),
		Agg(AggCount, "iv", "n_iv"),
		Agg(AggSum, "iv", "sum_iv"),
		Agg(AggSum, "mixed", "sum_mixed"),
		Agg(AggAvg, "mixed", "avg_mixed"),
		Agg(AggAvg, "absent", "avg_absent"),
		Agg(AggMax, "mixed", "max_mixed"),
		Agg(AggMin, "s", "min_s"),
		Agg(AggCollectList, "iv", "list_iv"),
		Agg(AggCollectSet, "s", "set_s"),
		Agg(AggSum, "iv", "sum_iv_again"), // two specs sharing an input path
	}
	cases := []struct {
		name    string
		groupBy []GroupKey
		aggs    []AggSpec
		badAt   int
		wantErr string
	}{
		{"all-funcs", []GroupKey{Key("g")}, allFuncs, -1, ""},
		{"multi-key", []GroupKey{Key("g"), Key("h")}, allFuncs, -1, ""},
		{"no-keys", nil, allFuncs, -1, ""},
		{"non-numeric-sum", []GroupKey{Key("g")}, []AggSpec{Agg(AggCount, "", "n"), Agg(AggSum, "maybe", "total")}, 0, "aggregate sum over non-numeric string"},
		{"non-numeric-avg-late-group", []GroupKey{Key("g")}, []AggSpec{Agg(AggAvg, "maybe", "mean")}, 2, "aggregate avg over non-numeric string"},
		{"sum-over-strings", []GroupKey{Key("g")}, []AggSpec{Agg(AggSum, "s", "total")}, -1, "aggregate sum over non-numeric string"},
		{"missing-input-path", []GroupKey{Key("g")}, []AggSpec{Agg(AggCount, "", "n"), Agg(AggSum, "", "total")}, -1, "aggregate sum needs an input path"},
		{"unknown-function", []GroupKey{Key("g")}, []AggSpec{{Func: AggFunc("median"), In: path.MustParse("iv"), Out: "m"}}, -1, `unknown aggregate function "median"`},
		{"unknown-function-no-path", []GroupKey{Key("g")}, []AggSpec{{Func: AggFunc("median"), Out: "m"}}, -1, "aggregate median needs an input path"},
		// The static error sits in the second spec, the data error in the
		// first: the first group decides, so the data error wins only if
		// that group holds the bad row.
		{"data-error-before-static", []GroupKey{Key("g")}, []AggSpec{Agg(AggSum, "maybe", "total"), Agg(AggMax, "", "m")}, 0, "aggregate sum over non-numeric string"},
		{"static-before-data-error", []GroupKey{Key("g")}, []AggSpec{Agg(AggSum, "maybe", "total"), Agg(AggMax, "", "m")}, 1, "aggregate max needs an input path"},
	}
	for _, tc := range cases {
		for _, n := range refSizes {
			for _, capture := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/capture=%v", tc.name, n, capture), func(t *testing.T) {
					o := &Op{groupBy: tc.groupBy, aggs: tc.aggs}
					bucket := shuffleOne(t, aggValues(n, tc.badAt), 1, groupShuffleKey(tc.groupBy), true)
					got := renderOut(aggBucket(o, groupShape(o.groupBy, o.aggs), bucket, capture))
					want := renderPending(aggBucketRef(o, bucket, capture))
					if got != want {
						t.Fatalf("kernel and reference disagree:\nkernel:    %s\nreference: %s", head(got), head(want))
					}
					if tc.wantErr != "" && n > tc.badAt && n > 0 && !strings.Contains(got, tc.wantErr) {
						t.Fatalf("want error containing %q, got %s", tc.wantErr, head(got))
					}
				})
			}
		}
	}
}

// TestJoinAggErrorShapesEndToEnd runs every error shape of the join and
// aggregate kernels through whole pipelines: the run must fail with the same
// message on one worker and on all of them, on both join paths.
func TestJoinAggErrorShapesEndToEnd(t *testing.T) {
	n := 2*batchSize + 5
	joinOf := func(rKey string, leftOuter bool) func() *Pipeline {
		return func() *Pipeline {
			p := NewPipeline()
			l, r := p.Source("l"), p.Source("r")
			if leftOuter {
				p.LeftJoin(l, r, Col("lk"), Col(rKey))
			} else {
				p.Join(l, r, Col("lk"), Col(rKey))
			}
			return p
		}
	}
	aggOf := func(specs ...AggSpec) func() *Pipeline {
		return func() *Pipeline {
			p := NewPipeline()
			p.Aggregate(p.Source("l"), []GroupKey{Key("g")}, specs)
			return p
		}
	}
	joinInputs := func(rKey, rPayload string) map[string][]nested.Value {
		return map[string][]nested.Value{"l": joinSide(n, "lk", "lv", nil), "r": joinSide(n, rKey, rPayload, nil)}
	}
	cases := []struct {
		name   string
		build  func() *Pipeline
		inputs map[string][]nested.Value
		want   string
	}{
		{"join-clash", joinOf("rk", false), joinInputs("rk", "lv"), `join: attribute "lv" exists on both sides; project inputs to disjoint names`},
		{"left-join-clash", joinOf("rk", true), joinInputs("rk", "lv"), `join: attribute "lv" exists on both sides; project inputs to disjoint names`},
		{"join-non-item", func() *Pipeline {
			p := NewPipeline()
			p.Join(p.Source("l"), p.Source("r"), constKey{}, constKey{})
			return p
		}, map[string][]nested.Value{"l": joinSide(40, "lk", "lv", nonItemAt(3)), "r": joinSide(40, "rk", "rv", nil)}, "join: inputs must be data items, got string and item"},
		{"non-numeric-sum", aggOf(Agg(AggSum, "maybe", "total")), map[string][]nested.Value{"l": aggValues(n, 40)}, "aggregate sum over non-numeric string"},
		{"non-numeric-avg", aggOf(Agg(AggCount, "", "n"), Agg(AggAvg, "s", "mean")), map[string][]nested.Value{"l": aggValues(n, -1)}, "aggregate avg over non-numeric string"},
		{"missing-input-path", aggOf(Agg(AggCollectList, "", "xs")), map[string][]nested.Value{"l": aggValues(n, -1)}, "aggregate collect_list needs an input path"},
		{"unknown-function", aggOf(AggSpec{Func: AggFunc("median"), In: path.MustParse("iv"), Out: "m"}), map[string][]nested.Value{"l": aggValues(n, -1)}, `unknown aggregate function "median"`},
	}
	for _, tc := range cases {
		for _, threshold := range []int{-1, 1 << 30} {
			t.Run(fmt.Sprintf("%s/threshold=%d", tc.name, threshold), func(t *testing.T) {
				var first string
				for _, workers := range []int{1, runtime.NumCPU()} {
					inputs := make(map[string]*Dataset, len(tc.inputs))
					for name, vals := range tc.inputs {
						inputs[name] = dataset(t, name, vals, 4)
					}
					_, err := Run(tc.build(), inputs, Options{
						Partitions: 4, Workers: workers, BroadcastJoinThreshold: threshold, Sink: newRecordingSink(),
					})
					// Run prefixes the failing operator; the body's text is the tail.
					if err == nil || !strings.HasSuffix(err.Error(), ": "+tc.want) {
						t.Fatalf("workers=%d: got error %v, want one ending in %q", workers, err, tc.want)
					}
					if first == "" {
						first = err.Error()
					} else if err.Error() != first {
						t.Fatalf("workers=%d reports %q, workers=1 reported %q", workers, err, first)
					}
				}
			})
		}
	}
}

// ---- the operator-at-a-time reference executor ----

// runReference executes the pipeline the way the engine did before stages:
// one operator at a time in plan order on one goroutine, every operator
// materialising its whole output as pending rows that finalizeRef copies
// into identified rows, join and aggregate through the row-at-a-time bodies
// above. Rows, ids, Stats[].Rows and every sink call of a run through
// RunContext must equal its.
func runReference(p *Pipeline, inputs map[string]*Dataset, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Partitions < 1 {
		opts.Partitions = DefaultPartitions
	}
	opts.Recorder = nil
	e := &refExecutor{executor{ctx: context.Background(), opts: opts, gen: NewIDGen(1), inputs: inputs, outputs: make([]*Dataset, len(p.Ops())+1)}}
	res := &Result{Sources: make(map[int]*Dataset)}
	for _, o := range p.Ops() {
		out, err := e.exec(o)
		if err != nil {
			return nil, fmt.Errorf("engine: operator %s: %w", o, err)
		}
		e.outputs[o.id] = out
		res.Stats = append(res.Stats, OpStats{OID: o.id, Type: o.typ, Rows: out.Len()})
		if o.typ == OpSource {
			res.Sources[o.id] = out
		}
	}
	res.Output = e.outputs[p.Sink().id]
	return res, nil
}

// refExecutor borrows the executor's state, its shuffle and its sequential
// forEachPartition; every operator body and the id assignment are its own.
type refExecutor struct{ executor }

func (e *refExecutor) exec(o *Op) (*Dataset, error) {
	switch o.typ {
	case OpSource:
		return e.execSource(o)
	case OpFilter, OpSelect, OpMap, OpFlatten:
		return e.execRowWise(o)
	case OpJoin:
		return e.execJoin(o)
	case OpUnion:
		return e.execUnion(o)
	case OpAggregate:
		return e.execAggregate(o)
	case OpDistinct:
		return e.execDistinct(o)
	case OpOrderBy:
		return e.execOrderBy(o)
	case OpLimit:
		return e.execLimit(o)
	}
	return nil, fmt.Errorf("unknown operator type %q", o.typ)
}

// finalizeRef assigns identifiers to the pending rows of every partition
// (partition-major) and emits the associations row by row, each a morsel of
// one row.
func (e *refExecutor) finalizeRef(o *Op, parts [][]pending) *Dataset {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	id := e.gen.Reserve(int64(total))
	partitions := make([][]Row, len(parts))
	for part, prs := range parts {
		rows := make([]Row, len(prs))
		for i, pr := range prs {
			rows[i] = Row{ID: id, Value: pr.value}
			if e.opts.Sink != nil {
				var a Assocs
				switch o.typ {
				case OpJoin, OpUnion:
					a.In, a.Right = []int64{pr.in1}, []int64{pr.in2}
				case OpFlatten:
					a.In, a.Pos = []int64{pr.in1}, []int64{int64(pr.pos)}
				case OpAggregate, OpDistinct:
					a.Lists = [][]int64{pr.inIDs}
				default:
					a.In = []int64{pr.in1}
				}
				e.opts.Sink.Morsel(o.id, part, id, 1, a)
			}
			id++
		}
		partitions[part] = rows
	}
	return &Dataset{Partitions: partitions}
}

func (e *refExecutor) execSource(o *Op) (*Dataset, error) {
	src, ok := e.inputs[o.sourceName]
	if !ok {
		return nil, fmt.Errorf("no input dataset named %q", o.sourceName)
	}
	// Deal the rows round-robin over the logical partitions, then annotate.
	in := &Dataset{Partitions: make([][]Row, e.opts.Partitions)}
	for i, r := range src.Rows() {
		in.Partitions[i%e.opts.Partitions] = append(in.Partitions[i%e.opts.Partitions], r)
	}
	e.startOperator(o, len(in.Partitions))
	id := e.gen.Reserve(int64(in.Len()))
	out := &Dataset{Name: o.sourceName, Partitions: make([][]Row, len(in.Partitions))}
	for part, rows := range in.Partitions {
		out.Partitions[part] = make([]Row, len(rows))
		for i, r := range rows {
			out.Partitions[part][i] = Row{ID: id, Value: r.Value}
			if e.opts.Sink != nil {
				e.opts.Sink.Morsel(o.id, part, id, 1, Assocs{In: []int64{r.ID}})
			}
			id++
		}
	}
	return out, nil
}

// execRowWise is filter, select, map and flatten, each row by row over the
// materialised output of the operator before it.
func (e *refExecutor) execRowWise(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, len(in.Partitions))
	parts := make([][]pending, len(in.Partitions))
	for part, rows := range in.Partitions {
		for _, r := range rows {
			switch o.typ {
			case OpFilter:
				v, err := o.pred.Eval(r.Value)
				if err != nil {
					return nil, err
				}
				keep, ok := v.AsBool()
				if !ok {
					return nil, fmt.Errorf("filter predicate %s returned non-boolean %s", o.pred, v)
				}
				if keep {
					parts[part] = append(parts[part], pending{value: r.Value, in1: r.ID})
				}
			case OpSelect:
				item, err := evalSelectRef(o.fields, r.Value)
				if err != nil {
					return nil, err
				}
				parts[part] = append(parts[part], pending{value: item, in1: r.ID})
			case OpMap:
				v, err := o.mapFn.Fn(r.Value)
				if err != nil {
					return nil, fmt.Errorf("map %s: %w", o.mapFn.Name, err)
				}
				if v.Kind() != nested.KindItem {
					return nil, fmt.Errorf("map %s returned %s, want a data item (τ(λ(i)) ⇒ ⟨...⟩)", o.mapFn.Name, v.Kind())
				}
				parts[part] = append(parts[part], pending{value: v, in1: r.ID})
			case OpFlatten:
				c, ok := o.flattenCol.Eval(r.Value)
				if !ok || c.IsNull() {
					continue
				}
				if !c.Kind().IsCollection() {
					return nil, fmt.Errorf("flatten: %s is %s, want bag or set", o.flattenCol, c.Kind())
				}
				for idx, elem := range c.Elems() {
					parts[part] = append(parts[part], pending{value: r.Value.WithField(o.flattenNew, elem), in1: r.ID, pos: idx + 1})
				}
			}
		}
	}
	return e.finalizeRef(o, parts), nil
}

// evalSelectRef builds a select's output item one field list per row.
func evalSelectRef(fields []SelectField, d nested.Value) (nested.Value, error) {
	out := make([]nested.Field, len(fields))
	for i, f := range fields {
		var v nested.Value
		var err error
		switch {
		case len(f.Col) > 0:
			var ok bool
			if v, ok = f.Col.Eval(d); !ok {
				v = nested.Null()
			}
		case len(f.Struct) > 0:
			v, err = evalSelectRef(f.Struct, d)
		case f.Expr != nil:
			v, err = f.Expr.Eval(d)
		default:
			err = fmt.Errorf("select field %q has no column, struct, or expression", f.Name)
		}
		if err != nil {
			return nested.Value{}, err
		}
		out[i] = nested.F(f.Name, v)
	}
	return nested.Item(out...), nil
}

func (e *refExecutor) execUnion(o *Op) (*Dataset, error) {
	left, right := e.in(o, 0), e.in(o, 1)
	lt, lok := refDatasetType(left, nil)
	rt, rok := refDatasetType(right, nil)
	if lok && rok && !nested.Compatible(lt, rt) {
		return nil, fmt.Errorf("union: incompatible input types %s and %s", lt, rt)
	}
	e.startOperator(o, len(left.Partitions)+len(right.Partitions), lt, rt)
	var parts [][]pending
	for _, rows := range left.Partitions {
		out := []pending{}
		for _, r := range rows {
			out = append(out, pending{value: r.Value, in1: r.ID, in2: -1})
		}
		parts = append(parts, out)
	}
	for _, rows := range right.Partitions {
		out := []pending{}
		for _, r := range rows {
			out = append(out, pending{value: r.Value, in1: -1, in2: r.ID})
		}
		parts = append(parts, out)
	}
	return e.finalizeRef(o, parts), nil
}

func (e *refExecutor) execJoin(o *Op) (*Dataset, error) {
	left, right := e.in(o, 0), e.in(o, 1)
	threshold := e.opts.BroadcastJoinThreshold
	if threshold == 0 {
		threshold = defaultBroadcastThreshold
	}
	if !o.leftOuter && threshold > 0 && (left.Len() <= threshold || right.Len() <= threshold) {
		return e.execBroadcastJoin(o, left, right)
	}
	nParts := e.opts.Partitions
	if o.leftOuter {
		nParts += len(left.Partitions)
	}
	lt, _ := refDatasetType(left, nil)
	rt, _ := refDatasetType(right, nil)
	e.startOperator(o, nParts, lt, rt)
	lb, err := e.shuffleRef(left, o.id, exprShuffleKey(o.leftKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	rb, err := e.shuffleRef(right, o.id, exprShuffleKey(o.rightKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	parts := make([][]pending, nParts)
	for part := 0; part < e.opts.Partitions; part++ {
		if parts[part], err = joinBucketRef(lb[part], rb[part], o.leftOuter, topLevelSchema(right)); err != nil {
			return nil, err
		}
	}
	for part := 0; o.leftOuter && part < len(left.Partitions); part++ {
		for _, r := range left.Partitions[part] {
			k, err := o.leftKey.Eval(r.Value)
			if err != nil {
				return nil, err
			}
			if !k.IsNull() {
				continue
			}
			item, err := concatWithNullsRef(r.Value, topLevelSchema(right))
			if err != nil {
				return nil, err
			}
			parts[e.opts.Partitions+part] = append(parts[e.opts.Partitions+part], pending{value: item, in1: r.ID, in2: -1})
		}
	}
	return e.finalizeRef(o, parts), nil
}

func (e *refExecutor) execBroadcastJoin(o *Op, left, right *Dataset) (*Dataset, error) {
	buildLeft := left.Len() <= right.Len()
	buildDS, probeDS := left, right
	buildKey, probeKey := o.leftKey, o.rightKey
	if !buildLeft {
		buildDS, probeDS = right, left
		buildKey, probeKey = o.rightKey, o.leftKey
	}
	lt, _ := refDatasetType(left, nil)
	rt, _ := refDatasetType(right, nil)
	e.startOperator(o, len(probeDS.Partitions), lt, rt)
	build, err := broadcastBuildRef(buildKey, buildDS)
	if err != nil {
		return nil, err
	}
	parts := make([][]pending, len(probeDS.Partitions))
	for part, rows := range probeDS.Partitions {
		if parts[part], _, err = broadcastProbeRef(probeKey, build, rows, buildLeft); err != nil {
			return nil, err
		}
	}
	return e.finalizeRef(o, parts), nil
}

func (e *refExecutor) execAggregate(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	keyTypes := make([]nested.Type, len(o.groupBy))
	for i, g := range o.groupBy {
		keyTypes[i], _ = refDatasetType(in, g.Path.SchemaLevel())
	}
	e.startOperator(o, e.opts.Partitions, keyTypes...)
	buckets, err := e.shuffleRef(in, o.id, groupShuffleKey(o.groupBy), e.opts.Partitions, true)
	if err != nil {
		return nil, err
	}
	parts := make([][]pending, e.opts.Partitions)
	for part := range parts {
		if parts[part], err = aggBucketRef(o, buckets[part], e.opts.Sink != nil); err != nil {
			return nil, err
		}
	}
	return e.finalizeRef(o, parts), nil
}

func (e *refExecutor) execDistinct(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions)
	buckets, err := e.shuffleRef(in, o.id, identityShuffleKey(), e.opts.Partitions, true)
	if err != nil {
		return nil, err
	}
	parts := make([][]pending, e.opts.Partitions)
	for part, bucket := range buckets {
		type entry struct {
			pr  pending
			seq int
		}
		var found []*entry
		for _, kr := range bucket {
			var en *entry
			for _, cand := range found {
				if nested.Equal(cand.pr.value, kr.row.Value) {
					en = cand
				}
			}
			if en == nil {
				en = &entry{pr: pending{value: kr.row.Value}, seq: kr.seq}
				found = append(found, en)
			}
			en.seq = min(en.seq, kr.seq)
			en.pr.inIDs = append(en.pr.inIDs, kr.row.ID)
		}
		sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
		for _, en := range found {
			sort.Slice(en.pr.inIDs, func(i, j int) bool { return en.pr.inIDs[i] < en.pr.inIDs[j] })
			parts[part] = append(parts[part], en.pr)
		}
	}
	return e.finalizeRef(o, parts), nil
}

func (e *refExecutor) execOrderBy(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions)
	rows := in.Rows()
	keys := make(map[int64][]nested.Value, len(rows))
	for _, r := range rows {
		for _, k := range o.sortKeys {
			v, err := k.Eval(r.Value)
			if err != nil {
				return nil, err
			}
			keys[r.ID] = append(keys[r.ID], v)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range o.sortKeys {
			if c := nested.CompareWidened(keys[rows[i].ID][k], keys[rows[j].ID][k]); c != 0 {
				return (c < 0) != o.sortDesc
			}
		}
		return false
	})
	return e.finalizeRef(o, chunkContiguousRef(rows, e.opts.Partitions)), nil
}

func (e *refExecutor) execLimit(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions)
	rows := in.Rows()
	return e.finalizeRef(o, chunkContiguousRef(rows[:max(min(o.limit, len(rows)), 0)], e.opts.Partitions)), nil
}

// chunkContiguousRef splits rows into at most parts contiguous chunks of
// pending rows, so that partition-major iteration preserves the slice order.
func chunkContiguousRef(rows []Row, parts int) [][]pending {
	out := make([]pending, len(rows))
	for i, r := range rows {
		out[i] = pending{value: r.Value, in1: r.ID}
	}
	if len(out) == 0 {
		return [][]pending{nil}
	}
	parts = min(max(parts, 1), len(out))
	chunk := (len(out) + parts - 1) / parts
	var chunks [][]pending
	for start := 0; start < len(out); start += chunk {
		chunks = append(chunks, out[start:min(start+chunk, len(out))])
	}
	return chunks
}
