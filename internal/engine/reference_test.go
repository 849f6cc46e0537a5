package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// This file holds the row-at-a-time reference bodies of join and aggregate —
// the bodies that shipped beside the keyTable kernels until the kernels
// became total — and the bucket-level differential tests that pin the
// kernels to them: same output rows, same association ids, same error text,
// at bucket sizes straddling the 256-row accumulation chunk.

// ---- reference bodies ----

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
			if compareWidened(lkr.key, rkr.key) != 0 {
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
			if compareWidened(bkr.key, k) != 0 {
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
			c := compareWidened(v, best)
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

// ---- differential harness ----

// refSizes straddle the 256-row accumulation chunk.
var refSizes = []int{0, 1, batchSize - 1, batchSize, batchSize + 1}

// renderPending renders rows, association ids and the error of one bucket
// body, so that two bodies agree iff the strings are equal.
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

// shuffleOne runs the real shuffle map and merge phases into one bucket, so
// the bodies under test see exactly the keyed rows production feeds them
// (null keys dropped unless keepNull, hashes cached, partition-major order).
func shuffleOne(t *testing.T, values []nested.Value, firstID int64, sk shuffleKey, keepNull bool) []keyedRow {
	t.Helper()
	ds := NewDataset("in", values, 3, NewIDGen(firstID))
	e := &executor{ctx: context.Background()}
	buckets, err := e.shuffle(ds, 1, sk, 1, keepNull)
	if err != nil {
		t.Fatal(err)
	}
	return buckets[0]
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

func TestJoinBucketMatchesReference(t *testing.T) {
	for _, sh := range joinShapes() {
		for _, nl := range refSizes {
			for _, nr := range refSizes {
				t.Run(fmt.Sprintf("%s/l=%d/r=%d", sh.name, nl, nr), func(t *testing.T) {
					lvals := joinSide(nl, "lk", "lv", sh.mutL)
					rvals := joinSide(nr, sh.rKey, sh.rPayload, sh.mutR)
					lKey, rKey := sh.keys()
					lrows := shuffleOne(t, lvals, 1, exprShuffleKey(lKey), false)
					rrows := shuffleOne(t, rvals, 100000, exprShuffleKey(rKey), false)
					schema := []string{sh.rKey, sh.rPayload}
					got := renderPending(joinBucket(lrows, rrows, sh.leftOuter, nested.NewShape(schema...)))
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
			got := renderPending(joinBucket(tc.lrows, tc.rrows, tc.leftOuter, nested.NewShape("r")))
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
						tab := getKeyTable(buildDS.Len())
						defer putKeyTable(tab)
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
							out, hashed, err := broadcastProbe(tab, buildRows, rows, keys, buildLeft)
							refOut, refHashed, refErr := broadcastProbeRef(probeKey, refBuild, rows, buildLeft)
							got, want := renderPending(out, err), renderPending(refOut, refErr)
							if got != want {
								t.Fatalf("kernel and reference disagree:\nkernel:    %s\nreference: %s", head(got), head(want))
							}
							if err == nil && hashed != refHashed {
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
					got := renderPending(aggBucket(o, groupShape(o.groupBy, o.aggs), bucket, capture))
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
