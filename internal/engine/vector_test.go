package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pebble/internal/nested"
)

// This file pins the filter kernel (filterSelectVec over batch.go/vexpr.go)
// to its per-row Eval loop at the batch boundaries that matter: morsel sizes
// straddling batchSize, empty morsels, all-null and kind-shifting columns —
// and proves that where the kernel declines, the row loop's short-circuit
// answer (its exact error, or its exact success) is what the operator
// returns. The test at the end drives two engines at once under the race
// detector.

// genRows builds n deterministic rows shaped like the corpus base schema,
// with every vectorization hazard mixed in: missing attributes (decoded as
// Null), explicit nulls, kind switches within a column (int → string), and
// nested bags of items with sub-bags.
func genRows(seed int64, n int) []nested.Value {
	r := rand.New(rand.NewSource(seed))
	rows := make([]nested.Value, 0, n)
	words := []string{"x", "y", "z", "w"}
	for i := 0; i < n; i++ {
		fields := []nested.Field{
			nested.F("id", nested.Int(int64(i))),
		}
		switch r.Intn(5) {
		case 0: // missing val entirely
		case 1:
			fields = append(fields, nested.F("val", nested.Null()))
		case 2: // kind switch: string where ints usually live
			fields = append(fields, nested.F("val", nested.StringVal(words[r.Intn(4)])))
		default:
			fields = append(fields, nested.F("val", nested.Int(int64(r.Intn(20)))))
		}
		if r.Intn(4) > 0 {
			fields = append(fields, nested.F("cat", nested.StringVal(words[r.Intn(4)])))
		}
		nm := r.Intn(4)
		ms := make([]nested.Value, 0, nm)
		for j := 0; j < nm; j++ {
			nt := r.Intn(3)
			tags := make([]nested.Value, 0, nt)
			for k := 0; k < nt; k++ {
				tags = append(tags, nested.StringVal(words[r.Intn(4)]))
			}
			ms = append(ms, nested.Item(
				nested.F("k", nested.StringVal(words[r.Intn(4)])),
				nested.F("tags", nested.Bag(tags...)),
			))
		}
		fields = append(fields, nested.F("subs", nested.Bag(ms...)))
		rows = append(rows, nested.Item(fields...))
	}
	return rows
}

// boundaryPipeline runs a short-circuit filter in front of every other
// operator family.
func boundaryPipeline() *Pipeline {
	p := NewPipeline()
	src := p.Source("in")
	filt := p.Filter(src, boundaryPred())
	flat := p.Flatten(filt, "subs", "sub")
	flat2 := p.Flatten(flat, "sub.tags", "tag")
	sel := p.Select(flat2,
		Column("id", "id"),
		Column("k", "sub.k"),
		Column("tag", "tag"),
		Computed("has_x", Contains(Col("tag"), LitString("x"))),
	)
	agg := p.Aggregate(sel, []GroupKey{Key("k")}, []AggSpec{
		Agg(AggCount, "", "n"),
		Agg(AggCollectList, "id", "ids"),
	})
	ord := p.OrderBy(agg, false, Col("k"))
	p.SetSink(p.Distinct(ord))
	return p
}

// boundaryPred mixes null tests, typed comparisons over a kind-switching
// column, and nested short-circuit booleans.
func boundaryPred() Expr {
	return Or(IsNull(Col("val")), And(Gt(Col("id"), LitInt(-1)), Not(Eq(Col("cat"), LitString("q")))))
}

// asRows annotates values with consecutive ids, like a source operator.
func asRows(values []nested.Value) []Row {
	rows := make([]Row, len(values))
	for i, v := range values {
		rows[i] = Row{ID: int64(i + 1), Value: v}
	}
	return rows
}

// ownedDst is where a test has a row-wise body write a morsel on its own: a
// one-member stage under capture, so rows and id columns are fresh memory.
func ownedDst() morselDst {
	return morselDst{sc: getStageScratch(1), owned: true, capture: true}
}

// renderSelected renders the rows a filter's selection keeps the way
// renderOut renders the morsel filterMorsel writes from it.
func renderSelected(rows []Row) func([]int32, error) string {
	return func(sel []int32, err error) string {
		out := morselOut{Assocs: Assocs{In: make([]int64, 0, len(sel))}}
		for _, at := range sel {
			out.rows, out.In = append(out.rows, rows[at]), append(out.In, rows[at].ID)
		}
		return renderOut(out, err)
	}
}

// checkFilter requires the kernel to accept the morsel and agree with the
// row loop, and filterMorsel to return that answer.
func checkFilter(t *testing.T, pred Expr, rows []Row) {
	t.Helper()
	want := renderSelected(rows)(filterSelectRows(pred, rows, nil))
	vec, ok := filterSelectVec(pred, rows, nil, make([]nested.Value, batchSize))
	if !ok {
		t.Fatalf("kernel declined %s over %d rows", pred, len(rows))
	}
	if got := renderSelected(rows)(vec, nil); got != want {
		t.Errorf("kernel and row loop diverge at %d rows:\nkernel: %s\nrows:   %s", len(rows), head(got), head(want))
	}
	if got := renderOut(filterMorsel(pred, rows, ownedDst())); got != want {
		t.Errorf("filterMorsel diverges from the row loop at %d rows:\ngot:  %s\nwant: %s", len(rows), head(got), head(want))
	}
}

func TestFilterKernelAtBatchBoundaries(t *testing.T) {
	preds := []Expr{
		boundaryPred(),
		Gt(Col("val"), LitInt(9)),                               // int column with nulls, absences and stray strings
		Eq(Col("cat"), LitString("x")),                          // string column with absences
		Contains(Col("cat"), LitString("y")),                    // typed containment
		Gt(Len(Col("subs")), LitInt(1)),                         // generic (bag) column
		Not(Or(IsNull(Col("cat")), Le(Col("id"), LitInt(100)))), // not over or
	}
	for _, n := range []int{0, 1, batchSize - 1, batchSize, batchSize + 1, 2*batchSize + 1} {
		rows := asRows(genRows(int64(n), n))
		for _, pred := range preds {
			t.Run(fmt.Sprintf("rows=%d/%s", n, pred), func(t *testing.T) { checkFilter(t, pred, rows) })
		}
	}
}

// TestFilterKernelNullAndKindShiftColumns pins the validity-bitmap edge
// cases: a column that is entirely absent, one that is explicitly null
// everywhere, one that is null for the whole first batch and typed after
// (the all-null prefix backfill), and one that switches kind mid-batch (the
// typed→generic demotion in decodeColumn).
func TestFilterKernelNullAndKindShiftColumns(t *testing.T) {
	n := batchSize + 37
	values := make([]nested.Value, 0, n)
	for i := 0; i < n; i++ {
		fields := []nested.Field{nested.F("id", nested.Int(int64(i))), nested.F("exp", nested.Null())}
		if i >= batchSize {
			fields = append(fields, nested.F("late", nested.Int(int64(i))))
		}
		if i < n/2 {
			fields = append(fields, nested.F("shift", nested.Int(int64(i%5))))
		} else {
			fields = append(fields, nested.F("shift", nested.StringVal("s")))
		}
		values = append(values, nested.Item(fields...))
	}
	rows := asRows(values)
	for _, pred := range []Expr{
		IsNull(Col("missing")),
		Not(IsNull(Col("exp"))),
		Or(IsNull(Col("missing")), IsNull(Col("exp"))),
		Gt(Col("late"), LitInt(int64(batchSize+5))),
		IsNull(Col("late")),
		Eq(Col("shift"), LitInt(3)),
		Eq(Col("shift"), LitString("s")),
		Ne(Col("shift"), Col("late")),
		Eq(Len(Col("shift")), LitInt(0)),
	} {
		t.Run(pred.String(), func(t *testing.T) { checkFilter(t, pred, rows) })
	}
}

// TestFilterKernelOrdersNaN: the kernel's typed numeric arms and the row
// loop order a NaN alike — before every other number and equal to itself —
// in double columns and in columns that mix ints and doubles.
func TestFilterKernelOrdersNaN(t *testing.T) {
	doubles := []float64{math.NaN(), math.Inf(-1), -1.5, 0, 2, math.Inf(1)}
	values := make([]nested.Value, batchSize+len(doubles))
	for i := range values {
		d := nested.Double(doubles[i%len(doubles)])
		values[i] = nested.Item(nested.F("d", d), nested.F("i", nested.Int(int64(i%3-1))), nested.F("nan", nested.Double(math.NaN())))
	}
	rows := asRows(values)
	for _, pred := range []Expr{
		Lt(Col("d"), LitDouble(0)), Gt(Col("d"), LitDouble(0)), Eq(Col("d"), Col("nan")), Ne(Col("d"), Col("nan")),
		Lt(Col("nan"), Col("i")), Eq(Col("i"), Col("nan")), Gt(Col("i"), Col("d")), Lt(Col("d"), LitInt(0)),
	} {
		t.Run(pred.String(), func(t *testing.T) { checkFilter(t, pred, rows) })
	}
	if out, err := filterMorsel(Lt(Col("d"), LitInt(0)), rows[:len(doubles)], ownedDst()); err != nil || out.n != 3 {
		t.Errorf("d < 0 keeps %d of NaN, -Inf, -1.5, 0, 2, +Inf (%v), want 3", out.n, err)
	}
}

// TestFilterKernelDeclinesToRowLoop covers the shapes the kernel cannot
// answer itself. Column-wise evaluation visits every operand of And/Or on
// every row, so it can trip over a value the row loop's short-circuit never
// inspects; the kernel must decline and the operator must return the row
// loop's answer — a success here, the exact first error below.
func TestFilterKernelDeclinesToRowLoop(t *testing.T) {
	rows := asRows(genRows(3, batchSize+9))
	cases := []struct {
		name    string
		pred    Expr
		wantErr bool
	}{
		// The first operand is false on every row, so the row loop never
		// evaluates Not over the string column.
		{"short-circuit-avoids-error", And(Gt(Col("id"), LitInt(1<<40)), Not(Col("cat"))), false},
		{"not-over-string", Not(Col("cat")), true},
		{"non-boolean-predicate", Col("id"), true},
		{"non-boolean-operand-reached", Or(Gt(Col("id"), LitInt(1<<40)), Col("cat")), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := filterSelectVec(tc.pred, rows, nil, make([]nested.Value, batchSize)); ok {
				t.Fatalf("kernel accepted %s; the case no longer exercises the decline path", tc.pred)
			}
			wantSel, wantErr := filterSelectRows(tc.pred, rows, nil)
			if (wantErr != nil) != tc.wantErr {
				t.Fatalf("row loop error = %v, want error: %v", wantErr, tc.wantErr)
			}
			got, want := renderOut(filterMorsel(tc.pred, rows, ownedDst())), renderSelected(rows)(wantSel, wantErr)
			if got != want {
				t.Fatalf("filterMorsel must return the row loop's answer:\ngot:  %s\nwant: %s", head(got), head(want))
			}
		})
	}
}

// TestConcurrentEnginesRace drives the filter kernel and the id-range
// emission with the full worker fan-out, two engines running concurrently in
// one process over the one stage scratch pool. The -race run of the suite is
// the assertion.
func TestConcurrentEnginesRace(t *testing.T) {
	values := genRows(11, 4*batchSize+13)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inputs := map[string]*Dataset{"in": NewDataset("in", values, DefaultPartitions, NewIDGen(1000))}
			sink := newRecordingSink()
			if _, err := Run(boundaryPipeline(), inputs, Options{
				Partitions: DefaultPartitions, Workers: runtime.NumCPU(), Sink: sink,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func head(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}
