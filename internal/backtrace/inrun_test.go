package backtrace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/path"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// The tracer reads an operator's index off the run's own columns when the Out
// column is non-decreasing. That every run the engine writes is such a run is
// a property of how the engine assigns identifiers (partition-major, in row
// order), not of this package: the first test below pins it where an engine
// change would break it, the others hold the in-run index to the
// sort-and-build it replaced.

var scenarioNames = []string{"T1", "T2", "T3", "T4", "T5", "D1", "D2", "D3", "D4", "D5"}

// engineRun is one run the engine produced, with the questions asked of it.
type engineRun struct {
	name      string
	tg        *target
	questions []*backtrace.Structure
}

// eachEngineRun captures the ten scenarios and the 240 corpus seeds at the
// given worker count and hands each to f.
func eachEngineRun(t *testing.T, workers int, f func(r engineRun)) {
	t.Helper()
	for _, name := range scenarioNames {
		sc, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tg := captureTarget(t, sc.Build(), sc.Input(workload.DefaultScale(1), 4), engine.Options{Partitions: 4, Workers: workers})
		f(engineRun{name, tg, []*backtrace.Structure{sc.Pattern.Match(tg.res.Output), tg.all()}})
	}
	for seed := int64(1); seed <= 240; seed++ {
		if tg, spec, ok := corpusTargetAt(t, seed, workers); ok {
			f(engineRun{fmt.Sprintf("seed %d", seed), tg, corpusQueries(tg, spec)})
		}
	}
}

// encoded is a lazy load of the run's stream.
func encoded(t testing.TB, run *provenance.Run) *provenance.Run {
	t.Helper()
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy, err := provenance.ReadRunLazy(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return lazy
}

// TestEngineOutColumnsAreOrdered: over the scenarios and the corpus, at one
// worker and at NumCPU, every captured operator's Out column is
// non-decreasing, and dense — base, base+1, … — for every operator type but
// distinct, whose output rows each stand for several input rows. The load-time
// scan reads the same off the stream, and the columns decoded from the stream
// are the columns the collector merged.
func TestEngineOutColumnsAreOrdered(t *testing.T) {
	ops := map[engine.OpType]int{}
	for _, workers := range []int{1, runtime.NumCPU()} {
		eachEngineRun(t, workers, func(r engineRun) {
			lazy := encoded(t, r.tg.run)
			for i, op := range r.tg.run.Operators() {
				c := op.Columns()
				ops[op.Type]++
				if !slices.IsSorted(c.Out) || !op.OutOrdered() {
					t.Fatalf("%s workers %d: operator %d (%s): Out column out of order", r.name, workers, op.OID, op.Type)
				}
				if !denseOut(c.Out) && op.Type != engine.OpDistinct {
					t.Fatalf("%s workers %d: operator %d (%s): Out column is not base, base+1, …", r.name, workers, op.OID, op.Type)
				}
				lop := lazy.Operators()[i]
				if !lop.OutOrdered() {
					t.Fatalf("%s workers %d: operator %d (%s): the scan read an ordered Out column as out of order", r.name, workers, op.OID, op.Type)
				}
				if lc := lop.Columns(); !reflect.DeepEqual(lc, c) {
					t.Fatalf("%s workers %d: operator %d (%s): columns decoded from the stream differ from the capture's:\n%v\n%v", r.name, workers, op.OID, op.Type, lc, c)
				}
			}
		})
	}
	for _, typ := range []engine.OpType{engine.OpFilter, engine.OpSelect, engine.OpFlatten, engine.OpJoin,
		engine.OpUnion, engine.OpAggregate, engine.OpDistinct, engine.OpOrderBy, engine.OpLimit} {
		if ops[typ] == 0 {
			t.Errorf("no captured run has a %s operator", typ)
		}
	}
}

// requireSameAnswers traces every question through tracers made by mk and
// holds the answers to those of the first: the same sources, the same
// identifiers in the same order, per item the same tree as String and as JSON
// bytes.
func requireSameAnswers(t *testing.T, name string, sink int, questions []*backtrace.Structure, mk ...func() *backtrace.Tracer) {
	t.Helper()
	for qi, q := range questions {
		if q.Len() == 0 {
			continue
		}
		var want *backtrace.Result
		for i, f := range mk {
			got, err := f().Trace(sink, q)
			if err != nil {
				t.Fatalf("%s question %d tracer %d: %v", name, qi, i, err)
			}
			if i == 0 {
				want = got
			} else if err := sameResult(got, want); err != nil {
				t.Fatalf("%s question %d: tracer %d differs from tracer 0: %v", name, qi, i, err)
			}
		}
	}
}

// forced is a tracer over run whose indexes were all made the given way.
func forced(run *provenance.Run, mode backtrace.IndexMode) func() *backtrace.Tracer {
	return func() *backtrace.Tracer {
		tr := backtrace.NewTracer(run)
		backtrace.ForceIndexes(tr, mode)
		return tr
	}
}

// TestInRunIndexMatchesBuild: on the scenarios' own patterns and the corpus
// questions, the index read off the columns — of the loaded stream and of the
// capture in memory — answers exactly as the sort-and-build an out-of-order
// operator falls back to (opIndex.build), and as the map-grouping reference
// build (reference_test.go).
func TestInRunIndexMatchesBuild(t *testing.T) {
	kinds := map[provenance.AssocKind]bool{}
	eachEngineRun(t, 0, func(r engineRun) {
		lazy := encoded(t, r.tg.run)
		for _, op := range lazy.Operators() {
			kinds[op.AssocKind()] = true
		}
		requireSameAnswers(t, r.name, r.tg.sink, r.questions,
			func() *backtrace.Tracer { return backtrace.NewTracer(lazy) },
			func() *backtrace.Tracer { return backtrace.NewTracer(r.tg.run) },
			forced(lazy, backtrace.IndexBuild),
			forced(lazy, backtrace.IndexReference))
	})
	for _, k := range []provenance.AssocKind{provenance.AssocUnary, provenance.AssocBinary, provenance.AssocFlatten, provenance.AssocAgg} {
		if !kinds[k] {
			t.Errorf("no run has an operator of association kind %d", k)
		}
	}
}

// TestShuffledRunTakesTheFallback: a hand-made run — a scenario's capture with
// its association rows shuffled — is out of order in every operator with more
// than a row or two. Each such operator takes the sort, with no sidecar, and
// the shuffled run answers as the run the engine captured does: loaded or in
// memory, and through the reference index build.
func TestShuffledRunTakesTheFallback(t *testing.T) {
	outOfOrder := map[provenance.AssocKind]int{}
	for _, name := range scenarioNames {
		tg, sc := scenarioTarget(t, name, 1)
		shuffled := shuffledRun(t, tg.run, 11)
		lazy := encoded(t, shuffled)
		for _, op := range lazy.Operators() {
			if ordered := slices.IsSorted(op.Columns().Out); op.OutOrdered() != ordered {
				t.Fatalf("%s: operator %d (%s): the scan says ordered = %v, the decoded Out column says %v", name, op.OID, op.Type, op.OutOrdered(), ordered)
			}
			if !op.OutOrdered() && op.Type != engine.OpSource {
				outOfOrder[op.AssocKind()]++
			}
		}
		requireSameAnswers(t, name, tg.sink, []*backtrace.Structure{sc.Pattern.Match(tg.res.Output), tg.all()},
			func() *backtrace.Tracer { return backtrace.NewTracer(tg.run) },
			func() *backtrace.Tracer { return backtrace.NewTracer(lazy) },
			func() *backtrace.Tracer { return backtrace.NewTracer(shuffled) },
			forced(lazy, backtrace.IndexReference))
	}
	for _, k := range []provenance.AssocKind{provenance.AssocUnary, provenance.AssocBinary, provenance.AssocFlatten, provenance.AssocAgg} {
		if outOfOrder[k] == 0 {
			t.Errorf("no shuffled scenario has an out-of-order operator of association kind %d", k)
		}
	}
}

// repeatedOutRun is a run whose flatten and aggregate bags repeat an output
// identifier, as no engine operator but distinct does: each gets two one-row
// morsels with one base through a provenance.Collector. The flatten's last row
// of the repeated identifier is its origin; the aggregate's two rows are one
// group of two members.
func repeatedOutRun(t testing.TB) (run *provenance.Run, sink int, q *backtrace.Structure) {
	t.Helper()
	col := provenance.NewCollector()
	col.StartOperator(engine.OpInfo{OID: 1, Type: engine.OpSource, Inputs: []engine.InputInfo{{SourceName: "in"}}}, 1)
	col.Morsel(1, 0, 10, 2, engine.Assocs{In: []int64{1, 2}})
	col.StartOperator(engine.OpInfo{OID: 2, Type: engine.OpFlatten,
		Inputs:      []engine.InputInfo{{Pred: 1, Accessed: []path.Path{path.New("xs")}}},
		Manipulated: []engine.Mapping{{In: path.MustParse("xs[pos]"), Out: path.New("x")}}}, 1)
	col.Morsel(2, 0, 20, 1, engine.Assocs{In: []int64{10}, Pos: []int64{1}})
	col.Morsel(2, 0, 20, 1, engine.Assocs{In: []int64{11}, Pos: []int64{2}})
	col.Morsel(2, 0, 21, 1, engine.Assocs{In: []int64{10}, Pos: []int64{3}})
	col.StartOperator(engine.OpInfo{OID: 3, Type: engine.OpAggregate,
		Inputs:      []engine.InputInfo{{Pred: 2}},
		Manipulated: []engine.Mapping{{In: path.New("x"), Out: path.MustParse("ys[pos]")}}}, 1)
	col.Morsel(3, 0, 30, 1, engine.Assocs{Lists: [][]int64{{20}}})
	col.Morsel(3, 0, 30, 1, engine.Assocs{Lists: [][]int64{{21}}})
	run, err := col.Finish()
	if err != nil {
		t.Fatal(err)
	}
	q = backtrace.NewStructure()
	q.Add(30, core.TreeFromValue(nested.Item(nested.F("ys", nested.Bag(nested.Int(1), nested.Int(2))))))
	return run, 3, q
}

// denseOut reports whether an Out column is base, base+1, ….
func denseOut(out []int64) bool {
	for i := range out {
		if out[i] != out[0]+int64(i) {
			return false
		}
	}
	return true
}

// TestTracersShareTheRunsColumns: the index of an operator whose Out column is
// ordered is the operator's columns themselves — of a captured run as of a
// loaded one — so any number of tracers over one run hold one copy of its
// identifiers, also where an Out column repeats (repeatedOutRun). Indexing such
// an operator allocates what indexing a source does, where nothing is looked
// up — the tracer's bookkeeping and no column — plus, where the Out column is
// not dense, its keys and offsets. Two tracers then trace one run at once —
// the captured one, and a loaded one nothing has touched yet (run it with
// -race) — and answer as the per-item reference trace over the reference
// index build.
func TestTracersShareTheRunsColumns(t *testing.T) {
	type tracedRun struct {
		name string
		run  *provenance.Run
		sink int
		q    *backtrace.Structure
	}
	run, sink, q := repeatedOutRun(t)
	cases := []tracedRun{{"repeated Out", run, sink, q}}
	for _, name := range scenarioNames {
		tg, sc := scenarioTarget(t, name, 1)
		cases = append(cases, tracedRun{name, tg.run, tg.sink, sc.Pattern.Match(tg.res.Output)})
	}
	for _, c := range cases {
		lazy := encoded(t, c.run)
		for _, run := range []*provenance.Run{c.run, lazy} {
			tr := backtrace.NewTracer(run)
			for _, op := range run.Operators() {
				if op.AssocKind() > provenance.AssocSource {
					if vals := backtrace.IndexValues(tr, op); &vals[0] != &op.Columns().In[0] {
						t.Errorf("%s: the index of operator %d (%s) copied the In column", c.name, op.OID, op.Type)
					}
				}
			}
		}
		index := func(op *provenance.Operator) float64 {
			return testing.AllocsPerRun(5, func() { backtrace.IndexValues(backtrace.NewTracer(lazy), op) })
		}
		source := lazy.Operators()[0]
		if source.AssocKind() != provenance.AssocSource {
			t.Fatalf("%s: operator %d is no source", c.name, source.OID)
		}
		bookkeeping := index(source)
		for _, op := range lazy.Operators() {
			if op.AssocKind() <= provenance.AssocSource {
				continue
			}
			want := bookkeeping
			if !denseOut(op.Columns().Out) {
				want += 2 // keys and offsets
			}
			if got := index(op); got != want {
				t.Errorf("%s: indexing operator %d (%s, %d rows) takes %.0f allocations, want %.0f",
					c.name, op.OID, op.Type, op.AssocCount(), got, want)
			}
		}

		want, err := backtrace.RefTrace(forced(lazy, backtrace.IndexReference)(), c.sink, c.q.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if len(want.BySource) == 0 {
			t.Fatalf("%s: the question reaches no source", c.name)
		}
		untouched := encoded(t, c.run) // its first touches race, too
		for _, run := range []*provenance.Run{c.run, untouched} {
			results := make([]*backtrace.Result, 2)
			var wg sync.WaitGroup
			for g := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if results[g], err = backtrace.NewTracer(run).Trace(c.sink, c.q); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for _, got := range results {
				if err := sameResult(got, want); err != nil {
					t.Errorf("%s: two tracers over one run, against the reference: %v", c.name, err)
				}
			}
		}
	}
}

// TestRelabelledOperatorFindsNothing: an operator whose type names another
// layout than its bag's — a hand-made or damaged artifact — has an empty index,
// so a trace that starts at it with every output identifier it captured finds
// nothing there, instead of reading its columns as another layout's.
func TestRelabelledOperatorFindsNothing(t *testing.T) {
	for _, name := range []string{"T2", "T3", "T5", "D1"} {
		tg, _ := scenarioTarget(t, name, 1)
		for _, typ := range []engine.OpType{engine.OpFilter, engine.OpFlatten, engine.OpAggregate} {
			lazy := encoded(t, tg.run)
			for _, op := range lazy.Operators() {
				if op.AssocKind() <= provenance.AssocSource || op.AssocKind() == provenance.KindOf(typ) {
					continue
				}
				q := backtrace.NewStructure()
				for _, out := range op.Columns().Out {
					q.Add(out, backtrace.NewTree())
				}
				op.Type = typ
				got, err := backtrace.NewTracer(lazy).Trace(op.OID, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.BySource) != 0 {
					t.Errorf("%s: operator %d relabelled %s traced to %d sources", name, op.OID, typ, len(got.BySource))
				}
			}
		}
	}
}
