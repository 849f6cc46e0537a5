package backtrace_test

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/jsonenc"
	"pebble/internal/nested"
	"pebble/internal/path"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

// target is a captured run with what a trace of it starts from.
type target struct {
	res  *engine.Result
	run  *provenance.Run
	sink int
}

func captureTarget(t testing.TB, p *engine.Pipeline, inputs map[string]*engine.Dataset, opts engine.Options) *target {
	t.Helper()
	res, run, err := provenance.Capture(p, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &target{res: res, run: run, sink: p.Sink().ID()}
}

func scenarioTarget(t testing.TB, name string, simGB int) (*target, workload.Scenario) {
	t.Helper()
	sc, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return captureTarget(t, sc.Build(), sc.Input(workload.DefaultScale(simGB), 4), engine.Options{Partitions: 4}), sc
}

// all is the full-coverage query: every result item, every leaf contributing.
func (tg *target) all() *backtrace.Structure {
	b := backtrace.NewStructure()
	for _, row := range tg.res.Output.Rows() {
		b.Add(row.ID, core.TreeFromValue(row.Value))
	}
	return b
}

// requireSameTrace traces q with the shipped body and with the per-item
// reference and holds the two results to each other: the same sources, the
// same identifiers in the same order, and per item the same tree, as String
// and as JSON bytes.
func requireSameTrace(t testing.TB, tg *target, q *backtrace.Structure) *backtrace.Result {
	t.Helper()
	tr := backtrace.NewTracer(tg.run)
	want, err := backtrace.RefTrace(tr, tg.sink, q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Trace(tg.sink, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, want); err != nil {
		t.Fatal(err)
	}
	return got
}

func sameResult(got, want *backtrace.Result) error {
	if len(got.BySource) != len(want.BySource) {
		return fmt.Errorf("%d sources reached, reference %d", len(got.BySource), len(want.BySource))
	}
	for oid, ws := range want.BySource {
		gs, ok := got.BySource[oid]
		if !ok {
			return fmt.Errorf("source %d not reached", oid)
		}
		if gs.Len() != ws.Len() {
			return fmt.Errorf("source %d: %d items, reference %d", oid, gs.Len(), ws.Len())
		}
		for i, w := range ws.Items {
			g := gs.Items[i]
			if g.ID != w.ID {
				return fmt.Errorf("source %d item %d: id %d, reference %d", oid, i, g.ID, w.ID)
			}
			if g.Tree.String() != w.Tree.String() {
				return fmt.Errorf("source %d item %d (id %d):\n got %s\nwant %s", oid, i, g.ID, g.Tree, w.Tree)
			}
			if !bytes.Equal(g.Tree.AppendJSON(nil, jsonenc.Compact), w.Tree.AppendJSON(nil, jsonenc.Compact)) {
				return fmt.Errorf("source %d item %d (id %d): JSON differs from the reference", oid, i, g.ID)
			}
		}
	}
	return nil
}

func TestTraceMatchesReferenceOnScenarios(t *testing.T) {
	for _, name := range []string{"T1", "T2", "T3", "T4", "T5", "D1", "D2", "D3", "D4", "D5"} {
		t.Run(name, func(t *testing.T) {
			tg, sc := scenarioTarget(t, name, 1)
			matched := sc.Pattern.Match(tg.res.Output)
			if matched.Len() == 0 {
				t.Fatal("scenario pattern matched nothing")
			}
			requireSameTrace(t, tg, matched)
			requireSameTrace(t, tg, tg.all())
		})
	}
}

// corpusTarget captures the generated pipeline of a seed; ok is false for the
// plans the generator emits that fail at run time.
func corpusTarget(t testing.TB, seed int64) (*target, *corpus.Spec, bool) {
	t.Helper()
	return corpusTargetAt(t, seed, 0)
}

// corpusTargetAt is corpusTarget at a given worker count (0: the default).
func corpusTargetAt(t testing.TB, seed int64, workers int) (*target, *corpus.Spec, bool) {
	t.Helper()
	spec := corpus.Generate(seed)
	p, err := spec.Build()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	res, run, err := provenance.Capture(p, spec.Inputs(3), spec.ExecOptions(engine.Options{Partitions: 3, Workers: workers}))
	if err != nil {
		return nil, spec, false
	}
	return &target{res: res, run: run, sink: p.Sink().ID()}, spec, true
}

// corpusQueries are the questions asked of a corpus target: its own pattern,
// everything, and single attributes of the result, which reach into nested
// collections by position.
func corpusQueries(tg *target, spec *corpus.Spec) []*backtrace.Structure {
	pattern := spec.Pattern
	if pattern == nil {
		pattern = treepattern.New()
	}
	qs := []*backtrace.Structure{pattern.Match(tg.res.Output), tg.all()}
	for _, attr := range []string{"k", "v", "n", "tag"} {
		qs = append(qs, treepattern.New(treepattern.Desc(attr)).Match(tg.res.Output))
	}
	return qs
}

func TestTraceMatchesReferenceOnCorpus(t *testing.T) {
	steps := map[string]int{}
	traced := 0
	for seed := int64(1); seed <= 240; seed++ {
		tg, spec, ok := corpusTarget(t, seed)
		if !ok {
			continue
		}
		for _, st := range spec.Steps {
			steps[st.Op]++
		}
		for _, q := range corpusQueries(tg, spec) {
			if q.Len() == 0 {
				continue
			}
			got := requireSameTrace(t, tg, q)
			for _, s := range got.BySource {
				traced += s.Len()
			}
		}
	}
	if traced == 0 {
		t.Fatal("no corpus seed traced anything")
	}
	for _, op := range []string{corpus.StepJoin, corpus.StepAggregate, corpus.StepFlatten, corpus.StepUnion, corpus.StepDistinct} {
		if steps[op] == 0 {
			t.Errorf("no traced corpus plan has a %s step", op)
		}
	}
}

// TestTraceMatchesReferenceOnHandBuiltPlans covers what the corpus generator
// does not draw: the opaque map, a left outer join with unmatched rows, and an
// aggregation over an aggregation (positions nested in positions).
func TestTraceMatchesReferenceOnHandBuiltPlans(t *testing.T) {
	var rows, aux []nested.Value
	for i := 0; i < 40; i++ {
		rows = append(rows, nested.Item(
			nested.F("id", nested.Int(int64(i))),
			nested.F("cat", nested.StringVal(fmt.Sprintf("c%d", i%5))),
			nested.F("sub", nested.StringVal(fmt.Sprintf("s%d", i%2))),
			nested.F("val", nested.Int(int64(i%7))),
			nested.F("tags", nested.Bag(nested.StringVal("x"), nested.StringVal(fmt.Sprintf("t%d", i%3)))),
		))
	}
	for i := 0; i < 3; i++ { // c3 and c4 stay unmatched
		aux = append(aux, nested.Item(nested.F("acat", nested.StringVal(fmt.Sprintf("c%d", i))), nested.F("aw", nested.Int(int64(i)))))
	}
	plans := map[string]func(p *engine.Pipeline, in, auxIn *engine.Op){
		"map then aggregate": func(p *engine.Pipeline, in, _ *engine.Op) {
			m := p.Map(in, engine.MapFunc{Name: "double", Fn: func(d nested.Value) (nested.Value, error) {
				v, _ := d.Get("val")
				n, _ := v.AsInt()
				return d.WithField("twice", nested.Int(2*n)), nil
			}})
			p.Aggregate(m, []engine.GroupKey{engine.Key("cat")}, []engine.AggSpec{
				engine.Agg(engine.AggCollectList, "twice", "all"), engine.Agg(engine.AggSum, "val", "total")})
		},
		"left outer join": func(p *engine.Pipeline, in, auxIn *engine.Op) {
			j := p.LeftJoin(in, auxIn, engine.Col("cat"), engine.Col("acat"))
			p.Select(j, engine.Column("id", "id"), engine.Column("w", "aw"), engine.Column("tags", "tags"))
		},
		"aggregate over aggregate": func(p *engine.Pipeline, in, _ *engine.Op) {
			flat := p.Flatten(in, "tags", "tag")
			inner := p.Aggregate(flat, []engine.GroupKey{engine.Key("cat"), engine.Key("sub")}, []engine.AggSpec{
				engine.Agg(engine.AggCollectList, "tag", "tags"), engine.Agg(engine.AggCount, "", "n")})
			p.Aggregate(inner, []engine.GroupKey{engine.Key("cat")}, []engine.AggSpec{
				engine.Agg(engine.AggCollectList, "tags", "groups"), engine.Agg(engine.AggSum, "n", "n")})
		},
	}
	for name, build := range plans {
		t.Run(name, func(t *testing.T) {
			p := engine.NewPipeline()
			in, auxIn := p.Source("in"), p.Source("aux")
			build(p, in, auxIn)
			gen := engine.NewIDGen(1)
			tg := captureTarget(t, p, map[string]*engine.Dataset{
				"in":  engine.NewDataset("in", rows, 3, gen),
				"aux": engine.NewDataset("aux", aux, 3, gen),
			}, engine.Options{Partitions: 3})
			got := requireSameTrace(t, tg, tg.all())
			if got.Structure(in.ID()).Len() != len(rows) {
				t.Errorf("traced %d of %d input rows", got.Structure(in.ID()).Len(), len(rows))
			}
			for _, attr := range []string{"id", "w", "all", "total", "groups", "n", "tags"} {
				if q := treepattern.New(treepattern.Desc(attr)).Match(tg.res.Output); q.Len() > 0 {
					requireSameTrace(t, tg, q)
				}
			}
		})
	}
}

// FuzzTraceMatchesReference picks a corpus plan and one of its questions from
// the fuzz input and holds the shipped trace to the reference body.
func FuzzTraceMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8) {
		tg, spec, ok := corpusTarget(t, seed)
		if !ok {
			return
		}
		qs := corpusQueries(tg, spec)
		if q := qs[int(pick)%len(qs)]; q.Len() > 0 {
			requireSameTrace(t, tg, q)
		}
	})
}

// renderTrees renders every tree of the structures, in order: what a trace
// must leave exactly as it found it.
func renderTrees(structures ...*backtrace.Structure) []string {
	var out []string
	for _, s := range structures {
		for _, it := range s.Items {
			out = append(out, it.Tree.String()+string(it.Tree.AppendJSON(nil, jsonenc.Compact)))
		}
	}
	return out
}

// resultStructures returns the per-source structures in source order.
func resultStructures(r *backtrace.Result) []*backtrace.Structure {
	var oids []int
	for oid := range r.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	var out []*backtrace.Structure
	for _, oid := range oids {
		out = append(out, r.BySource[oid])
	}
	return out
}

// TestTraceMutatesNothingItShares: a trace reads the structure it is given
// and shares trees with it and with its result, so neither a second trace of
// the same structure nor a trace of something else may change a tree of the
// input or of an earlier result.
func TestTraceMutatesNothingItShares(t *testing.T) {
	for _, name := range []string{"T2", "T3", "T4", "D3", "D5"} {
		t.Run(name, func(t *testing.T) {
			tg, sc := scenarioTarget(t, name, 1)
			tr := backtrace.NewTracer(tg.run)
			matched := sc.Pattern.Match(tg.res.Output)
			before := renderTrees(matched)
			first, err := tr.Trace(tg.sink, matched)
			if err != nil {
				t.Fatal(err)
			}
			firstBefore := renderTrees(resultStructures(first)...)
			second, err := tr.Trace(tg.sink, matched)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Trace(tg.sink, tg.all()); err != nil {
				t.Fatal(err)
			}
			// Tracing a result's own structure from its source merges into
			// nothing and shares every tree: the harshest case for MergeByID.
			for oid, s := range first.BySource {
				if _, err := tr.Trace(oid, s); err != nil {
					t.Fatal(err)
				}
			}
			if got := renderTrees(matched); fmt.Sprint(got) != fmt.Sprint(before) {
				t.Error("a trace changed a tree of the structure it was given")
			}
			if got := renderTrees(resultStructures(first)...); fmt.Sprint(got) != fmt.Sprint(firstBefore) {
				t.Error("a later trace changed a tree of an earlier result")
			}
			if err := sameResult(second, first); err != nil {
				t.Errorf("second trace of the same structure: %v", err)
			}
		})
	}
}

// TestTraceSharesEqualTrees: in a result, one content is one *Tree — on T5,
// where 31 k matched items (at benchmark size) trace to a few hundred source
// items through a join.
func TestTraceSharesEqualTrees(t *testing.T) {
	tg, sc := scenarioTarget(t, "T5", 2)
	got := requireSameTrace(t, tg, sc.Pattern.Match(tg.res.Output))
	pointers := map[*backtrace.Tree]bool{}
	contents := map[string]bool{}
	items := 0
	for _, s := range got.BySource {
		for _, it := range s.Items {
			pointers[it.Tree] = true
			contents[it.Tree.String()] = true
			items++
		}
	}
	if len(pointers) != len(contents) {
		t.Errorf("%d distinct trees for %d distinct contents", len(pointers), len(contents))
	}
	if len(pointers) >= items {
		t.Errorf("%d items hold %d trees: nothing is shared", items, len(pointers))
	}
}

// fanInTarget is filter → select → join over n left rows that all join one
// right row, with a tree of width attributes on every matched item.
func fanInTarget(t testing.TB, n, width int) (*target, *backtrace.Structure) {
	t.Helper()
	var left []nested.Value
	for i := 0; i < n; i++ {
		fields := []nested.Field{nested.F("k", nested.Int(1)), nested.F("i", nested.Int(int64(i)))}
		for w := 0; w < width; w++ {
			fields = append(fields, nested.F(fmt.Sprintf("a%d", w), nested.Int(int64(w))))
		}
		left = append(left, nested.Item(fields...))
	}
	right := []nested.Value{nested.Item(nested.F("rk", nested.Int(1)), nested.F("name", nested.StringVal("r")))}
	p := engine.NewPipeline()
	l := p.Source("left")
	filt := p.Filter(l, engine.Eq(engine.Col("k"), engine.LitInt(1)))
	cols := []engine.SelectField{engine.Column("k", "k")}
	for w := 0; w < width; w++ {
		cols = append(cols, engine.Column(fmt.Sprintf("b%d", w), fmt.Sprintf("a%d", w)))
	}
	sel := p.Select(filt, cols...)
	r := p.Source("right")
	p.Join(sel, r, engine.Col("k"), engine.Col("rk"))
	gen := engine.NewIDGen(1)
	inputs := map[string]*engine.Dataset{
		"left":  engine.NewDataset("left", left, 2, gen),
		"right": engine.NewDataset("right", right, 2, gen),
	}
	tg := captureTarget(t, p, inputs, engine.Options{Partitions: 2})
	tree := backtrace.NewTree()
	tree.EnsureContributing(path.New("name"))
	for w := 0; w < width; w++ {
		tree.EnsureContributing(path.New(fmt.Sprintf("b%d", w)))
	}
	q := backtrace.NewStructure()
	for _, row := range tg.res.Output.Rows() {
		q.Add(row.ID, tree)
	}
	if q.Len() != n {
		t.Fatalf("join produced %d rows, want %d", q.Len(), n)
	}
	return tg, q
}

// TestTraceAllocsPerItem: when the matched items share one tree, a trace
// allocates a constant number of objects per item whatever the tree's size —
// the rewrites happen once per operator — and the per-item reference does
// not.
func TestTraceAllocsPerItem(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000-item trace")
	}
	const n = 10000
	// Per traced item and step: its share of an item chunk, of the merged
	// structure's slice and of the identifier map; the rewrites are per
	// distinct tree and vanish in the division. Measured 0.06 (width 4) and
	// 0.14 (width 64); the bound leaves 2×.
	const bound = 0.3
	for _, width := range []int{4, 64} {
		tg, q := fanInTarget(t, n, width)
		tr := backtrace.NewTracer(tg.run)
		tr.BuildIndexes()
		perItem := testing.AllocsPerRun(3, func() {
			if _, err := tr.Trace(tg.sink, q); err != nil {
				t.Fatal(err)
			}
		}) / n
		// What the reference allocates per item does not depend on how many
		// items there are; a tenth of them keeps the test short.
		few := &backtrace.Structure{Items: q.Items[:n/10]}
		refPerItem := testing.AllocsPerRun(1, func() {
			if _, err := backtrace.RefTrace(tr, tg.sink, few); err != nil {
				t.Fatal(err)
			}
		}) / (n / 10)
		t.Logf("width %d: %.2f allocations per item, reference %.0f", width, perItem, refPerItem)
		if perItem > bound {
			t.Errorf("width %d: %.2f allocations per item, want at most %.1f", width, perItem, bound)
		}
		if refPerItem <= bound {
			t.Errorf("width %d: the reference allocates %.2f per item, within the bound: the test shows nothing", width, refPerItem)
		}
	}
}

// TestConcurrentTracesShareAStructure: two goroutines trace the same matched
// structure through one tracer (run it with -race).
func TestConcurrentTracesShareAStructure(t *testing.T) {
	tg, sc := scenarioTarget(t, "D3", 1)
	matched := sc.Pattern.Match(tg.res.Output)
	tr := backtrace.NewTracer(tg.run)
	var wg sync.WaitGroup
	results := make([]*backtrace.Result, 2)
	errs := make([]error, 2)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = tr.Trace(tg.sink, matched)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sameResult(results[0], results[1]); err != nil {
		t.Error(err)
	}
	if render(results[0]) != render(results[1]) {
		t.Error("reports differ")
	}
}

// TestAggregationCases pins Alg. 4 on both bodies: a pattern that addresses
// the nested collection as a whole, one that addresses single positions, a
// position no member's tree holds, the [pos] placeholder, count(*), a
// collection node that carries marks of its own, and an aggregate whose input
// attribute is named like its output.
func TestAggregationCases(t *testing.T) {
	var rows []nested.Value
	for i := 0; i < 12; i++ {
		rows = append(rows, nested.Item(
			nested.F("g", nested.Int(int64(i%3))),
			nested.F("v", nested.Int(int64(i))),
			nested.F("w", nested.Item(nested.F("x", nested.Int(int64(i))), nested.F("y", nested.StringVal("y")))),
		))
	}
	// With marked set a filter reads ws after the aggregation, so the trace
	// reaches Alg. 4 with an access mark on the collection node (and, where
	// the query names no position of ws, with ws addressed as a whole).
	build := func(marked bool) (*target, int) {
		p := engine.NewPipeline()
		src := p.Source("in")
		agg := p.Aggregate(src,
			[]engine.GroupKey{engine.Key("g")},
			[]engine.AggSpec{
				engine.Agg(engine.AggCollectList, "w", "ws"),
				engine.Agg(engine.AggCollectList, "v", "v"),
				engine.Agg(engine.AggCollectSet, "v", "vset"),
				engine.Agg(engine.AggCount, "", "n"),
				engine.Agg(engine.AggSum, "v", "total"),
			})
		if marked {
			p.Filter(agg, engine.Gt(engine.Len(engine.Col("ws")), engine.LitInt(0)))
		}
		gen := engine.NewIDGen(1)
		return captureTarget(t, p, map[string]*engine.Dataset{"in": engine.NewDataset("in", rows, 2, gen)}, engine.Options{Partitions: 2}), src.ID()
	}
	plain, src := build(false)
	marked, _ := build(true)

	cases := map[string][]string{
		"whole collection":         {"ws"},
		"single position":          {"ws[2].x"},
		"two positions":            {"ws[1].y", "ws[3]"},
		"position beyond group":    {"ws[9].x"},
		"placeholder":              {"ws[pos].x"},
		"placeholder and position": {"ws[pos].y", "ws[2].x"},
		"count":                    {"n"},
		"count and position":       {"n", "ws[4]"},
		"sum":                      {"total"},
		"set":                      {"vset"},
		"same name in and out":     {"v[2]"},
		"key only":                 {"g"},
		"everything":               {"g", "ws[1].x", "ws[2].y", "v[1]", "v[3]", "vset", "n", "total"},
	}
	for name, paths := range cases {
		t.Run(name, func(t *testing.T) {
			tree := backtrace.NewTree()
			for _, s := range paths {
				tree.EnsureContributing(path.MustParse(s))
			}
			query := func(tg *target) *backtrace.Structure {
				q := backtrace.NewStructure()
				for _, row := range tg.res.Output.Rows() {
					q.Add(row.ID, tree)
				}
				return q
			}
			requireSameTrace(t, marked, query(marked))
			got := requireSameTrace(t, plain, query(plain))
			traced := got.Structure(src).Len()
			switch name {
			case "position beyond group", "key only":
				if traced != 0 {
					t.Errorf("traced %d items, want none", traced)
				}
			case "single position", "same name in and out":
				if traced != 3 {
					t.Errorf("traced %d items, want one per group", traced)
				}
			case "whole collection", "count", "sum", "set", "placeholder", "everything":
				if traced != len(rows) {
					t.Errorf("traced %d items, want all %d", traced, len(rows))
				}
			}
		})
	}
}

// TestAggregationOddMappings: Alg. 4 leaves other members' positions out of a
// member's tree only for the mapping sets the engine emits. A run read from a
// hand-made or damaged artifact can carry others — two aggregates writing one
// attribute, outputs below the top level, positions within positions, an
// input path that lands inside another aggregate's collection — and the
// shipped body must still answer what the per-item body answers.
func TestAggregationOddMappings(t *testing.T) {
	var rows []nested.Value
	for i := 0; i < 9; i++ {
		rows = append(rows, nested.Item(
			nested.F("g", nested.Int(int64(i%2))),
			nested.F("v", nested.Int(int64(i))),
			nested.F("w", nested.Item(nested.F("x", nested.Int(int64(i))))),
		))
	}
	mp := path.MustParse
	odd := map[string][]engine.Mapping{
		"two aggregates, one attribute": {{In: mp("w"), Out: mp("ws[pos]")}, {In: mp("v"), Out: mp("ws")}},
		"whole first, positions second": {{In: mp("v"), Out: mp("ws")}, {In: mp("w"), Out: mp("ws[pos]")}},
		"output below the top level":    {{In: mp("w"), Out: mp("s.ws[pos]")}, {In: mp("v"), Out: mp("total")}},
		"positions within positions":    {{In: mp("w"), Out: mp("ws[pos].x[pos]")}},
		"input inside a collection":     {{In: mp("ws[pos].y"), Out: mp("total")}, {In: mp("w"), Out: mp("ws[pos]")}},
		"input at a fixed position":     {{In: mp("ws[2].y"), Out: mp("total")}, {In: mp("w"), Out: mp("ws[pos]")}},
	}
	trees := [][]string{
		{"ws"}, {"ws[1].x", "ws[3]"}, {"ws[2].x[2]", "ws[2].x[1]", "total"}, {"s.ws[2]", "s.ws[4].x", "total"},
		{"ws[pos].x", "ws[1]", "total", "g"},
	}
	for name, ms := range odd {
		t.Run(name, func(t *testing.T) {
			p := engine.NewPipeline()
			src := p.Source("in")
			p.Aggregate(src, []engine.GroupKey{engine.Key("g")}, []engine.AggSpec{
				engine.Agg(engine.AggCollectList, "w", "ws"), engine.Agg(engine.AggSum, "v", "total")})
			gen := engine.NewIDGen(1)
			tg := captureTarget(t, p, map[string]*engine.Dataset{"in": engine.NewDataset("in", rows, 2, gen)}, engine.Options{Partitions: 2})
			agg, ok := tg.run.Op(tg.sink)
			if !ok {
				t.Fatal("no aggregate captured")
			}
			keys := agg.Manipulated[:1] // the group key mapping g → g
			agg.Manipulated = append(append([]engine.Mapping(nil), keys...), ms...)
			for _, paths := range trees {
				tree := backtrace.NewTree()
				for _, s := range paths {
					tree.EnsureContributing(mp(s))
				}
				q := backtrace.NewStructure()
				for _, row := range tg.res.Output.Rows() {
					q.Add(row.ID, tree)
				}
				requireSameTrace(t, tg, q)
			}
		})
	}
}
