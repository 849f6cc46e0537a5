package engine

import (
	"sort"
	"strings"
	"testing"

	"pebble/internal/nested"
)

func optimizeOK(t *testing.T, p *Pipeline) (*Pipeline, []string) {
	t.Helper()
	out, log, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("optimized plan invalid: %v\n%s", err, out)
	}
	return out, log
}

// sortedValues runs the pipeline and returns its output values in a
// canonical order for plan-equivalence checks.
func sortedValues(t *testing.T, p *Pipeline, inputs map[string]*Dataset) []nested.Value {
	t.Helper()
	res := runPipeline(t, p, inputs, Options{Partitions: 3})
	vals := valuesOf(res.Output)
	sort.Slice(vals, func(i, j int) bool { return nested.Compare(vals[i], vals[j]) < 0 })
	return vals
}

func assertEquivalent(t *testing.T, a, b *Pipeline, inputs map[string]*Dataset) {
	t.Helper()
	va := sortedValues(t, a, inputs)
	vb := sortedValues(t, b, inputs)
	if len(va) != len(vb) {
		t.Fatalf("row counts differ: %d vs %d\noriginal:\n%s\noptimized:\n%s", len(va), len(vb), a, b)
	}
	for i := range va {
		if !nested.Equal(va[i], vb[i]) {
			t.Fatalf("row %d differs:\n%s\n%s", i, va[i], vb[i])
		}
	}
}

func TestOptimizeMergesFilters(t *testing.T) {
	build := func() *Pipeline {
		p := NewPipeline()
		src := p.Source("in")
		f1 := p.Filter(src, Eq(Col("retweet_cnt"), LitInt(0)))
		p.Filter(f1, Contains(Col("text"), LitString("Hello")))
		return p
	}
	opt, log := optimizeOK(t, build())
	if len(log) != 1 || log[0] != "merge-filters" {
		t.Fatalf("log = %v", log)
	}
	nFilters := 0
	for _, o := range opt.Ops() {
		if o.Type() == OpFilter {
			nFilters++
		}
	}
	if nFilters != 1 {
		t.Errorf("optimized plan has %d filters, want 1:\n%s", nFilters, opt)
	}
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	assertEquivalent(t, build(), opt, inputs)
}

func TestOptimizePushesFilterBelowSelect(t *testing.T) {
	build := func() *Pipeline {
		p := NewPipeline()
		src := p.Source("in")
		sel := p.Select(src,
			Column("t", "text"),
			Column("uid", "user.id_str"),
		)
		p.Filter(sel, Eq(Col("uid"), LitString("lp")))
		return p
	}
	opt, log := optimizeOK(t, build())
	if len(log) != 1 || log[0] != "pushdown-filter-below-select" {
		t.Fatalf("log = %v\n%s", log, opt)
	}
	// The filter now precedes the select and reads the input-side path.
	plan := opt.String()
	if !strings.Contains(plan, "filter[(user.id_str ==") {
		t.Errorf("predicate not rewritten to input schema:\n%s", plan)
	}
	ops := opt.Ops()
	var filterIdx, selectIdx int
	for i, o := range ops {
		switch o.Type() {
		case OpFilter:
			filterIdx = i
		case OpSelect:
			selectIdx = i
		}
	}
	if filterIdx > selectIdx {
		t.Errorf("filter not pushed below select:\n%s", plan)
	}
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	assertEquivalent(t, build(), opt, inputs)
}

func TestOptimizeSkipsUnmappableSelectPredicate(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	sel := p.Select(src, Computed("n", Len(Col("user_mentions"))))
	p.Filter(sel, Gt(Col("n"), LitInt(1)))
	_, log := optimizeOK(t, p)
	if len(log) != 0 {
		t.Errorf("computed column predicate must not be pushed: %v", log)
	}
}

func TestOptimizePushesFilterBelowFlatten(t *testing.T) {
	build := func() *Pipeline {
		p := NewPipeline()
		src := p.Source("in")
		fl := p.Flatten(src, "user_mentions", "m_user")
		p.Filter(fl, Eq(Col("retweet_cnt"), LitInt(0)))
		return p
	}
	opt, log := optimizeOK(t, build())
	if len(log) != 1 || log[0] != "pushdown-filter-below-flatten" {
		t.Fatalf("log = %v", log)
	}
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	assertEquivalent(t, build(), opt, inputs)
}

func TestOptimizeKeepsFilterOnExplodedAttr(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	fl := p.Flatten(src, "user_mentions", "m_user")
	p.Filter(fl, Eq(Col("m_user.id_str"), LitString("lp")))
	_, log := optimizeOK(t, p)
	if len(log) != 0 {
		t.Errorf("filter on exploded attribute must stay above flatten: %v", log)
	}
}

func TestOptimizePushesFilterBelowUnion(t *testing.T) {
	build := func() *Pipeline {
		p := NewPipeline()
		a := p.Source("in")
		b := p.Source("in")
		u := p.Union(a, b)
		p.Filter(u, Eq(Col("retweet_cnt"), LitInt(0)))
		return p
	}
	opt, log := optimizeOK(t, build())
	if len(log) != 1 || log[0] != "pushdown-filter-below-union" {
		t.Fatalf("log = %v", log)
	}
	if opt.Sink().Type() != OpUnion {
		t.Errorf("union should be the sink after pushdown:\n%s", opt)
	}
	nFilters := 0
	for _, o := range opt.Ops() {
		if o.Type() == OpFilter {
			nFilters++
		}
	}
	if nFilters != 2 {
		t.Errorf("want a filter per branch, got %d:\n%s", nFilters, opt)
	}
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	assertEquivalent(t, build(), opt, inputs)
}

// TestOptimizeFigure1Equivalence optimizes the running example and checks
// result equivalence plus that rules fired (the upper-branch filter can
// merge nothing, but nothing must break either).
func TestOptimizeFigure1Equivalence(t *testing.T) {
	opt, _ := optimizeOK(t, figure1())
	inputs := map[string]*Dataset{"tweets.json": dataset(t, "tweets.json", tab1(), 2)}
	// Aggregated bags are order-sensitive per partition layout; compare the
	// user sets and bag sizes instead of raw values.
	summarize := func(p *Pipeline) map[string]int {
		res := runPipeline(t, p, inputs, Options{Partitions: 2})
		out := map[string]int{}
		for _, r := range res.Output.Rows() {
			u, _ := r.Value.Get("user")
			id, _ := mustAttr(t, u, "id_str").AsString()
			tw, _ := r.Value.Get("tweets")
			out[id] = tw.Len()
		}
		return out
	}
	a, b := summarize(figure1()), summarize(opt)
	if len(a) != len(b) {
		t.Fatalf("user sets differ: %v vs %v", a, b)
	}
	for id, n := range a {
		if b[id] != n {
			t.Errorf("user %s: %d vs %d tweets", id, n, b[id])
		}
	}
}

// TestOptimizeChainReachesFixpoint: filter over select over filter collapses
// into a single pushed, merged filter.
func TestOptimizeChainReachesFixpoint(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	f1 := p.Filter(src, Eq(Col("retweet_cnt"), LitInt(0)))
	sel := p.Select(f1, Column("text", "text"), Column("retweet_cnt", "retweet_cnt"))
	p.Filter(sel, Contains(Col("text"), LitString("Hello")))
	opt, log := optimizeOK(t, p)
	if len(log) < 2 {
		t.Fatalf("expected pushdown then merge, log = %v", log)
	}
	nFilters := 0
	for _, o := range opt.Ops() {
		if o.Type() == OpFilter {
			nFilters++
		}
	}
	if nFilters != 1 {
		t.Errorf("fixpoint not reached, %d filters:\n%s", nFilters, opt)
	}
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	assertEquivalent(t, p, opt, inputs)
}
