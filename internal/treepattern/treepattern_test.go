package treepattern_test

import (
	"strings"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/path"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

// figure4 builds the tree-pattern of Fig. 4: an ancestor-descendant edge to
// id_str == "lp" and a child path tweets/text == "Hello World" occurring
// exactly twice.
func figure4() *treepattern.Pattern {
	return treepattern.New(
		treepattern.Desc("id_str").WithEq(nested.StringVal("lp")),
		treepattern.Child("tweets",
			treepattern.Child("text").
				WithEq(nested.StringVal("Hello World")).
				WithCount(2, 2),
		),
	)
}

func exampleResult(t *testing.T) (*engine.Result, *provenance.Run) {
	t.Helper()
	res, run, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(2),
		engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res, run
}

func TestFigure4PatternMatchesOnlyUser102(t *testing.T) {
	res, _ := exampleResult(t)
	b := figure4().Match(res.Output)
	if b.Len() != 1 {
		t.Fatalf("pattern matched %d items, want 1 (user lp):\n%s", b.Len(), b)
	}
	it := b.Items[0]
	row, ok := res.Output.FindByID(it.ID)
	if !ok {
		t.Fatal("matched id not in result")
	}
	u, _ := row.Value.Get("user")
	if id, _ := mustGet(t, u, "id_str").AsString(); id != "lp" {
		t.Errorf("matched user %q, want lp", id)
	}
	// The tree encodes user.id_str and the two Hello World positions; name
	// is absent since it is not pertinent to the query (Sec. 2).
	if got := len(it.Tree.Find(path.MustParse("user.id_str"))); got != 1 {
		t.Errorf("user.id_str nodes = %d:\n%s", got, it.Tree)
	}
	if got := len(it.Tree.Find(path.MustParse("tweets[pos].text"))); got != 2 {
		t.Errorf("matched text positions = %d, want 2:\n%s", got, it.Tree)
	}
	if got := len(it.Tree.Find(path.MustParse("user.name"))); got != 0 {
		t.Errorf("name must not be part of the query tree")
	}
}

func TestPatternCountBounds(t *testing.T) {
	res, _ := exampleResult(t)
	// Exactly three occurrences never happen.
	p3 := treepattern.New(
		treepattern.Child("tweets",
			treepattern.Child("text").WithEq(nested.StringVal("Hello World")).WithCount(3, 3),
		),
	)
	if got := p3.Match(res.Output).Len(); got != 0 {
		t.Errorf("[3,3] matched %d items, want 0", got)
	}
	// At least one occurrence: only lp has Hello World tweets.
	p1 := treepattern.New(
		treepattern.Child("tweets",
			treepattern.Child("text").WithEq(nested.StringVal("Hello World")),
		),
	)
	if got := p1.Match(res.Output).Len(); got != 1 {
		t.Errorf("unbounded matched %d items, want 1", got)
	}
}

func TestPatternDescendantVsChild(t *testing.T) {
	res, _ := exampleResult(t)
	// id_str is nested under user: a child edge from the root cannot reach it...
	pc := treepattern.New(treepattern.Child("id_str").WithEq(nested.StringVal("lp")))
	if got := pc.Match(res.Output).Len(); got != 0 {
		t.Errorf("child edge matched %d items, want 0", got)
	}
	// ...but a descendant edge can.
	pd := treepattern.New(treepattern.Desc("id_str").WithEq(nested.StringVal("lp")))
	if got := pd.Match(res.Output).Len(); got != 1 {
		t.Errorf("descendant edge matched %d items, want 1", got)
	}
}

func TestPatternContains(t *testing.T) {
	res, _ := exampleResult(t)
	p := treepattern.New(
		treepattern.Child("tweets", treepattern.Child("text").WithContains("@lp")),
	)
	if got := p.Match(res.Output).Len(); got != 1 {
		t.Errorf("contains matched %d items, want 1 (lp was mentioned once)", got)
	}
	none := treepattern.New(
		treepattern.Child("tweets", treepattern.Child("text").WithContains("zzz")),
	)
	if got := none.Match(res.Output).Len(); got != 0 {
		t.Errorf("contains(zzz) matched %d items", got)
	}
}

func TestPatternConjunctionFails(t *testing.T) {
	res, _ := exampleResult(t)
	// Both conditions must hold for the same item: jm has no Hello World.
	p := treepattern.New(
		treepattern.Desc("id_str").WithEq(nested.StringVal("jm")),
		treepattern.Child("tweets",
			treepattern.Child("text").WithEq(nested.StringVal("Hello World")),
		),
	)
	if got := p.Match(res.Output).Len(); got != 0 {
		t.Errorf("conjunctive pattern matched %d items, want 0", got)
	}
}

func TestPatternString(t *testing.T) {
	s := figure4().String()
	for _, want := range []string{"//id_str", "tweets", "[2,2]", "Hello World"} {
		if !strings.Contains(s, want) {
			t.Errorf("pattern rendering missing %q:\n%s", want, s)
		}
	}
}

// TestEndToEndQuery runs the complete provenance question of Sec. 2: match
// the Fig. 4 pattern on the result, backtrace it, and arrive at exactly the
// two Hello World input tweets.
func TestEndToEndQuery(t *testing.T) {
	res, run := exampleResult(t)
	b := figure4().Match(res.Output)
	traced, err := backtrace.Trace(run, 9, b)
	if err != nil {
		t.Fatal(err)
	}
	upper := traced.Structure(1)
	if upper.Len() != 2 {
		t.Fatalf("traced %d input tweets, want 2:\n%s", upper.Len(), upper)
	}
	for _, it := range upper.Items {
		row, _ := res.Sources[1].FindByID(it.ID)
		if s, _ := mustGet(t, row.Value, "text").AsString(); s != "Hello World" {
			t.Errorf("traced tweet %q", s)
		}
	}
}

func mustGet(t *testing.T, v nested.Value, name string) nested.Value {
	t.Helper()
	out, ok := v.Get(name)
	if !ok {
		t.Fatalf("attribute %q missing in %s", name, v)
	}
	return out
}

func TestPatternRangeConstraints(t *testing.T) {
	res, _ := exampleResult(t)
	// All result users have between 2 and 4 nested tweets; constrain on a
	// numeric attribute via the running example's inputs instead: build a
	// small dataset inline.
	rows := res.Output

	// Every tweets bag has >= 2 elements, so a Gt(1)-style count query via
	// WithCount is covered elsewhere; here exercise Lt/Gt on values.
	pGt := treepattern.New(
		treepattern.Desc("id_str").WithGt(nested.StringVal("k")), // "lp", "ls" > "k"
	)
	if got := pGt.Match(rows).Len(); got != 2 {
		t.Errorf("WithGt matched %d items, want 2 (lp and ls sort above k)", got)
	}
	pLt := treepattern.New(
		treepattern.Desc("id_str").WithLt(nested.StringVal("k")), // only "jm"
	)
	if got := pLt.Match(rows).Len(); got != 1 {
		t.Errorf("WithLt matched %d items, want 1", got)
	}
	// Numeric widening: int value vs double bound.
	d := engine.NewDataset("d", []nested.Value{
		nested.Item(nested.F("v", nested.Int(3))),
		nested.Item(nested.F("v", nested.Int(7))),
	}, 1, engine.NewIDGen(1))
	pNum := treepattern.New(treepattern.Child("v").WithGt(nested.Double(3.5)))
	if got := pNum.Match(d).Len(); got != 1 {
		t.Errorf("numeric WithGt matched %d, want 1", got)
	}
	s := treepattern.New(
		treepattern.Child("v").WithLt(nested.Int(9)).WithGt(nested.Int(1)),
	).String()
	if !strings.Contains(s, "< 9") || !strings.Contains(s, "> 1") {
		t.Errorf("range rendering missing: %s", s)
	}
}

func TestMatchItemDirect(t *testing.T) {
	item := nested.Item(nested.F("a", nested.Int(1)))
	p := treepattern.New(treepattern.Child("a"))
	tree, ok := p.MatchItem(item)
	if !ok || len(tree.Root.Children) == 0 {
		t.Fatal("MatchItem failed on direct attribute")
	}
	if _, ok := treepattern.New(treepattern.Child("zz")).MatchItem(item); ok {
		t.Error("MatchItem matched absent attribute")
	}
}
