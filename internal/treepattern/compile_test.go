package treepattern_test

import (
	"fmt"
	"sync"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

// The compiled matcher (compile.go) must be observationally identical to the
// reference AST interpreter: same match verdict and the same backtracing
// tree, item by item, over every pattern shape the parser and the workload
// scenarios produce. These tests are the oracle that pins that equivalence.

// oracleItems is a small corpus of nested values exercising every value
// kind, nesting through items, bags, and repeated attributes at depth.
func oracleItems() []nested.Value {
	return []nested.Value{
		nested.Item(
			nested.F("i", nested.Int(5)),
			nested.F("f", nested.Double(2.5)),
			nested.F("neg", nested.Int(-3)),
			nested.F("b", nested.Bool(true)),
			nested.F("s", nested.StringVal("say \"hi\"\nthere")),
		),
		nested.Item(
			nested.F("id", nested.Int(1)),
			nested.F("tags", nested.Bag(
				nested.StringVal("go"), nested.StringVal("db"), nested.StringVal("go"))),
		),
		nested.Item(
			nested.F("user", nested.Item(
				nested.F("name", nested.StringVal("ada")),
				nested.F("sub", nested.Item(nested.F("name", nested.StringVal("deep")))),
			)),
			nested.F("tweets", nested.Bag(
				nested.Item(nested.F("text", nested.StringVal("Hello World")), nested.F("n", nested.Int(1))),
				nested.Item(nested.F("text", nested.StringVal("Hello Again")), nested.F("n", nested.Int(2))),
			)),
		),
		nested.Item(nested.F("tags", nested.Bag())),
		nested.Item(nested.F("other", nested.Int(9))),
	}
}

// oracleQueries covers edges, conditions, counts, and sibling conjunction in
// parser syntax; each is matched compiled and interpreted over oracleItems.
var oracleQueries = []string{
	`i == 5`,
	`i == 6`,
	`i > 4.5`,
	`neg == -3`,
	`b == true`,
	`s ~= "hi"`,
	`i == 5, f > 2`,
	`//name == "deep"`,
	`/user(name == "ada")`,
	`user(sub(name))`,
	`tweets(text ~= "Hello" #[2,2])`,
	`tweets(text ~= "World" #[2,2])`,
	`//text ~= "Hello"`,
	`tags #[1,0]`,
	`//tags`,
	`//n > 1`,
	`//id_str == "lp", tweets(text == "Hello World" #[2,2])`,
}

func TestCompiledMatchesInterpreterOnCorpus(t *testing.T) {
	for _, q := range oracleQueries {
		p, err := treepattern.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		c := p.Compile()
		for i, d := range oracleItems() {
			wantTree, wantOK := p.MatchItem(d)
			gotTree, gotOK := c.MatchItem(d)
			if wantOK != gotOK {
				t.Errorf("%q on item %d: compiled ok=%v, interpreter ok=%v", q, i, gotOK, wantOK)
				continue
			}
			if !wantOK {
				continue
			}
			if got, want := gotTree.String(), wantTree.String(); got != want {
				t.Errorf("%q on item %d: compiled tree\n%s\nwant\n%s", q, i, got, want)
			}
		}
	}
}

// TestCompiledMatchesInterpreterOnScenarios runs every workload scenario at
// a tiny scale and compares the compiled and interpreted dataset matches on
// the real output shapes — rendered structures must be byte-identical.
func TestCompiledMatchesInterpreterOnScenarios(t *testing.T) {
	scale := workload.Scale{SimGB: 5, TweetsPerGB: 40, RecordsPerGB: 400, Seed: 42}
	for _, sc := range workload.AllScenarios() {
		res, err := engine.Run(sc.Build(), sc.Input(scale, 4), engine.Options{Partitions: 4})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		want := backtrace.NewStructure()
		for _, row := range res.Output.Rows() {
			if tree, ok := sc.Pattern.MatchItem(row.Value); ok {
				want.Add(row.ID, tree)
			}
		}
		got := sc.Pattern.Match(res.Output)
		if got.String() != want.String() {
			t.Errorf("%s: compiled dataset match differs from interpreter:\n%s\nwant\n%s",
				sc.Name, got, want)
		}
		if want.Len() == 0 {
			t.Errorf("%s: scenario pattern matched nothing — oracle is vacuous", sc.Name)
		}
	}
}

// TestCompiledCountBounds pins MinCount/MaxCount against the interpreter and
// against first-principles expectations at the boundaries.
func TestCompiledCountBounds(t *testing.T) {
	item := func(n int) nested.Value {
		elems := make([]nested.Value, n)
		for i := range elems {
			elems[i] = nested.Item(nested.F("t", nested.StringVal(fmt.Sprintf("v%d", i))))
		}
		return nested.Item(nested.F("tags", nested.Bag(elems...)))
	}
	cases := []struct {
		min, max int
		occs     int
		want     bool
	}{
		{0, 0, 0, false}, // zero occurrences never match
		{0, 0, 1, true},  // unbounded
		{1, 1, 1, true},
		{1, 1, 2, false}, // above exact max
		{2, 2, 1, false}, // below exact min
		{2, 2, 2, true},
		{2, 0, 5, true}, // min only, unbounded max
		{2, 0, 1, false},
		{0, 3, 3, true}, // max only
		{0, 3, 4, false},
		{3, 5, 4, true},
		{3, 5, 6, false},
	}
	for _, tc := range cases {
		p := treepattern.New(treepattern.Desc("t").WithCount(tc.min, tc.max))
		c := p.Compile()
		d := item(tc.occs)
		_, wantOK := p.MatchItem(d)
		_, gotOK := c.MatchItem(d)
		if wantOK != tc.want {
			t.Errorf("interpreter #[%d,%d] with %d occurrences = %v, want %v",
				tc.min, tc.max, tc.occs, wantOK, tc.want)
		}
		if gotOK != tc.want {
			t.Errorf("compiled #[%d,%d] with %d occurrences = %v, want %v",
				tc.min, tc.max, tc.occs, gotOK, tc.want)
		}
	}
}

// TestCompiledCountOnNestedCollections: count constraints apply within the
// nearest enclosing collection, also below a descendant edge.
func TestCompiledCountOnNestedCollections(t *testing.T) {
	d := nested.Item(nested.F("groups", nested.Bag(
		nested.Item(nested.F("sub", nested.Bag(nested.StringVal("a"), nested.StringVal("b")))),
		nested.Item(nested.F("sub", nested.Bag(nested.StringVal("c")))),
	)))
	for _, q := range []string{`//sub #[1,1]`, `//sub #[2,2]`, `//sub #[2,0]`, `groups(sub #[1,2])`} {
		p := treepattern.MustParse(q)
		wantTree, wantOK := p.MatchItem(d)
		gotTree, gotOK := p.Compile().MatchItem(d)
		if wantOK != gotOK {
			t.Fatalf("%q: compiled ok=%v, interpreter ok=%v", q, gotOK, wantOK)
		}
		if wantOK && gotTree.String() != wantTree.String() {
			t.Errorf("%q: compiled tree\n%s\nwant\n%s", q, gotTree, wantTree)
		}
	}
}

// BenchmarkMatchItem compares the reference interpreter against the compiled
// program on real scenario outputs. T3 is the running example — deep nested outputs
// under a descendant edge; T4 is a flat aggregate — many small rows.
func BenchmarkMatchItem(b *testing.B) {
	scale := workload.Scale{SimGB: 5, TweetsPerGB: 40, RecordsPerGB: 400, Seed: 42}
	for _, name := range []string{"T3", "T4"} {
		sc, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		res, err := engine.Run(sc.Build(), sc.Input(scale, 4), engine.Options{Partitions: 4, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Output.Rows()
		compiled := sc.Pattern.Compile()
		b.Run(name+"/interp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range rows {
					sc.Pattern.MatchItem(r.Value)
				}
			}
		})
		b.Run(name+"/compiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range rows {
					compiled.MatchItem(r.Value)
				}
			}
		})
	}
}

// TestCompiledMatchConcurrent shares one compiled pattern across concurrent
// dataset matches (each itself fanning out per partition) — the race
// detector must stay silent and every result must agree.
func TestCompiledMatchConcurrent(t *testing.T) {
	scale := workload.Scale{SimGB: 2, TweetsPerGB: 40, RecordsPerGB: 400, Seed: 7}
	sc, err := workload.ByName("T2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(sc.Build(), sc.Input(scale, 4), engine.Options{Partitions: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := sc.Pattern.Compile()
	want := c.Match(res.Output).String()
	var wg sync.WaitGroup
	results := make([]string, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Match(res.Output).String()
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got != want {
			t.Errorf("concurrent match %d diverged", i)
		}
	}
}

// TestStackNeverLeaksIntoResults: the matcher walks with one reused step
// stack per goroutine and copies a path out only when an occurrence binds.
// Sibling bindings at one depth, a descendant edge that binds at several
// depths and count bounds must each get their own paths, equal to the
// interpreter's, and the trees of a structure must not change when the same
// patterns later match other datasets, whose paths overwrite the stack.
func TestStackNeverLeaksIntoResults(t *testing.T) {
	s := nested.StringVal
	first := []nested.Value{
		nested.Item( // siblings at one depth, under one parent and under two
			nested.F("a", nested.Item(nested.F("x", nested.Int(1)), nested.F("y", nested.Int(2)))),
			nested.F("b", nested.Item(nested.F("x", nested.Int(3)))),
		),
		nested.Item( // one attribute name at three depths
			nested.F("n", nested.Item(
				nested.F("x", nested.Int(4)),
				nested.F("n", nested.Item(nested.F("n", nested.Int(5)))),
			)),
		),
		nested.Item( // a collection whose elements bind by count
			nested.F("tags", nested.Bag(
				nested.Item(nested.F("t", s("p")), nested.F("x", nested.Int(6))),
				nested.Item(nested.F("t", s("q"))),
			)),
		),
	}
	second := []nested.Value{
		nested.Item(nested.F("deep", nested.Bag(nested.Item(
			nested.F("n", nested.Bag(nested.Item(nested.F("x", nested.Int(7)), nested.F("t", s("r"))))),
			nested.F("zz", nested.Item(nested.F("y", nested.Int(8)), nested.F("a", nested.Int(9)))),
		)))),
		nested.Item(nested.F("tags", nested.Bag(nested.Item(nested.F("t", s("s")))))),
	}
	queries := []string{
		`a(x, y)`,
		`//x`,
		`//x, //y`,
		`//n`,
		`n(n(n))`,
		`//n(x)`,
		`tags(t #[2,2])`,
		`tags(t #[1,1])`,
		`//t #[1,0]`,
		`tags(t == "p", x)`,
	}
	reference := func(p *treepattern.Pattern, d *engine.Dataset) string {
		want := backtrace.NewStructure()
		for _, row := range d.Rows() {
			if tree, ok := p.MatchItem(row.Value); ok {
				want.Add(row.ID, tree)
			}
		}
		return want.String()
	}
	dsFirst := engine.NewDataset("first", first, 2, engine.NewIDGen(1))
	dsSecond := engine.NewDataset("second", second, 2, engine.NewIDGen(100))
	type kept struct {
		q        string
		got      *backtrace.Structure
		rendered string
	}
	var earlier []kept
	for _, q := range queries {
		p := treepattern.MustParse(q)
		got := p.Match(dsFirst)
		if want := reference(p, dsFirst); got.String() != want {
			t.Errorf("%q: compiled match\n%s\nwant\n%s", q, got, want)
		}
		for i, d := range first {
			wantTree, wantOK := p.MatchItem(d)
			gotTree, gotOK := p.Compile().MatchItem(d)
			if gotOK != wantOK || (wantOK && gotTree.String() != wantTree.String()) {
				t.Errorf("%q on item %d: compiled (%v)\n%v\nwant (%v)\n%v", q, i, gotOK, gotTree, wantOK, wantTree)
			}
		}
		earlier = append(earlier, kept{q: q, got: got, rendered: got.String()})
	}
	for _, q := range queries {
		p := treepattern.MustParse(q)
		for r := 0; r < 3; r++ {
			if got, want := p.Match(dsSecond).String(), reference(p, dsSecond); got != want {
				t.Errorf("%q on the second dataset: compiled match\n%s\nwant\n%s", q, got, want)
			}
		}
	}
	for _, k := range earlier {
		if got := k.got.String(); got != k.rendered {
			t.Errorf("%q: an earlier structure changed after later matches:\n%s\nwas\n%s", k.q, got, k.rendered)
		}
	}
}
