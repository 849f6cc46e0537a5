package engine

import (
	"testing"

	"pebble/internal/nested"
)

func analyzeExample(t *testing.T, p *Pipeline) (map[int]nested.Type, error) {
	t.Helper()
	inputs := map[string]*Dataset{"tweets.json": dataset(t, "tweets.json", tab1(), 2)}
	return Analyze(p, InferInputTypes(inputs))
}

func TestAnalyzeFigure1(t *testing.T) {
	schemas, err := analyzeExample(t, figure1())
	if err != nil {
		t.Fatal(err)
	}
	// The sink's schema is Tab. 2's type (Ex. 4.2, up to bag-of-items).
	sink := schemas[9]
	if sink.Kind != nested.KindItem {
		t.Fatalf("sink type = %s", sink)
	}
	user, ok := sink.Get("user")
	if !ok || user.Kind != nested.KindItem {
		t.Errorf("user type = %v, %v", user, ok)
	}
	tweets, ok := sink.Get("tweets")
	if !ok || tweets.Kind != nested.KindBag || tweets.Elem == nil || tweets.Elem.Kind != nested.KindItem {
		t.Errorf("tweets type = %v", tweets)
	}
	// The flatten output (op 5) adds m_user with the mention item type.
	fl := schemas[5]
	m, ok := fl.Get("m_user")
	if !ok || m.Kind != nested.KindItem {
		t.Errorf("m_user type = %v, %v", m, ok)
	}
}

func TestAnalyzeCatchesUnknownColumns(t *testing.T) {
	cases := map[string]func() *Pipeline{
		"filter-typo": func() *Pipeline {
			p := NewPipeline()
			p.Filter(p.Source("tweets.json"), Eq(Col("retweet_cnt_typo"), LitInt(0)))
			return p
		},
		"select-typo": func() *Pipeline {
			p := NewPipeline()
			p.Select(p.Source("tweets.json"), Column("x", "user.id_str_typo"))
			return p
		},
		"flatten-scalar": func() *Pipeline {
			p := NewPipeline()
			p.Flatten(p.Source("tweets.json"), "text", "x")
			return p
		},
		"flatten-collision": func() *Pipeline {
			p := NewPipeline()
			p.Flatten(p.Source("tweets.json"), "user_mentions", "text")
			return p
		},
		"sum-over-string": func() *Pipeline {
			p := NewPipeline()
			p.Aggregate(p.Source("tweets.json"),
				[]GroupKey{Key("user.id_str")},
				[]AggSpec{Agg(AggSum, "text", "s")})
			return p
		},
		"agg-duplicate-out": func() *Pipeline {
			p := NewPipeline()
			p.Aggregate(p.Source("tweets.json"),
				[]GroupKey{Key("text")},
				[]AggSpec{Agg(AggCount, "", "text")})
			return p
		},
		"sort-typo": func() *Pipeline {
			p := NewPipeline()
			p.OrderBy(p.Source("tweets.json"), false, Col("nope"))
			return p
		},
		"join-collision": func() *Pipeline {
			p := NewPipeline()
			p.Join(p.Source("tweets.json"), p.Source("tweets.json"), Col("text"), Col("text"))
			return p
		},
	}
	for name, build := range cases {
		if _, err := analyzeExample(t, build()); err == nil {
			t.Errorf("%s: analyzer accepted an invalid plan", name)
		}
	}
}

func TestAnalyzeUnionCompatibility(t *testing.T) {
	good := NewPipeline()
	a := good.Select(good.Source("tweets.json"), Column("t", "text"))
	b := good.Select(good.Source("tweets.json"), Column("t", "text"))
	good.Union(a, b)
	if _, err := analyzeExample(t, good); err != nil {
		t.Errorf("compatible union rejected: %v", err)
	}
	bad := NewPipeline()
	c := bad.Select(bad.Source("tweets.json"), Column("t", "text"))
	d := bad.Select(bad.Source("tweets.json"), Column("t", "retweet_cnt"))
	bad.Union(c, d)
	if _, err := analyzeExample(t, bad); err == nil {
		t.Error("string/int union accepted")
	}
}

func TestAnalyzeSuspendsBelowMap(t *testing.T) {
	p := NewPipeline()
	src := p.Source("tweets.json")
	m := p.Map(src, MapFunc{Name: "opaque", Fn: func(v nested.Value) (nested.Value, error) { return v, nil }})
	// This column does not exist, but below a map nothing is checked.
	p.Filter(m, Eq(Col("made_up"), LitInt(1)))
	schemas, err := analyzeExample(t, p)
	if err != nil {
		t.Fatalf("analysis below map must be suspended: %v", err)
	}
	if _, ok := schemas[m.ID()]; ok {
		t.Error("map output schema should be unknown")
	}
}

func TestAnalyzeHeterogeneousInput(t *testing.T) {
	// Records with disjoint attributes (the DBLP situation): the merged
	// schema carries the union, so type-correct plans over either subset
	// pass and genuinely unknown columns still fail.
	values := []nested.Value{
		nested.Item(nested.F("key", nested.StringVal("a")), nested.F("crossref", nested.StringVal("c1"))),
		nested.Item(nested.F("key", nested.StringVal("b")), nested.F("booktitle", nested.StringVal("EDBT"))),
	}
	inputs := map[string]*Dataset{"recs": dataset(t, "recs", values, 1)}
	types := InferInputTypes(inputs)
	rt := types["recs"]
	if _, ok := rt.Get("crossref"); !ok {
		t.Fatalf("merged schema misses crossref: %s", rt)
	}
	if _, ok := rt.Get("booktitle"); !ok {
		t.Fatalf("merged schema misses booktitle: %s", rt)
	}
	p := NewPipeline()
	p.Select(p.Source("recs"), Column("c", "crossref"), Column("b", "booktitle"))
	if _, err := Analyze(p, types); err != nil {
		t.Errorf("union-schema plan rejected: %v", err)
	}
	bad := NewPipeline()
	bad.Select(bad.Source("recs"), Column("z", "zzz"))
	if _, err := Analyze(bad, types); err == nil {
		t.Error("unknown column accepted on heterogeneous input")
	}
}

// TestAnalyzeLateAttribute: an attribute that first appears in row 201 is
// part of the inferred schema, so a select of it analyzes.
func TestAnalyzeLateAttribute(t *testing.T) {
	values := make([]nested.Value, 201)
	for i := range values {
		values[i] = nested.Item(nested.F("key", nested.Int(int64(i))))
	}
	values[200] = nested.Item(nested.F("key", nested.Int(200)), nested.F("late", nested.StringVal("x")))
	p := NewPipeline()
	p.Select(p.Source("recs"), Column("l", "late"))
	if _, err := Analyze(p, InferInputTypes(map[string]*Dataset{"recs": dataset(t, "recs", values, 1)})); err != nil {
		t.Errorf("select of an attribute first present in row 201: %v", err)
	}
}

func TestAnalyzeAllScenariosPass(t *testing.T) {
	// Analysis against the generated workloads must accept every Tab. 7
	// scenario (scenarios are the analyzer's regression corpus).
	// The workload package depends on engine, so rebuild the inputs here via
	// the tab1 fixture for T-scenario shape; full-scenario analysis runs in
	// the workload package tests.
	if _, err := analyzeExample(t, figure1()); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTypes(t *testing.T) {
	merged := func(vals ...nested.Value) nested.Type {
		var ty nested.Type
		for _, v := range vals {
			ty.Merge(v)
		}
		return ty
	}
	if got := merged(nested.Int(1), nested.Double(2)); got.Kind != nested.KindDouble {
		t.Errorf("int+double = %s", got)
	}
	if got := merged(nested.Int(1), nested.StringVal("x")); got.Kind != nested.KindNull {
		t.Errorf("int+string = %s (want unknown)", got)
	}
	if got := merged(nested.Bag(), nested.Bag(nested.Int(1))); got.Elem == nil || got.Elem.Kind != nested.KindInt {
		t.Errorf("bag merge = %s", got)
	}
}
