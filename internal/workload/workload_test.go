package workload_test

import (
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	s := workload.DefaultScale(1)
	a := workload.GenerateTwitter(s)
	b := workload.GenerateTwitter(s)
	if len(a) != len(b) || len(a) != s.Tweets() {
		t.Fatalf("twitter sizes: %d, %d, want %d", len(a), len(b), s.Tweets())
	}
	for i := range a {
		if !nested.Equal(a[i], b[i]) {
			t.Fatalf("twitter generation not deterministic at %d", i)
		}
	}
	d1 := workload.GenerateDBLP(s)
	d2 := workload.GenerateDBLP(s)
	if len(d1) != len(d2) || len(d1) < s.Records() {
		t.Fatalf("dblp sizes: %d, %d, want >= %d", len(d1), len(d2), s.Records())
	}
	for i := range d1 {
		if !nested.Equal(d1[i], d2[i]) {
			t.Fatalf("dblp generation not deterministic at %d", i)
		}
	}
	// Different seeds differ.
	s2 := s
	s2.Seed = 7
	c := workload.GenerateTwitter(s2)
	same := true
	for i := range a {
		if !nested.Equal(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical twitter data")
	}
}

// checkHomogeneous requires the elements of every collection v contains, at
// any depth, to have compatible types: the data model's restriction.
func checkHomogeneous(t *testing.T, v nested.Value) {
	t.Helper()
	for _, e := range v.FieldValues() {
		checkHomogeneous(t, e)
	}
	elems := v.Elems()
	var want nested.Type
	if len(elems) > 0 {
		want.Merge(elems[0])
	}
	for i, e := range elems {
		var got nested.Type
		got.Merge(e)
		if !nested.Compatible(want, got) {
			t.Fatalf("heterogeneous collection: element %d has type %s, want %s", i, got, want)
		}
		checkHomogeneous(t, e)
	}
}

func TestTwitterDataShape(t *testing.T) {
	tweets := workload.GenerateTwitter(workload.DefaultScale(1))
	var hot, bts, good, mentionsHot int
	for _, tw := range tweets {
		checkHomogeneous(t, tw)
		u, _ := tw.Get("user")
		if id, _ := attr(t, u, "id_str").AsString(); id == workload.HotUserID {
			hot++
		}
		text, _ := attr(t, tw, "text").AsString()
		if contains(text, workload.BTSHashtag) {
			bts++
		}
		if contains(text, workload.GoodWord) {
			good++
		}
		ms, _ := tw.Get("user_mentions")
		for _, m := range ms.Elems() {
			if id, _ := attr(t, m, "id_str").AsString(); id == workload.HotUserID {
				mentionsHot++
			}
		}
	}
	if hot < len(tweets)/10 {
		t.Errorf("hot user authors %d tweets, want >= %d", hot, len(tweets)/10)
	}
	if bts < len(tweets)/5 {
		t.Errorf("BTS tweets = %d, want >= %d", bts, len(tweets)/5)
	}
	if good == 0 || mentionsHot == 0 {
		t.Errorf("sentinels missing: good=%d mentionsHot=%d", good, mentionsHot)
	}
}

func TestDBLPDataShape(t *testing.T) {
	recs := workload.GenerateDBLP(workload.DefaultScale(1))
	byType := map[string]int{}
	var hotCrossrefs, hotProc, hotAuthor int
	for _, rec := range recs {
		rt, _ := attr(t, rec, "record_type").AsString()
		byType[rt]++
		if cr, ok := rec.Get("crossref"); ok {
			if s, _ := cr.AsString(); s == workload.HotProceedingKey {
				hotCrossrefs++
			}
		}
		if key, _ := attr(t, rec, "key").AsString(); key == workload.HotProceedingKey {
			hotProc++
		}
		if authors, ok := rec.Get("authors"); ok {
			for _, a := range authors.Elems() {
				if id, _ := attr(t, a, "id").AsString(); id == workload.HotAuthorID {
					hotAuthor++
				}
			}
		}
	}
	if byType["inproceedings"] < byType["proceedings"] {
		t.Errorf("type mix wrong: %v", byType)
	}
	if byType["proceedings"] == 0 || byType["article"] == 0 {
		t.Errorf("missing record types: %v", byType)
	}
	if hotProc != 1 {
		t.Errorf("hot proceedings emitted %d times, want once", hotProc)
	}
	if hotCrossrefs < len(recs)/20 {
		t.Errorf("hot crossrefs = %d, too few", hotCrossrefs)
	}
	if hotAuthor == 0 {
		t.Error("hot author never appears")
	}
}

// TestAllScenariosRunAndTrace executes every Tab. 7 scenario end to end:
// capture, pattern match, backtrace — and checks the provenance is non-empty
// and resolves to existing source rows.
func TestAllScenariosRunAndTrace(t *testing.T) {
	scale := workload.DefaultScale(1)
	for _, sc := range workload.AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			inputs := sc.Input(scale, 4)
			pipe := sc.Build()
			res, run, err := provenance.Capture(pipe, inputs, engine.Options{Partitions: 4})
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			if res.Output.Len() == 0 {
				t.Fatal("scenario produced no output")
			}
			b := sc.Pattern.Match(res.Output)
			if b.Len() == 0 {
				t.Fatalf("pattern matched nothing:\n%s", sc.Pattern)
			}
			traced, err := backtrace.Trace(run, pipe.Sink().ID(), b)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			total := 0
			for oid, s := range traced.BySource {
				src, ok := res.Sources[oid]
				if !ok {
					t.Fatalf("trace reached unknown source %d", oid)
				}
				for _, it := range s.Items {
					if _, ok := src.FindByID(it.ID); !ok {
						t.Errorf("traced id %d not in source %d", it.ID, oid)
					}
				}
				total += s.Len()
			}
			if total == 0 {
				t.Error("backtrace returned no input items")
			}
		})
	}
}

// TestScenarioResultsAreDeterministic runs T4 and D4 twice and compares
// outputs value by value.
func TestScenarioResultsAreDeterministic(t *testing.T) {
	scale := workload.DefaultScale(1)
	for _, name := range []string{"T4", "D4"} {
		sc, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() []engine.Row {
			res, err := engine.Run(sc.Build(), sc.Input(scale, 3), engine.Options{Partitions: 3})
			if err != nil {
				t.Fatal(err)
			}
			return res.Output.Rows()
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic row count %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if !nested.Equal(a[i].Value, b[i].Value) {
				t.Fatalf("%s: row %d differs", name, i)
			}
		}
	}
}

// TestAnnotationComparison reproduces the Sec. 2 annotation argument: on the
// five tweets of Tab. 1 a Lipstick-style model annotates the item and every
// constant inside it (the table's superscripts, 35 in all), where structural
// provenance annotates the five top-level items only.
func TestAnnotationComparison(t *testing.T) {
	var constants func(v nested.Value) int
	constants = func(v nested.Value) int {
		n := 0
		switch v.Kind() {
		case nested.KindItem:
			for i := 0; i < v.NumFields(); i++ {
				n += constants(v.FieldValue(i))
			}
		case nested.KindBag, nested.KindSet:
			for _, e := range v.Elems() {
				n += constants(e)
			}
		default:
			n = 1
		}
		return n
	}
	count := func(values []nested.Value) (topLevel, every int) {
		for _, v := range values {
			topLevel++
			every += 1 + constants(v)
		}
		return topLevel, every
	}
	if top, every := count(workload.ExampleTweets()); top != 5 || every != 35 {
		t.Errorf("Tab. 1 annotations: top-level %d, Lipstick %d; want 5 and 35", top, every)
	}
	// On the wide synthetic tweets the gap widens far beyond 7x.
	if top, every := count(workload.GenerateTwitter(workload.DefaultScale(1))); every < 20*top {
		t.Errorf("wide tweets need %d annotations for %d items, want at least 20x", every, top)
	}
}

func TestByName(t *testing.T) {
	if _, err := workload.ByName("T9"); err == nil {
		t.Error("unknown scenario should error")
	}
	sc, err := workload.ByName("D3")
	if err != nil || sc.Dataset != "dblp" {
		t.Errorf("ByName(D3) = %+v, %v", sc, err)
	}
	if len(workload.AllScenarios()) != 10 {
		t.Errorf("want 10 scenarios")
	}
}

func attr(t *testing.T, v nested.Value, name string) nested.Value {
	t.Helper()
	out, ok := v.Get(name)
	if !ok {
		t.Fatalf("attribute %q missing in %s", name, v)
	}
	return out
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestAnalyzerAcceptsAllScenarios type-checks every Tab. 7 scenario against
// its generated input schema — the analyzer's regression corpus.
func TestAnalyzerAcceptsAllScenarios(t *testing.T) {
	scale := workload.DefaultScale(1)
	for _, sc := range workload.AllScenarios() {
		inputs := sc.Input(scale, 2)
		if _, err := engine.Analyze(sc.Build(), engine.InferInputTypes(inputs)); err != nil {
			t.Errorf("%s: analyzer rejected the scenario: %v", sc.Name, err)
		}
	}
}

// TestExtensionScenarios runs the X-scenarios (extension operators) end to
// end with capture, analysis, pattern matching, and backtracing.
func TestExtensionScenarios(t *testing.T) {
	scale := workload.DefaultScale(1)
	for _, sc := range extensionScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			inputs := sc.Input(scale, 3)
			pipe := sc.Build()
			if _, err := engine.Analyze(pipe, engine.InferInputTypes(inputs)); err != nil {
				t.Fatalf("analyze: %v", err)
			}
			res, run, err := provenance.Capture(pipe, inputs, engine.Options{Partitions: 3})
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			if res.Output.Len() == 0 {
				t.Fatal("no output")
			}
			b := sc.Pattern.Match(res.Output)
			if b.Len() == 0 {
				t.Fatalf("pattern matched nothing over:\n%v", res.Output.Rows())
			}
			traced, err := backtrace.Trace(run, pipe.Sink().ID(), b)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			total := 0
			for _, s := range traced.BySource {
				total += s.Len()
			}
			if total == 0 {
				t.Error("extension scenario traced no inputs")
			}
		})
	}
}

// TestX1TopsHotUser: the hot user must rank first in X1's top-5.
func TestX1TopsHotUser(t *testing.T) {
	sc := extensionScenarios()[0]
	res, err := engine.Run(sc.Build(), sc.Input(workload.DefaultScale(1), 3), engine.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 5 {
		t.Fatalf("top-5 has %d rows", res.Output.Len())
	}
	first := res.Output.Rows()[0]
	if id, _ := attr(t, first.Value, "mid").AsString(); id != workload.HotUserID {
		t.Errorf("top mention = %q, want %q", id, workload.HotUserID)
	}
}

// TestX2KeepsEmptyProceedings: the left outer join retains proceedings
// without inproceedings (null n_papers).
func TestX2KeepsEmptyProceedings(t *testing.T) {
	sc := extensionScenarios()[1]
	res, err := engine.Run(sc.Build(), sc.Input(workload.DefaultScale(1), 3), engine.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	var withNull, withCount int
	for _, r := range res.Output.Rows() {
		n := attr(t, r.Value, "n_papers")
		if n.IsNull() {
			withNull++
		} else {
			withCount++
		}
	}
	if withCount == 0 {
		t.Error("no proceedings with counts")
	}
	if withNull == 0 {
		t.Error("left outer join lost the proceedings without inproceedings")
	}
}
