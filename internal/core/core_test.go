package core_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/path"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

func TestSessionCaptureAndQuery(t *testing.T) {
	s := core.Session{Partitions: 2}
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	if cap.Result.Output.Len() != 3 {
		t.Fatalf("result rows = %d, want 3", cap.Result.Output.Len())
	}
	pattern := treepattern.New(
		treepattern.Desc("id_str").WithEq(nested.StringVal("lp")),
		treepattern.Child("tweets",
			treepattern.Child("text").WithEq(nested.StringVal("Hello World")).WithCount(2, 2),
		),
	)
	q, err := cap.Query(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if q.Matched.Len() != 1 {
		t.Fatalf("matched = %d, want 1", q.Matched.Len())
	}
	items := q.Items()
	if len(items) != 2 {
		t.Fatalf("traced items = %d, want 2", len(items))
	}
	for _, si := range items {
		if !si.Found {
			t.Error("traced item not resolved against source")
		}
		text, _ := si.Row.Value.Get("text")
		if s, _ := text.AsString(); s != "Hello World" {
			t.Errorf("resolved wrong tweet %q", s)
		}
	}
	rep := q.Report()
	for _, want := range []string{"matched 1 result item", "Hello World", "retweet_cnt (influencing)", "contributing"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestConcurrentQueriesShareOneTracer: queries on one capture from several
// goroutines build its lazily created tracer once and answer alike; under
// the race detector this checks the tracer's lock.
func TestConcurrentQueriesShareOneTracer(t *testing.T) {
	cap, err := core.Session{Partitions: 2}.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	pattern := treepattern.New(treepattern.Desc("id_str").WithEq(nested.StringVal("lp")))
	const n = 8
	reports := make([]string, n)
	tracers := make([]*backtrace.Tracer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := cap.Query(pattern)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i], tracers[i] = q.Report(), cap.Tracer()
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if tracers[i] != tracers[0] || reports[i] != reports[0] {
			t.Fatalf("query %d: tracer %p, report\n%s\nquery 0: tracer %p, report\n%s", i, tracers[i], reports[i], tracers[0], reports[0])
		}
	}
}

func TestSessionRunWithoutCapture(t *testing.T) {
	s := core.Session{Partitions: 2}
	res, err := s.Run(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 3 {
		t.Errorf("rows = %d", res.Output.Len())
	}
}

func TestQueryAllCoversEverySourceItemInUse(t *testing.T) {
	s := core.Session{Partitions: 2}
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := cap.QueryAll()
	if err != nil {
		t.Fatal(err)
	}
	// Upper branch contributes the 4 tweets with retweet_cnt 0; lower branch
	// the 3 tweets with at least one mention.
	if got := q.Traced.Structure(1).Len(); got != 4 {
		t.Errorf("upper branch items = %d, want 4", got)
	}
	if got := q.Traced.Structure(4).Len(); got != 3 {
		t.Errorf("lower branch items = %d, want 3", got)
	}
}

// traceAll captures p over inputs, each in one partition, and returns
// every traced input item by identifier.
func traceAll(t *testing.T, p *engine.Pipeline, inputs map[string][]nested.Value) map[int64]core.SourceItem {
	t.Helper()
	gen := engine.NewIDGen(1)
	ds := make(map[string]*engine.Dataset)
	for _, name := range []string{"l", "r"} {
		if vals, ok := inputs[name]; ok {
			ds[name] = engine.NewDataset(name, vals, 1, gen)
		}
	}
	cap, err := (&core.Session{Partitions: 2}).Capture(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cap.QueryAll()
	if err != nil {
		t.Fatal(err)
	}
	items := make(map[int64]core.SourceItem)
	for _, si := range q.Items() {
		items[si.Row.ID] = si
	}
	return items
}

// TestJoinSchemaReadsEveryRow: a join's input schema is that of all its
// rows, so the trace keeps an attribute only a later row has.
func TestJoinSchemaReadsEveryRow(t *testing.T) {
	p := engine.NewPipeline()
	p.Join(p.Source("l"), p.Source("r"), engine.Col("k"), engine.Col("rk"))
	items := traceAll(t, p, map[string][]nested.Value{
		"l": {
			nested.Item(nested.F("k", nested.Int(1)), nested.F("a", nested.Int(10))),
			nested.Item(nested.F("k", nested.Int(2)), nested.F("a", nested.Int(20)), nested.F("extra", nested.Int(1))),
		},
		"r": {
			nested.Item(nested.F("rk", nested.Int(1)), nested.F("b", nested.Int(100))),
			nested.Item(nested.F("rk", nested.Int(2)), nested.F("b", nested.Int(200))),
		},
	})
	si, ok := items[2]
	if !ok {
		t.Fatalf("left item 2 not traced: %v", items)
	}
	if len(si.Item.Tree.Find(path.MustParse("extra"))) == 0 {
		t.Fatalf("the trace of left item 2 lost the attribute only it has:\n%s", si.Item.Tree)
	}
}

// TestGroupKeyLeavesReadEveryRow: grouping by a struct accesses every leaf
// any row's struct has, not only those of the first row's.
func TestGroupKeyLeavesReadEveryRow(t *testing.T) {
	p := engine.NewPipeline()
	agg := p.Aggregate(p.Source("l"), []engine.GroupKey{engine.Key("u")}, []engine.AggSpec{engine.Agg(engine.AggCollectList, "v", "vs")})
	items := traceAll(t, p, map[string][]nested.Value{"l": {
		nested.Item(nested.F("u", nested.Item(nested.F("id", nested.Int(1)))), nested.F("v", nested.Int(1))),
		nested.Item(nested.F("u", nested.Item(nested.F("id", nested.Int(1)), nested.F("name", nested.StringVal("n")))), nested.F("v", nested.Int(2))),
	}})
	si, ok := items[2]
	if !ok {
		t.Fatalf("item 2 not traced: %v", items)
	}
	nodes := si.Item.Tree.Find(path.MustParse("u.name"))
	if len(nodes) != 1 || !slices.Contains(nodes[0].Access, agg.ID()) {
		t.Fatalf("u.name of item 2 is not accessed by the aggregate %d:\n%s", agg.ID(), si.Item.Tree)
	}
}

func TestTreeFromValue(t *testing.T) {
	v := nested.Item(
		nested.F("a", nested.Int(1)),
		nested.F("b", nested.Bag(nested.Item(nested.F("x", nested.Int(2))))),
	)
	tr := core.TreeFromValue(v)
	for _, p := range []string{"a", "b", "b[1].x"} {
		nodes := tr.Find(path.MustParse(p))
		if len(nodes) != 1 || !nodes[0].Contributing {
			t.Errorf("TreeFromValue missing contributing %s:\n%s", p, tr)
		}
	}
}

func TestEmptyQueryReport(t *testing.T) {
	s := core.Session{Partitions: 1}
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(1))
	if err != nil {
		t.Fatal(err)
	}
	pattern := treepattern.New(treepattern.Desc("id_str").WithEq(nested.StringVal("nobody")))
	q, err := cap.Query(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Report(), "no contributing input items") {
		t.Errorf("empty report wrong:\n%s", q.Report())
	}
}

func TestQueryResultJSON(t *testing.T) {
	s := core.Session{Partitions: 2}
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := cap.Query(treepattern.New(
		treepattern.Desc("id_str").WithEq(nested.StringVal("lp")),
		treepattern.Child("tweets",
			treepattern.Child("text").WithEq(nested.StringVal("Hello World")).WithCount(2, 2)),
	))
	if err != nil {
		t.Fatal(err)
	}
	data, err := q.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Matched int `json:"matched"`
		Sources []struct {
			SourceOID int    `json:"source_oid"`
			Dataset   string `json:"dataset"`
			Items     []struct {
				ID   int64           `json:"id"`
				Row  json.RawMessage `json:"row"`
				Tree struct {
					Children []struct {
						Name         string `json:"name"`
						Contributing bool   `json:"contributing"`
					} `json:"children"`
				} `json:"tree"`
			} `json:"items"`
		} `json:"sources"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if decoded.Matched != 1 || len(decoded.Sources) != 1 {
		t.Fatalf("structure wrong: %s", data)
	}
	src := decoded.Sources[0]
	if src.Dataset != "tweets.json" || len(src.Items) != 2 {
		t.Fatalf("source wrong: %s", data)
	}
	names := map[string]bool{}
	for _, c := range src.Items[0].Tree.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"text", "user", "retweet_cnt"} {
		if !names[want] {
			t.Errorf("tree JSON missing %q:\n%s", want, data)
		}
	}
	if len(src.Items[0].Row) == 0 {
		t.Error("row data missing")
	}
}

// TestSessionAnalyzeFirst: plan analysis is the caller's step, not a
// session option. engine.Analyze rejects the typo plan against the input
// schemas, and a plain session still runs it (missing columns are null).
func TestSessionAnalyzeFirst(t *testing.T) {
	in := workload.ExampleInput(1)
	if _, err := engine.Analyze(workload.ExamplePipeline(), engine.InferInputTypes(in)); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if _, err := engine.Analyze(pipelineWithTypo(), engine.InferInputTypes(in)); err == nil {
		t.Error("typo plan accepted by engine.Analyze")
	}
	if _, err := (core.Session{Partitions: 1}).Run(pipelineWithTypo(), in); err != nil {
		t.Errorf("plain session rejected runnable plan: %v", err)
	}
}

func pipelineWithTypo() *engine.Pipeline {
	p := engine.NewPipeline()
	p.Select(p.Source("tweets.json"), engine.Column("x", "text_typo"))
	return p
}

// TestReattachedAnswersLikeTheCapture: a capture reassembled from its
// persisted stream holds the reloaded run, queries through the tracer it was
// given (or one it builds over that run), and answers the original capture's
// pattern query alike, while the original capture keeps its own run.
func TestReattachedAnswersLikeTheCapture(t *testing.T) {
	s := core.Session{Partitions: 2}
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	pattern := treepattern.New(
		treepattern.Desc("id_str").WithEq(nested.StringVal("lp")),
		treepattern.Child("tweets",
			treepattern.Child("text").WithEq(nested.StringVal("Hello World")).WithCount(2, 2),
		),
	)
	q, err := cap.Query(pattern)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Report()
	original := cap.Provenance

	var buf bytes.Buffer
	if _, err := cap.Provenance.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, withTracer := range []bool{false, true} {
		run, err := provenance.ReadRunLazy(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var tr *backtrace.Tracer
		if withTracer {
			tr = backtrace.NewTracer(run)
		}
		re := core.Reattached(cap.Pipeline, cap.Result, run, tr, nil)
		if re.Provenance != run {
			t.Errorf("withTracer=%v: Reattached does not hold the run it was given", withTracer)
		}
		if withTracer && re.Tracer() != tr {
			t.Error("Reattached does not query through the tracer it was given")
		}
		if re.Tracer() != re.Tracer() {
			t.Errorf("withTracer=%v: Tracer builds a new tracer per call", withTracer)
		}
		rq, err := re.Query(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if got := rq.Report(); got != want {
			t.Errorf("withTracer=%v: reattached capture answers\n%s\nwant\n%s", withTracer, got, want)
		}
	}
	if cap.Provenance != original {
		t.Error("reattaching re-pointed the original capture's provenance")
	}
}
