package core_test

import (
	"encoding/json"
	"strings"
	"testing"

	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/path"
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
