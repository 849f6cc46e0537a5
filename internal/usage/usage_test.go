package usage_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pebble/internal/core"
	"pebble/internal/provenance"
	"pebble/internal/usage"
	"pebble/internal/workload"
)

// inproceedingsSchema is the top-level schema of DBLP inproceedings records.
var inproceedingsSchema = []string{
	"key", "record_type", "title", "authors", "year", "crossref", "pages", "ee",
}

var (
	analyzeOnce     sync.Once
	cachedAnalysis  *usage.Analysis
	cachedUniverse  []int64
	analyzeFailures string
)

// analyzeD reproduces the Fig. 10 setup in miniature: run D1–D5 over the
// same DBLP input, query the full results, and merge the provenance. The
// result is computed once and shared across tests (full-result tracing is
// the most expensive operation in the suite).
func analyzeD(t *testing.T) (*usage.Analysis, []int64) {
	t.Helper()
	analyzeOnce.Do(func() {
		cachedAnalysis, cachedUniverse, analyzeFailures = analyzeWith(4)
	})
	if analyzeFailures != "" {
		t.Fatal(analyzeFailures)
	}
	return cachedAnalysis, cachedUniverse
}

// analyzeWith runs the Fig. 10 setup with the given partition count and
// returns the merged analysis, its universe, or the failing scenario.
func analyzeWith(parts int) (*usage.Analysis, []int64, string) {
	scale := workload.Scale{SimGB: 1, RecordsPerGB: 400, Seed: 42}
	session := core.Session{Partitions: parts}
	analysis := usage.NewAnalysis()
	for _, sc := range workload.DBLPScenarios() {
		cap, err := session.Capture(sc.Build(), sc.Input(scale, parts))
		if err != nil {
			return nil, nil, sc.Name + ": " + err.Error()
		}
		q, err := cap.QueryAll()
		if err != nil {
			return nil, nil, sc.Name + ": " + err.Error()
		}
		analysis.AddQuery(q, cap.Provenance)
	}
	// Universe: the raw-input ids of the inproceedings records (Fig. 10
	// analyses the DBLP inproceedings dataset).
	var universe []int64
	for _, r := range workload.DBLPInput(scale, 1)["dblp.json"].Rows() {
		rt, _ := r.Value.Get("record_type")
		if s, _ := rt.AsString(); s == "inproceedings" {
			universe = append(universe, r.ID)
		}
	}
	return analysis, universe, ""
}

// TestFig10Rendering renders the whole Fig. 10 report — heatmap, audit, top
// pairs and column groups — and requires the same bytes whether D1–D5 ran on
// one partition or on four: the figure depends on the data, not the layout.
func TestFig10Rendering(t *testing.T) {
	render := func(a *usage.Analysis, universe []int64) string {
		return fmt.Sprintf("%s\n%+v\n%v\n%+v", a.Heatmap(usage.SampleItems(universe, 25, 42), inproceedingsSchema),
			a.Audit(universe, inproceedingsSchema), a.TopPairs(5), a.SuggestColumnGroups(universe, inproceedingsSchema))
	}
	one, universe1, failed := analyzeWith(1)
	if failed != "" {
		t.Fatal(failed)
	}
	want := render(analyzeD(t))
	if got := render(one, universe1); got != want {
		t.Errorf("Fig. 10 on one partition differs from four:\n got %s\nwant %s", got, want)
	}
	for _, s := range []string{"tuple", "year", "key+title"} {
		if !strings.Contains(want, s) {
			t.Errorf("Fig. 10 report lacks %q:\n%s", s, want)
		}
	}
}

func TestUsagePatternsMatchPaperNarrative(t *testing.T) {
	analysis, universe := analyzeD(t)
	if analysis.Queries != 5 {
		t.Fatalf("merged %d queries, want 5", analysis.Queries)
	}
	rep := analysis.Audit(universe, inproceedingsSchema)
	// Most inproceedings contribute to at least one of D1–D5 (D4 nests every
	// inproceedings under its proceedings).
	if len(rep.LeakedItems) < len(universe)/2 {
		t.Errorf("leaked items = %d of %d, expected the majority", len(rep.LeakedItems), len(universe))
	}
	leaked := strings.Join(rep.LeakedAttrs, ",")
	for _, want := range []string{"key", "title"} {
		if !strings.Contains(leaked, want) {
			t.Errorf("attribute %s should be leaked, got %v", want, rep.LeakedAttrs)
		}
	}
	// year is the paper's reconstruction-attack example: accessed by the D1
	// and D3 filters but never part of a result built from inproceedings.
	foundYear := false
	for _, a := range rep.InfluencingAttrs {
		if a == "year" {
			foundYear = true
		}
	}
	if !foundYear {
		t.Errorf("year should be influencing-only, got influencing=%v leaked=%v",
			rep.InfluencingAttrs, rep.LeakedAttrs)
	}
	// pages and ee are never touched by D1–D5: cold attributes.
	cold := strings.Join(rep.ColdAttrs, ",")
	for _, want := range []string{"pages", "ee"} {
		if !strings.Contains(cold, want) {
			t.Errorf("attribute %s should be cold, got %v", want, rep.ColdAttrs)
		}
	}
}

func TestHeatmapRendering(t *testing.T) {
	analysis, universe := analyzeD(t)
	items := usage.SampleItems(universe, 25, 42)
	if len(items) != 25 {
		t.Fatalf("sampled %d items, want 25", len(items))
	}
	// Deterministic sampling.
	again := usage.SampleItems(universe, 25, 42)
	for i := range items {
		if items[i] != again[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	hm := analysis.Heatmap(items, inproceedingsSchema)
	lines := strings.Split(strings.TrimSpace(hm), "\n")
	if len(lines) != 26 { // header + 25 rows
		t.Fatalf("heatmap rows = %d, want 26:\n%s", len(lines), hm)
	}
	if !strings.Contains(lines[0], "tuple") || !strings.Contains(lines[0], "year") {
		t.Errorf("heatmap header wrong: %s", lines[0])
	}
	// Cold cells render as dots (pages/ee columns).
	if !strings.Contains(hm, ".") {
		t.Error("expected cold cells in heatmap")
	}
}

func TestTopPairs(t *testing.T) {
	analysis, _ := analyzeD(t)
	pairs := analysis.TopPairs(3)
	if len(pairs) == 0 {
		t.Fatal("no attribute pairs recorded")
	}
	// key and title are selected together by D1, D4, D5.
	if !strings.Contains(strings.Join(pairs, ";"), "key+title") {
		t.Errorf("key+title should be a frequent pair, got %v", pairs)
	}
}

// TestAnalysisIsOrderInsensitive: merging D1–D5 in reverse order gives the
// same analysis. Every merge step only adds to counters, which is also why
// AddQuery needs no order over a query's sources.
func TestAnalysisIsOrderInsensitive(t *testing.T) {
	scale := workload.Scale{SimGB: 1, RecordsPerGB: 400, Seed: 42}
	session := core.Session{Partitions: 4}
	type query struct {
		q   *core.QueryResult
		run *provenance.Run
	}
	var queries []query
	for _, sc := range workload.DBLPScenarios() {
		cap, err := session.Capture(sc.Build(), sc.Input(scale, 4))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		q, err := cap.QueryAll()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		queries = append(queries, query{q, cap.Provenance})
	}
	forward, reverse := usage.NewAnalysis(), usage.NewAnalysis()
	for i := range queries {
		forward.AddQuery(queries[i].q, queries[i].run)
		reverse.AddQuery(queries[len(queries)-1-i].q, queries[len(queries)-1-i].run)
	}
	if !reflect.DeepEqual(forward, reverse) {
		t.Errorf("D1–D5 merged in reverse order differ from the forward merge:\n%s\nwant\n%s",
			reverse.TopPairs(10), forward.TopPairs(10))
	}
}

func TestAnalysisCountsInfluenceOnlyItems(t *testing.T) {
	// An analysis where an item only ever influences results must classify
	// it as influenced, not leaked.
	a := usage.NewAnalysis()
	if a.Queries != 0 {
		t.Fatal("fresh analysis not empty")
	}
	rep := a.Audit([]int64{1, 2}, []string{"x"})
	if len(rep.ColdItems) != 2 || len(rep.ColdAttrs) != 1 {
		t.Errorf("empty analysis audit wrong: %+v", rep)
	}
}

func TestSuggestColumnGroups(t *testing.T) {
	analysis, universe := analyzeD(t)
	groups := analysis.SuggestColumnGroups(universe, inproceedingsSchema)
	if len(groups) < 2 {
		t.Fatalf("groups = %v", groups)
	}
	// key and title co-occur most often: same hot group.
	var keyGroup, titleGroup, coldGroup int = -1, -1, -1
	for i, g := range groups {
		for _, a := range g.Attrs {
			switch a {
			case "key":
				keyGroup = i
			case "title":
				titleGroup = i
			case "pages":
				coldGroup = i
			}
		}
	}
	if keyGroup != titleGroup || keyGroup < 0 {
		t.Errorf("key and title should share a group: %v", groups)
	}
	if coldGroup < 0 || groups[coldGroup].Hot {
		t.Errorf("pages should be in the cold group: %v", groups)
	}
	// Every schema attribute lands in exactly one group.
	seen := map[string]int{}
	for _, g := range groups {
		for _, a := range g.Attrs {
			seen[a]++
		}
	}
	for _, a := range inproceedingsSchema {
		if seen[a] != 1 {
			t.Errorf("attribute %s appears %d times across groups", a, seen[a])
		}
	}
}

// TestUsageOverReloadedRun: the analysis needs the run only for the sources'
// id → raw-input-id associations, and must find them whichever way the run
// came to be — captured, ReadRun, or ReadRunLazy with nothing decoded yet
// (where it once merged nothing: it read a field the lazy loader had not
// filled).
func TestUsageOverReloadedRun(t *testing.T) {
	scale := workload.Scale{SimGB: 1, RecordsPerGB: 400, Seed: 42}
	session := core.Session{Partitions: 4}
	var universe []int64
	for _, r := range workload.DBLPInput(scale, 1)["dblp.json"].Rows() {
		universe = append(universe, r.ID)
	}
	for _, sc := range workload.DBLPScenarios() {
		cap, err := session.Capture(sc.Build(), sc.Input(scale, 4))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		q, err := cap.QueryAll()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		var stream bytes.Buffer
		if _, err := cap.Provenance.WriteTo(&stream); err != nil {
			t.Fatal(err)
		}
		eager, err := provenance.ReadRun(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := provenance.ReadRunLazy(stream.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		render := func(run *provenance.Run) (string, int) {
			a := usage.NewAnalysis()
			a.AddQuery(q, run)
			return fmt.Sprintf("%+v\n%s", a.Audit(universe, inproceedingsSchema),
				a.Heatmap(usage.SampleItems(universe, 25, 42), inproceedingsSchema)), len(a.AttrPerItem)
		}
		want, items := render(cap.Provenance)
		if items == 0 {
			t.Errorf("%s: the captured run merges no item", sc.Name)
		}
		for _, load := range []struct {
			name string
			run  *provenance.Run
		}{{"ReadRun", eager}, {"ReadRunLazy", lazy}} {
			if got, n := render(load.run); got != want {
				t.Errorf("%s over %s merges %d items, the captured run %d:\n got %s\nwant %s", sc.Name, load.name, n, items, got, want)
			}
		}
	}
}
