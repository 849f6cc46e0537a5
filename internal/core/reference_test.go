package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/path"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

// refItems, refReport and refJSON are QueryResult.Items, Report and JSON as
// they were before the single-pass resolver and the one-pass writer: a
// Dataset.FindByID scan per traced item, and intermediate structs handed to
// json.MarshalIndent. They are the reference the shipped methods must
// reproduce byte for byte. refJSON differs from the old JSON in one way, on
// purpose: a row that fails to encode is an error, not a silently dropped
// "row" member.
func refItems(q *core.QueryResult) []core.SourceItem {
	var oids []int
	for oid := range q.Traced.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	var out []core.SourceItem
	for _, oid := range oids {
		src := q.Sources[oid]
		items := append([]*backtrace.Item(nil), q.Traced.BySource[oid].Items...)
		sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
		for _, it := range items {
			si := core.SourceItem{SourceOID: oid, Item: it}
			if src != nil {
				si.Row, si.Found = src.FindByID(it.ID)
			}
			out = append(out, si)
		}
	}
	return out
}

func refReport(q *core.QueryResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query matched %d result item(s)\n", q.Matched.Len())
	items := refItems(q)
	if len(items) == 0 {
		sb.WriteString("no contributing input items\n")
		return sb.String()
	}
	lastOID := -1
	for _, si := range items {
		if si.SourceOID != lastOID {
			name := "?"
			if src := q.Sources[si.SourceOID]; src != nil {
				name = src.Name
			}
			fmt.Fprintf(&sb, "source operator %d (%s):\n", si.SourceOID, name)
			lastOID = si.SourceOID
		}
		fmt.Fprintf(&sb, "  input item %d", si.Item.ID)
		if si.Found {
			fmt.Fprintf(&sb, ": %s", refPreview(si.Row.Value.String()))
		}
		sb.WriteByte('\n')
		for _, line := range strings.Split(strings.TrimRight(si.Item.Tree.String(), "\n"), "\n") {
			if line != "" {
				sb.WriteString("    " + line + "\n")
			}
		}
	}
	return sb.String()
}

// refPreview keeps the whole runes of s that end within its first 120 bytes,
// and says so when that is not all of s. (Until the report stopped cutting
// runes in half this was s[:120] + "…".)
func refPreview(s string) string {
	if len(s) <= 120 {
		return s
	}
	cut := 0
	for cut < len(s) {
		_, size := utf8.DecodeRuneInString(s[cut:])
		if cut+size > 120 {
			break
		}
		cut += size
	}
	return s[:cut] + "…"
}

type refJSONItem struct {
	ID   int64           `json:"id"`
	Row  json.RawMessage `json:"row,omitempty"`
	Tree *backtrace.Tree `json:"tree"`
}

type refJSONSource struct {
	SourceOID int           `json:"source_oid"`
	Dataset   string        `json:"dataset,omitempty"`
	Items     []refJSONItem `json:"items"`
}

func refJSON(q *core.QueryResult) ([]byte, error) {
	out := struct {
		Matched int             `json:"matched"`
		Sources []refJSONSource `json:"sources"`
	}{Matched: q.Matched.Len()}
	var oids []int
	for oid := range q.Traced.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	for _, oid := range oids {
		src := refJSONSource{SourceOID: oid}
		if ds := q.Sources[oid]; ds != nil {
			src.Dataset = ds.Name
		}
		items := append([]*backtrace.Item(nil), q.Traced.BySource[oid].Items...)
		sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
		for _, it := range items {
			ji := refJSONItem{ID: it.ID, Tree: it.Tree}
			if ds := q.Sources[oid]; ds != nil {
				if row, ok := ds.FindByID(it.ID); ok {
					data, err := row.Value.MarshalJSON()
					if err != nil {
						return nil, err
					}
					ji.Row = data
				}
			}
			src.Items = append(src.Items, ji)
		}
		out.Sources = append(out.Sources, src)
	}
	return json.MarshalIndent(out, "", "  ")
}

// requireSameAnswer holds Items, Report, JSON and Answer to the reference.
func requireSameAnswer(t *testing.T, q *core.QueryResult) {
	t.Helper()
	want, err := refJSON(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON differs from the reference at byte %d:\n got …%s\nwant …%s", firstDiff(got, want), around(got, want), around(want, got))
	}
	if got, want := q.Report(), refReport(q); got != want {
		t.Fatalf("Report differs from the reference:\n got %s\nwant %s", got, want)
	}
	if report, result, err := q.Answer(); err != nil || report != q.Report() || !bytes.Equal(result, want) {
		t.Fatalf("Answer (error %v) differs from Report and JSON", err)
	}
	gotItems, wantItems := q.Items(), refItems(q)
	if len(gotItems) != len(wantItems) {
		t.Fatalf("Items: %d, reference %d", len(gotItems), len(wantItems))
	}
	for i, g := range gotItems {
		w := wantItems[i]
		if g.SourceOID != w.SourceOID || g.Item != w.Item || g.Found != w.Found || g.Row.ID != w.Row.ID || !nested.Equal(g.Row.Value, w.Row.Value) {
			t.Fatalf("Items[%d] = %+v, reference %+v", i, g, w)
		}
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// around returns a's bytes near its first difference from b.
func around(a, b []byte) []byte {
	i := firstDiff(a, b)
	return a[max(0, i-60):min(len(a), i+60)]
}

func TestAnswerMatchesReferenceOnScenarios(t *testing.T) {
	split := 0 // sources rendered in two halves (64 items or more)
	for _, sc := range workload.AllScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			s := core.Session{Partitions: 4}
			cap, err := s.Capture(sc.Build(), sc.Input(workload.DefaultScale(1), 4))
			if err != nil {
				t.Fatal(err)
			}
			q, err := cap.Query(sc.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			if q.Matched.Len() == 0 {
				t.Fatal("scenario pattern matched nothing")
			}
			requireSameAnswer(t, q)
			all, err := cap.QueryAll()
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswer(t, all)
			for _, r := range []*core.QueryResult{q, all} {
				for _, s := range r.Traced.BySource {
					if s.Len() >= 64 {
						split++
					}
				}
			}
		})
	}
	if split == 0 {
		t.Error("no scenario source has 64 items: the two-goroutine rendering went untested")
	}
}

func TestAnswerMatchesReferenceOnCorpus(t *testing.T) {
	traced := 0
	for seed := int64(1); seed <= 60; seed++ {
		spec := corpus.Generate(seed)
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cap, err := core.Session{Partitions: 3}.Capture(p, spec.Inputs(3))
		if err != nil {
			continue // the generator also emits plans that fail at run time
		}
		pattern := spec.Pattern
		if pattern == nil {
			pattern = treepattern.New()
		}
		for _, query := range []func() (*core.QueryResult, error){
			func() (*core.QueryResult, error) { return cap.Query(pattern) },
			cap.QueryAll,
		} {
			q, err := query()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			traced += len(q.Items())
			requireSameAnswer(t, q)
		}
	}
	if traced == 0 {
		t.Fatal("no corpus seed traced anything")
	}
}

func TestAnswerMatchesReferenceOnEdgeCases(t *testing.T) {
	// tree covers one path per argument: a[2].b syntax, or a bare attribute
	// name the path grammar would not accept.
	tree := func(paths ...string) *backtrace.Tree {
		tr := backtrace.NewTree()
		for _, p := range paths {
			if parsed, err := path.Parse(p); err == nil {
				tr.EnsureContributing(parsed)
			} else {
				tr.EnsureContributing(path.New(p))
			}
		}
		return tr
	}
	rows := &engine.Dataset{Name: `in<&>.json`, Partitions: [][]engine.Row{{
		{ID: 3, Value: nested.Item(nested.F("text", nested.StringVal(`<b>Tom & "Jerry"</b>`)), nested.F("n", nested.Double(2)))},
		{ID: 5, Value: nested.Item(nested.F("bad \xff utf8", nested.StringVal("caf\xe9 \u2028 ✓")), nested.F("empty", nested.Item()), nested.F("none", nested.Bag()))},
		{ID: 5, Value: nested.Item(nested.F("shadowed", nested.Bool(true)))},
		{ID: 8, Value: nested.Item(nested.F("long", nested.StringVal(strings.Repeat("é", 100))))},
	}}}
	unnamed := &engine.Dataset{Partitions: [][]engine.Row{{{ID: 1, Value: nested.Int(7)}}}}
	matched := backtrace.NewStructure()
	matched.Add(1, tree("text"))
	shared := tree("text", "a[2].b")
	shared.Opaque = true

	cases := map[string]*core.QueryResult{
		"nothing traced": {Matched: backtrace.NewStructure(), Traced: &backtrace.Result{BySource: map[int]*backtrace.Structure{}}},
		"source with zero traced items": {Matched: matched, Sources: map[int]*engine.Dataset{1: rows, 4: rows},
			Traced: &backtrace.Result{BySource: map[int]*backtrace.Structure{
				1: backtrace.NewStructure(),
				4: {Items: []*backtrace.Item{{ID: 3, Tree: tree("text")}}},
			}}},
		"ids absent, repeated, unsorted, escaped": {Matched: matched, Sources: map[int]*engine.Dataset{2: rows},
			Traced: &backtrace.Result{BySource: map[int]*backtrace.Structure{
				2: {Items: []*backtrace.Item{
					{ID: 8, Tree: tree("long")}, {ID: 99, Tree: tree("gone")}, {ID: 5, Tree: tree("bad \xff utf8", "<k>")},
					{ID: 3, Tree: backtrace.NewTree()}, {ID: -1, Tree: tree("a[2].b")}, {ID: 5, Tree: tree("none")},
				}},
			}}},
		"one tree under many items and sources": {Matched: matched, Sources: map[int]*engine.Dataset{2: rows, 7: unnamed},
			Traced: &backtrace.Result{BySource: map[int]*backtrace.Structure{
				2: {Items: []*backtrace.Item{{ID: 8, Tree: shared}, {ID: 3, Tree: shared}, {ID: 5, Tree: tree("none")}, {ID: 99, Tree: shared}}},
				7: {Items: []*backtrace.Item{{ID: 1, Tree: shared}, {ID: 2, Tree: shared}}},
			}}},
		"unknown and unnamed sources": {Matched: matched, Sources: map[int]*engine.Dataset{7: unnamed},
			Traced: &backtrace.Result{BySource: map[int]*backtrace.Structure{
				6: {Items: []*backtrace.Item{{ID: 1, Tree: tree("x")}}},
				7: {Items: []*backtrace.Item{{ID: 1, Tree: tree("x")}}},
			}}},
	}
	for name, q := range cases {
		t.Run(name, func(t *testing.T) { requireSameAnswer(t, q) })
	}

	// An item without a tree has no report (Tree.String needs one) but
	// encodes, as "tree": null.
	treeless := &core.QueryResult{Matched: matched, Sources: map[int]*engine.Dataset{2: rows},
		Traced: &backtrace.Result{BySource: map[int]*backtrace.Structure{2: {Items: []*backtrace.Item{{ID: 3}}}}}}
	want, err := refJSON(treeless)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := treeless.JSON(); err != nil || !bytes.Equal(got, want) {
		t.Errorf("item without a tree:\n got %s (%v)\nwant %s", got, err, want)
	}
}

// TestReportPreviewCutsAtRuneBoundary pins the report's row preview: 120
// bytes of the row, never part of a rune, an ellipsis exactly when something
// is left out. The preview used to be a byte cut, which put half a rune into
// the report whenever a multi-byte character straddled byte 120.
func TestReportPreviewCutsAtRuneBoundary(t *testing.T) {
	// The row renders as {t: "…"}: five bytes before the text starts.
	const lead = `{t: "`
	text := func(asciiBefore int, r string, after int) string {
		return strings.Repeat("a", asciiBefore) + r + strings.Repeat("b", after)
	}
	cases := []struct {
		name string
		text string
		want string // the preview, without the ellipsis
	}{
		{"exactly 120 bytes", text(120-len(lead)-2, "", 0), lead + strings.Repeat("a", 113) + `"}`},
		{"121 bytes", text(120-len(lead)-1, "", 0), lead + strings.Repeat("a", 114) + `"`},
		{"2-byte rune straddles", text(119-len(lead), "é", 40), lead + strings.Repeat("a", 114)},
		{"2-byte rune ends at the limit", text(118-len(lead), "é", 40), lead + strings.Repeat("a", 113) + "é"},
		{"3-byte rune straddles by one", text(119-len(lead), "€", 40), lead + strings.Repeat("a", 114)},
		{"3-byte rune straddles by two", text(118-len(lead), "€", 40), lead + strings.Repeat("a", 113)},
		{"4-byte rune straddles by three", text(117-len(lead), "😀", 40), lead + strings.Repeat("a", 112)},
		{"4-byte rune starts at the limit", text(120-len(lead), "😀", 40), lead + strings.Repeat("a", 115)},
		{"long text, cut well before its end", text(60, "é", 5000), lead + strings.Repeat("a", 60) + "é" + strings.Repeat("b", 53)},
		{"all two-byte runes", strings.Repeat("é", 100), lead + strings.Repeat("é", 57)},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			row := nested.Item(nested.F("t", nested.StringVal(c.text)))
			tree := backtrace.NewTree()
			tree.EnsureContributing(path.New("t"))
			q := &core.QueryResult{
				Matched: backtrace.NewStructure(),
				Sources: map[int]*engine.Dataset{1: &engine.Dataset{Name: "in", Partitions: [][]engine.Row{{{ID: int64(i), Value: row}}}}},
				Traced:  &backtrace.Result{BySource: map[int]*backtrace.Structure{1: {Items: []*backtrace.Item{{ID: int64(i), Tree: tree}}}}},
			}
			report := q.Report()
			if !utf8.ValidString(report) {
				t.Errorf("report is not valid UTF-8: %q", report)
			}
			want := c.want
			if len(row.String()) > 120 {
				want += "…"
			}
			line := fmt.Sprintf("  input item %d: %s\n", i, want)
			if !strings.Contains(report, line) {
				t.Errorf("report misses %q:\n%s", line, report)
			}
			if len(c.want) > 120 {
				t.Errorf("test case keeps %d bytes", len(c.want))
			}
			requireSameAnswer(t, q)
		})
	}
}

// TestJSONReportsUnencodableRow pins the fix for a row whose encoding fails:
// JSON used to drop the "row" member and succeed.
func TestJSONReportsUnencodableRow(t *testing.T) {
	src := &engine.Dataset{Name: "in", Partitions: [][]engine.Row{{
		{ID: 1, Value: nested.Item(nested.F("x", nested.Double(1.5)))},
		{ID: 2, Value: nested.Item(nested.F("x", nested.Bag(nested.Double(math.Inf(1)))))},
	}}}
	items := []*backtrace.Item{{ID: 1, Tree: backtrace.NewTree()}, {ID: 2, Tree: backtrace.NewTree()}}
	q := &core.QueryResult{
		Matched: backtrace.NewStructure(),
		Traced:  &backtrace.Result{BySource: map[int]*backtrace.Structure{1: {Items: items}}},
		Sources: map[int]*engine.Dataset{1: src},
	}
	data, err := q.JSON()
	if err == nil {
		t.Fatalf("JSON encoded a non-finite double: %s", data)
	}
	if !strings.Contains(err.Error(), "input item 2") {
		t.Errorf("error does not name the item: %v", err)
	}
	if _, _, err := q.Answer(); err == nil {
		t.Error("Answer encoded a non-finite double")
	}
	// Report does not encode rows as JSON and still renders.
	if !strings.Contains(q.Report(), "input item 2") {
		t.Errorf("report lost the item:\n%s", q.Report())
	}
}

// TestAnswerSplitsLargeSources: a source with 64 items or more is rendered
// in two halves on two goroutines, and Answer renders the report beside the
// JSON. The bytes must be those of the references — trees shared across the
// halves, first seen in either, and an item without a row among them — and
// an unencodable row fails Answer with JSON's error, the first in item order
// when both halves hold one. Run under -race, it also checks that the
// renderers share nothing they write.
func TestAnswerSplitsLargeSources(t *testing.T) {
	const n = 150
	tree := func(p string) *backtrace.Tree {
		tr := backtrace.NewTree()
		tr.EnsureContributing(path.MustParse(p))
		return tr
	}
	shared, firstHalf, secondHalf := tree("x"), tree("a[2].b"), tree("b")
	rowsOf := func(bad ...int64) *engine.Dataset {
		var rows []engine.Row
		for id := int64(1); id <= n; id++ {
			x := nested.Double(float64(id) / 4)
			for _, b := range bad {
				if id == b {
					x = nested.Double(math.NaN())
				}
			}
			if id != 7 { // item 7 is traced but has no row
				rows = append(rows, engine.Row{ID: id, Value: nested.Item(nested.F("x", x), nested.F("s", nested.StringVal(strings.Repeat("é", int(id)))))})
			}
		}
		return &engine.Dataset{Name: "in", Partitions: [][]engine.Row{rows}}
	}
	query := func(src *engine.Dataset) *core.QueryResult {
		items := make([]*backtrace.Item, 0, n)
		for id := int64(n); id >= 1; id-- { // unsorted, as a trace may leave them
			tr := shared
			switch {
			case id%5 == 0 && id <= n/2:
				tr = firstHalf
			case id%7 == 0 && id > n/2:
				tr = secondHalf
			}
			items = append(items, &backtrace.Item{ID: id, Tree: tr})
		}
		small := []*backtrace.Item{{ID: 3, Tree: shared}, {ID: 4, Tree: secondHalf}}
		return &core.QueryResult{
			Matched: backtrace.NewStructure(),
			Traced:  &backtrace.Result{BySource: map[int]*backtrace.Structure{1: {Items: items}, 2: {Items: small}}},
			Sources: map[int]*engine.Dataset{1: src, 2: src},
		}
	}
	requireSameAnswer(t, query(rowsOf()))

	for _, bad := range [][]int64{{n - 10}, {n / 4, n - 10}} {
		q := query(rowsOf(bad...))
		_, jsonErr := q.JSON()
		if jsonErr == nil {
			t.Fatalf("rows %v: JSON encoded a non-finite double", bad)
		}
		if want := fmt.Sprintf("input item %d", bad[0]); !strings.Contains(jsonErr.Error(), want) {
			t.Errorf("rows %v: JSON error %q does not name %s, the first in item order", bad, jsonErr, want)
		}
		if _, _, err := q.Answer(); err == nil || err.Error() != jsonErr.Error() {
			t.Errorf("rows %v: Answer error %v, JSON error %v", bad, err, jsonErr)
		}
	}
}
