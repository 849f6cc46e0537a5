package engine

import (
	"slices"
	"strings"
	"testing"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// parseRows parses JSON lines into rows, failing the test on bad input.
func parseRows(t *testing.T, lines ...string) []nested.Value {
	t.Helper()
	vals, err := nested.ParseJSONLines([]byte(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestUnionVerdictIgnoresRowOrder: union's precondition reads every row of
// both inputs, so the run and Analyze give one verdict in either row order
// of the left input: a kind conflict within one side is unknown and
// compatible, attribute order does not matter, and an int against a string
// fails.
func TestUnionVerdictIgnoresRowOrder(t *testing.T) {
	for _, tc := range []struct {
		name        string
		left, right []string
		ok          bool
	}{
		{"kind conflict on one side", []string{`{"a":1}`, `{"a":"x"}`}, []string{`{"a":"y"}`}, true},
		{"attribute order", []string{`{"a":1,"b":2}`, `{"b":3,"a":4}`}, []string{`{"a":5,"b":6}`}, true},
		{"int against string", []string{`{"a":1}`, `{"a":2}`}, []string{`{"a":"y"}`}, false},
	} {
		for _, reversed := range []bool{false, true} {
			left := parseRows(t, tc.left...)
			if reversed {
				slices.Reverse(left)
			}
			inputs := map[string]*Dataset{
				"l": dataset(t, "l", left, 1),
				"r": dataset(t, "r", parseRows(t, tc.right...), 1),
			}
			p := NewPipeline()
			p.Union(p.Source("l"), p.Source("r"))
			_, runErr := Run(p, inputs, Options{Partitions: 2})
			_, analyzeErr := Analyze(p, InferInputTypes(inputs))
			if (runErr == nil) != tc.ok || (analyzeErr == nil) != tc.ok {
				t.Errorf("%s (left reversed %v): run error %v, analyze error %v; want success %v",
					tc.name, reversed, runErr, analyzeErr, tc.ok)
			}
		}
	}
}

// TestKindConflictKeepsNames: u is an int in one row and an item in
// another. Grouping by u still accesses the item's leaves, and Analyze
// treats u as unknown, so a column below it passes.
func TestKindConflictKeepsNames(t *testing.T) {
	rows := parseRows(t, `{"u":1,"v":1}`, `{"u":{"id":1,"name":"n"},"v":2}`)
	in := dataset(t, "l", rows, 1)
	p := NewPipeline()
	src := p.Source("l")
	agg := p.Aggregate(src, []GroupKey{Key("u")}, []AggSpec{Agg(AggCollectList, "v", "vs")})
	sink := newRecordingSink()
	if _, err := Run(p, map[string]*Dataset{"l": in}, Options{Partitions: 2, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	var accessed []string
	for _, info := range sink.infos {
		if info.OID == agg.ID() {
			for _, a := range info.Inputs[0].Accessed {
				accessed = append(accessed, a.String())
			}
		}
	}
	if want := []string{"u.id", "u.name", "v"}; !slices.Equal(accessed, want) {
		t.Errorf("aggregate accesses %v, want %v", accessed, want)
	}
	types := InferInputTypes(map[string]*Dataset{"l": in})
	if u, ok := types["l"].Get("u"); !ok || u.Kind != nested.KindNull {
		t.Errorf("u has type %s, %v; want unknown (null)", u, ok)
	}
	q := NewPipeline()
	q.Select(q.Source("l"), Column("x", "u.id"))
	if _, err := Analyze(q, types); err != nil {
		t.Errorf("select below an unknown attribute rejected: %v", err)
	}
}

// TestDatasetTypeAllocatesPerName: the merge allocates for the attributes
// and element types it meets first, not per row: four copies of a morsel
// cost what one does.
func TestDatasetTypeAllocatesPerName(t *testing.T) {
	rows := asRows(genRows(7, 256))
	one := &Dataset{Partitions: [][]Row{rows}}
	four := &Dataset{Partitions: [][]Row{rows, rows, rows, rows}}
	a1 := testing.AllocsPerRun(10, func() { datasetType(one, nil) })
	a4 := testing.AllocsPerRun(10, func() { datasetType(four, nil) })
	if a4 != a1 {
		t.Errorf("datasetType allocates %.0f times over four copies of a morsel, %.0f over one", a4, a1)
	}
}

// FuzzDatasetType: over any JSON-lines rows, the merge of their types
// (datasetType) equals the reference, at the root and at any path; and the
// rows reversed give a compatible type with the same top-level names.
func FuzzDatasetType(f *testing.F) {
	f.Add([]byte(`{"a":1}`+"\n"+`{"a":"x"}`+"\n"+`{"a":true}`+"\n"+`{"a":null}`), "a")
	f.Add([]byte(`{"a":1,"b":2}`+"\n"+`{"b":3.5,"a":4}`+"\n"+`{"c":[1,{"d":2}]}`), "c")
	f.Add([]byte(`{"u":1}`+"\n"+`{"u":{"id":1,"name":"n"}}`+"\n"+`{"u":[{"id":2}]}`+"\n"+`7`), "u.id")
	f.Add([]byte(`{"t":[]}`+"\n"+`{"t":[[1],[],[2.5]]}`+"\n"+`{"t":null}`), "t[1]")
	f.Fuzz(func(t *testing.T, data []byte, ps string) {
		vals, err := nested.ParseJSONLines(data)
		if err != nil {
			return
		}
		d := &Dataset{Partitions: [][]Row{asRows(vals)}}
		got, ok := datasetType(d, nil)
		want, wantOK := refDatasetType(d, nil)
		if ok != wantOK || !sameType(got, want) {
			t.Fatalf("datasetType = %s, %v; reference %s, %v", got, ok, want, wantOK)
		}
		rev := slices.Clone(vals)
		slices.Reverse(rev)
		back, _ := datasetType(&Dataset{Partitions: [][]Row{asRows(rev)}}, nil)
		names, backNames := fieldNames(got), fieldNames(back)
		slices.Sort(names)
		slices.Sort(backNames)
		if !nested.Compatible(got, back) || !slices.Equal(names, backNames) {
			t.Fatalf("rows give %s, reversed %s", got, back)
		}
		p, err := path.Parse(ps)
		if err != nil {
			return
		}
		got, _ = datasetType(d, p)
		if want, _ := refDatasetType(d, p); !sameType(got, want) {
			t.Fatalf("datasetType at %s = %s; reference %s", p, got, want)
		}
	})
}
