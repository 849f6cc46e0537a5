package engine

import (
	"testing"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// This file pins gather, the operators' path read, to Path.Eval: row by row
// it must give what Path.Eval gives with an absent path as nested.Null(), at
// the slots it is pointed at and nowhere else, and allocate nothing.

// evalRef is the per-row read gather replaces: Path.Eval with absent paths
// and explicit nulls as the canonical null.
func evalRef(p path.Path, v nested.Value) nested.Value {
	got, ok := p.Eval(v)
	if !ok || got.Kind() == nested.KindNull {
		return nested.Null()
	}
	return got
}

// identical reports whether a and b are the same value: equal, of one kind,
// and — for items and collections — over the same shape and backing array.
func identical(a, b nested.Value) bool {
	if a.Kind() != b.Kind() || !nested.Equal(a, b) || a.Shape() != b.Shape() {
		return false
	}
	av, bv := a.FieldValues(), b.FieldValues()
	if a.Kind().IsCollection() {
		av, bv = a.Elems(), b.Elems()
	}
	return len(av) == 0 || &av[0] == &bv[0]
}

// checkGather gathers p off rows into a sentinel-filled destination at
// (first, stride) and requires every written slot to hold evalRef's value
// and every other slot to keep the sentinel.
func checkGather(t *testing.T, p path.Path, rows []Row, first, stride int) {
	t.Helper()
	sentinel := nested.StringVal("<untouched>")
	dst := make([]nested.Value, first+len(rows)*stride+stride)
	for i := range dst {
		dst[i] = sentinel
	}
	gather(p, rows, dst, first, stride)
	for j := range dst {
		want := sentinel
		if i := (j - first) / stride; j >= first && (j-first)%stride == 0 && i < len(rows) {
			want = evalRef(p, rows[i].Value)
		}
		if !identical(dst[j], want) {
			t.Fatalf("%s: slot %d = %s (%s), want %s (%s)", p, j, dst[j], dst[j].Kind(), want, want.Kind())
		}
	}
}

var (
	gatherA      = nested.NewShape("x", "y", "a1")
	gatherB      = nested.NewShape("y", "x") // x and y at the other slots
	gatherAuthor = nested.NewShape("id", "name")
)

func gatherRow(sh *nested.Shape, vals ...nested.Value) Row { return Row{Value: sh.Item(vals...)} }

func TestGatherMatchesPathEval(t *testing.T) {
	author := func(id string) nested.Value {
		return gatherAuthor.Item(nested.StringVal(id), nested.StringVal("Ada "+id))
	}
	a := func(x int64) Row {
		return gatherRow(gatherA, nested.Int(x), nested.StringVal("ya"), author("p"))
	}
	b := func(x int64) Row { return gatherRow(gatherB, nested.StringVal("yb"), nested.Int(x)) }
	authors := nested.Bag(author("p1"), author("p2"), author("p3"))
	withAuthors := gatherRow(nested.NewShape("authors", "x"), authors, nested.Null())
	nonItems := []Row{{Value: nested.Int(3)}, {Value: nested.Null()}, {Value: nested.Value{}}, {Value: authors}, {Value: nested.StringVal("s")}}
	cases := []struct {
		name          string
		path          string
		rows          []Row
		first, stride int
	}{
		{"shapes A, B, A", "x", []Row{a(1), b(2), a(3), a(4), b(5), a(6)}, 0, 1},
		{"shapes A, B, A under a later step", "a1.id", []Row{a(1), b(2), a(3)}, 0, 1},
		{"non-item rows", "x", append(nonItems, a(7)), 0, 1},
		{"non-item rows, positional", "[2]", append(nonItems, a(7)), 0, 1},
		{"absent attribute", "z", []Row{a(1), b(2)}, 0, 1},
		{"explicit null", "x", []Row{withAuthors, a(1)}, 0, 1},
		{"multi-step path", "a1.id", []Row{a(1), a(2), withAuthors}, 0, 1},
		{"multi-step path through a non-item", "y.id", []Row{a(1), b(2)}, 0, 1},
		{"whole row", "", []Row{a(1), nonItems[0]}, 0, 1},
		{"positional step", "authors[2]", []Row{withAuthors, a(1), gatherRow(nested.NewShape("authors"), nested.Bag(author("q")))}, 0, 1},
		{"positional then attribute", "authors[3].name", []Row{withAuthors, gatherRow(nested.NewShape("authors"), nested.Bag(author("q")))}, 0, 1},
		{"bare positional step", "authors.[1].id", []Row{withAuthors, a(1)}, 0, 1},
		{"position past the end", "authors[9]", []Row{withAuthors}, 0, 1},
		{"pos placeholder", "authors[pos].id", []Row{withAuthors, a(1)}, 0, 1},
		{"pos placeholder first", "[pos]", []Row{{Value: authors}}, 0, 1},
		{"stride > 1", "x", []Row{a(1), b(2), withAuthors, a(4)}, 2, 3},
		{"stride > 1, multi-step", "a1.name", []Row{a(1), b(2), a(3)}, 1, 4},
		{"stride > 1, whole row", "", []Row{a(1), b(2), nonItems[0]}, 1, 2},
		{"stride > 1, positional", "authors.[2].id", []Row{withAuthors, a(1), withAuthors}, 3, 2},
		{"empty morsel", "x", nil, 0, 1},
		{"empty morsel, offset", "a1.id", nil, 5, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := path.Path{{Index: path.NoIndex}}
			if tc.path != "" {
				p = path.MustParse(tc.path)
			}
			checkGather(t, p, tc.rows, tc.first, tc.stride)
		})
	}
	t.Run("empty morsel, empty destination", func(t *testing.T) {
		gather(path.MustParse("a1.id"), nil, nil, 3, 4)
	})
}

// TestGatherAllocatesNothing: gather writes into its destination and
// allocates nothing, over a morsel of mixed shapes and every kind of step.
func TestGatherAllocatesNothing(t *testing.T) {
	rows := asRows(genRows(7, 256))
	dst := make([]nested.Value, 2*len(rows))
	for _, p := range []string{"val", "subs[1].k", "subs.[2].tags", "subs[pos].k", "absent"} {
		pp := path.MustParse(p)
		if allocs := testing.AllocsPerRun(20, func() { gather(pp, rows, dst, 1, 2) }); allocs != 0 {
			t.Errorf("gather %s: %.1f allocations per morsel, want 0", p, allocs)
		}
	}
}

// FuzzGather: over any JSON-lines morsel and any path, gather equals
// Path.Eval row by row.
func FuzzGather(f *testing.F) {
	f.Add([]byte(`{"a":1,"b":{"c":[1,2]}}`+"\n"+`{"b":{"c":null},"a":"x"}`+"\n"+`[1,2]`), "b.c[2]")
	f.Add([]byte(`{"a1":{"id":"p1"},"a2":{"id":"p2"}}`+"\n"+`{"a1":null}`+"\n"+`{"a1":{"name":"n"}}`), "a1.id")
	f.Add([]byte(`{"t":[{"x":1},{"x":2}]}`+"\n"+`{"t":[]}`+"\n"+`3`), "t.[1].x")
	f.Add([]byte(`{"a":1}`+"\n"+`{"a":2}`), "a[pos]")
	f.Fuzz(func(t *testing.T, data []byte, ps string) {
		vals, err := nested.ParseJSONLines(data)
		if err != nil {
			return
		}
		p, err := path.Parse(ps)
		if err != nil {
			return
		}
		checkGather(t, p, asRows(vals), 1, 2)
	})
}
