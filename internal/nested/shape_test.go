package nested

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the size the value model is built around: at 32
// bytes a Value is four words the compiler keeps in registers, half of the
// string-and-slice layout before it; every operator copies Values.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Errorf("Value is %d bytes, want 32", size)
	}
}

// TestValueWordsByKind: ref is nil exactly when a value holds no bytes or
// values, num is the count of those it holds, and the accessors of one kind
// read nothing out of another's words: str is "" off strings, vs nil off
// scalars. Append leaves anything but a collection as it was.
func TestValueWordsByKind(t *testing.T) {
	for _, c := range []struct {
		v     Value
		count int // bytes of a string, values of an item or collection, -1 for other scalars
	}{
		{Null(), -1}, {Int(-7), -1}, {Double(2.5), -1}, {Bool(true), -1},
		{StringVal(""), 0}, {StringVal("abc"), 3},
		{Item(), 0}, {Item(F("a", Int(1)), F("b", Null())), 2},
		{Bag(), 0}, {Bag(Int(1), Int(1)), 2}, {Set(), 0}, {Set(Int(1), Int(1)), 1},
	} {
		v := c.v
		if c.count >= 0 && (v.ref == nil) != (c.count == 0) {
			t.Errorf("%s: ref nil is %v with %d bytes or values", v, v.ref == nil, c.count)
		}
		if c.count >= 0 && v.num != uint64(c.count) {
			t.Errorf("%s: num %d, want %d", v, v.num, c.count)
		}
		if s := v.str(); v.kind != KindString && s != "" {
			t.Errorf("%s: str %q off a string", v, s)
		}
		if vals := v.vs(); v.kind < KindItem && vals != nil {
			t.Errorf("%s: vs %v off a scalar", v, vals)
		}
		if w := v.Append(Int(9)); !v.kind.IsCollection() && (w != v) {
			t.Errorf("%s: Append changed a non-collection to %s", v, w)
		}
	}
	if n, _ := Int(-7).AsInt(); n != -7 {
		t.Errorf("Int(-7) reads back %d", n)
	}
	if d, _ := Double(2.5).AsDouble(); d != 2.5 {
		t.Errorf("Double(2.5) reads back %v", d)
	}
}

// TestShapeSharing: the rows of one ParseJSONLines call with the same
// attribute sequence point to one Shape, nested items included; shapes that
// differ only in attribute order are distinct and not Equal.
func TestShapeSharing(t *testing.T) {
	src := strings.Repeat(`{"id":1,"user":{"id_str":"a","name":"b"},"tags":[{"text":"x"},{"text":"y"}]}`+"\n", 50) +
		`{"user":{"name":"b","id_str":"a"},"id":1,"tags":[]}` + "\n" + `{"id":2}` + "\n"
	rows, err := ParseJSONLines([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	user := func(v Value) Value { u, _ := v.Get("user"); return u }
	first := rows[0]
	for i, row := range rows[:50] {
		if row.Shape() != first.Shape() || user(row).Shape() != user(first).Shape() {
			t.Fatalf("row %d does not share the shapes of row 0", i)
		}
		tags, _ := row.Get("tags")
		for _, tag := range tags.Elems() {
			if first, _ := tags.At(0); tag.Shape() != first.Shape() {
				t.Fatalf("row %d: tag items do not share a shape", i)
			}
		}
	}
	swapped := rows[50]
	if swapped.Shape() == first.Shape() || swapped.Shape().Equal(first.Shape()) || user(swapped).Shape().Equal(user(first).Shape()) {
		t.Error("shapes that differ in attribute order must be distinct and unequal")
	}
	if Equal(user(swapped), user(first)) || Equal(Item(F("a", Int(1)), F("b", Int(2))), Item(F("b", Int(2)), F("a", Int(1)))) {
		t.Error("items that differ in attribute order must not be Equal")
	}
	if rows[51].Shape() == first.Shape() || rows[51].NumFields() != 1 {
		t.Errorf("a prefix of a shape is another shape: %s", rows[51])
	}
	if !NewShape("a", "b").Equal(NewShape("a", "b")) || NewShape("a").Equal(NewShape("a", "b")) || !NewShape().Equal(Item().Shape()) {
		t.Error("Shape.Equal is not 'same names in the same order'")
	}
	if Int(1).Shape() != nil || Bag(Item()).Shape() != nil {
		t.Error("only items have a shape")
	}
}

// TestShapeAliasing: no accessor hands out memory a caller could change a
// value through, and deriving an item from one row leaves its siblings be.
func TestShapeAliasing(t *testing.T) {
	shape := NewShape("a", "b")
	rows := []Value{shape.Item(Int(1), Int(2)), shape.Item(Int(3), Int(4))}
	want := []string{rows[0].String(), rows[1].String()}

	fields := rows[0].Fields()
	fields[0] = F("zz", Int(99))
	_ = append(fields, F("intruder", Int(1)))
	names := rows[0].Shape().Names()
	names[0] = "zz"
	shapeNames := shape.Names()
	shapeNames[1] = "zz"
	in := []string{"p", "q"}
	fromCaller := NewShape(in...)
	in[0] = "zz"
	if fromCaller.Names()[0] != "p" {
		t.Error("NewShape kept the caller's slice")
	}

	added := rows[0].WithField("c", Int(5))
	replaced := rows[0].WithField("a", Int(7))
	removed := rows[0].WithoutField("a")
	if added.String() != "{a: 1, b: 2, c: 5}" || replaced.String() != "{a: 7, b: 2}" || removed.String() != "{b: 2}" {
		t.Errorf("derived items: %s, %s, %s", added, replaced, removed)
	}
	if replaced.Shape() != shape {
		t.Error("replacing a value must keep the item's shape")
	}
	if added.Shape() == shape || shape.Len() != 2 || rows[1].Shape() != shape {
		t.Error("adding an attribute must not touch the shape its siblings share")
	}
	for i, row := range rows {
		if row.String() != want[i] {
			t.Errorf("row %d changed: %s, want %s", i, row, want[i])
		}
	}
	if got := Int(1).WithField("a", Int(2)).String(); got != "{a: 2}" {
		t.Errorf("WithField on a constant: %s", got)
	}
}

// TestDerivedShapesAreShared: WithField and WithoutField derive each shape
// once per (parent shape, name), so rows derived alike share it, down a chain
// of derivations too; past maxToggled names a parent derives a fresh shape
// per call, still Equal to the cached kind.
func TestDerivedShapesAreShared(t *testing.T) {
	shape := NewShape("key", "authors", "crossref")
	rows := []Value{
		shape.Item(StringVal("a"), Bag(Int(1)), StringVal("x")),
		shape.Item(StringVal("b"), Bag(), StringVal("y")),
	}
	// D5's countAuthors: one attribute out, another in.
	derive := func(v Value) Value {
		authors, _ := v.Get("authors")
		return v.WithoutField("authors").WithField("n_authors", Int(int64(authors.Len())))
	}
	d0, d1 := derive(rows[0]), derive(rows[1])
	if d0.Shape() != d1.Shape() || rows[0].WithoutField("authors").Shape() != rows[1].WithoutField("authors").Shape() {
		t.Error("rows of one shape derived alike do not share the derived shape")
	}
	if got := d1.String(); got != `{key: "b", crossref: "y", n_authors: 0}` {
		t.Errorf("derived item %s", got)
	}
	if rows[0].WithField("crossref", Null()).Shape() != shape || rows[0].WithoutField("absent").Shape() != shape {
		t.Error("replacing or removing an absent attribute must keep the item's shape")
	}

	parent := NewShape("a")
	item := parent.Item(Int(1))
	for i := 0; i < maxToggled; i++ {
		name := fmt.Sprint("n", i)
		if item.WithField(name, Int(2)).Shape() != item.WithField(name, Int(3)).Shape() {
			t.Errorf("derivation %d is not cached", i)
		}
	}
	if item.WithoutField("a").Shape() == item.WithoutField("a").Shape() {
		t.Errorf("derivation %d is cached past the bound of %d", maxToggled+1, maxToggled)
	}
	over, again := item.WithField("extra", Int(2)), item.WithField("extra", Int(2))
	if over.Shape() == again.Shape() || !over.Shape().Equal(again.Shape()) || !Equal(over, again) {
		t.Error("past the bound a derivation must build a fresh shape Equal to the last one")
	}
}

// TestDerivedShapesConcurrently: goroutines deriving from one parent at once
// all get the one cached shape per name (run under -race).
func TestDerivedShapesConcurrently(t *testing.T) {
	parent := NewShape("a", "b")
	item := parent.Item(Int(1), Int(2))
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const workers = 8
	got := make([][]*Shape, workers)
	done := make(chan struct{})
	for w := range got {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range 50 {
				name := names[(w+i)%len(names)]
				var v Value
				if name == "a" || name == "b" {
					v = item.WithoutField(name)
				} else {
					v = item.WithField(name, Int(int64(i)))
				}
				got[w] = append(got[w], v.Shape())
			}
		}()
	}
	for range got {
		<-done
	}
	first := map[string]*Shape{}
	for w, shapes := range got {
		for i, s := range shapes {
			name := names[(w+i)%len(names)]
			if f, ok := first[name]; !ok {
				first[name] = s
			} else if f != s {
				t.Fatalf("worker %d call %d: %s derived a second shape", w, i, name)
			}
		}
	}
}

// TestWithFieldMatchesItemReference: WithField and WithoutField build items
// whose names, Equal, Hash, AppendNorm and AppendJSON are those of the same
// item built field list by field list through Item, for a present, an absent
// and a duplicated name and for receivers that are no item.
func TestWithFieldMatchesItemReference(t *testing.T) {
	refWith := func(v Value, name string, val Value) Value {
		fields := v.Fields()
		for i := range fields {
			if fields[i].Name == name {
				fields[i].Value = val
				return Item(fields...)
			}
		}
		return Item(append(fields, F(name, val))...)
	}
	refWithout := func(v Value, name string) Value {
		fields := v.Fields()
		out := fields[:0]
		for _, f := range fields {
			if f.Name != name {
				out = append(out, f)
			}
		}
		return Item(out...)
	}
	receivers := []Value{
		Item(F("a", Int(1)), F("b", StringVal("x"))),
		Item(F("a", Int(1)), F("b", Int(2)), F("a", Int(3))),
		Item(),
		Int(7), Null(), Bag(Int(1)), StringVal("s"),
	}
	same := func(what string, got, want Value) {
		t.Helper()
		gj, gerr := got.AppendJSON(nil, 64)
		wj, werr := want.AppendJSON(nil, 64)
		if !Equal(got, want) || got.String() != want.String() || got.Hash() != want.Hash() ||
			string(got.AppendNorm(nil)) != string(want.AppendNorm(nil)) || string(gj) != string(wj) || (gerr == nil) != (werr == nil) ||
			got.Kind() == KindItem && strings.Join(got.Shape().Names(), ",") != strings.Join(want.Shape().Names(), ",") {
			t.Errorf("%s: %s, reference %s", what, got, want)
		}
	}
	for _, v := range receivers {
		for _, name := range []string{"a", "b", "c"} {
			same(fmt.Sprintf("%s.WithField(%s)", v, name), v.WithField(name, Int(9)), refWith(v, name, Int(9)))
			same(fmt.Sprintf("%s.WithoutField(%s)", v, name), v.WithoutField(name), refWithout(v, name))
		}
	}
}

// refSet is the quadratic body Set had, kept as the reference for its
// contract: first occurrence kept, element order kept.
func refSet(elems ...Value) Value {
	out := make([]Value, 0, len(elems))
	for _, e := range elems {
		dup := false
		for _, o := range out {
			if Equal(o, e) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return seq(KindSet, nil, out)
}

func TestSetMatchesQuadraticReference(t *testing.T) {
	negZero, nan2 := Double(math.Copysign(0, -1)), Double(math.Float64frombits(0xfff8000000000002))
	distinct := func(i int) Value {
		switch i % 4 {
		case 0:
			return Int(int64(i))
		case 1:
			return StringVal(fmt.Sprint("s", i))
		case 2:
			return Item(F("k", Int(int64(i))), F("tags", Bag(StringVal("x"), Int(int64(i%7)))))
		}
		return Bag(Bag(Int(int64(i))), Bag())
	}
	for _, n := range []int{0, 1, 2, 17, 1000} {
		base := make([]Value, n)
		for i := range base {
			base[i] = distinct(i)
		}
		cases := map[string][]Value{"distinct": base}
		if n > 0 {
			cases["duplicates first"] = append([]Value{base[n-1], base[n-1], base[0]}, base...)
			cases["duplicates last"] = append(append([]Value{}, base...), base[0], base[n/2], base[n-1])
			all := make([]Value, n)
			for i := range all {
				all[i] = base[0]
			}
			cases["duplicates all"] = all
			cases["zeros and NaNs"] = append(append([]Value{negZero, Double(math.NaN())}, base...), Double(0), nan2, Int(0), negZero)
		}
		for name, elems := range cases {
			got, want := Set(elems...), refSet(elems...)
			if !sameShape(got, want) {
				t.Errorf("n=%d, %s: Set has %d elements, reference %d", n, name, got.Len(), want.Len())
			}
		}
	}
}

// TestCompareIsTotalOnDoubles: NaN sorts before every other double and equal
// to itself, so sorting is input-order independent, and Compare is 0 exactly
// where Equal holds for constants of one kind.
func TestCompareIsTotalOnDoubles(t *testing.T) {
	doubles := []Value{
		Double(math.NaN()), Double(math.Float64frombits(0xfff8000000000002)), Double(math.Inf(-1)),
		Double(math.Copysign(0, -1)), Double(0), Double(1), Double(math.Inf(1)),
	}
	rank := []int{0, 0, 1, 2, 2, 3, 4} // position in the order; equal ranks compare 0
	for i, a := range doubles {
		for j, b := range doubles {
			want := cmp.Compare(rank[i], rank[j])
			if got := Compare(a, b); got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a, b, got, want)
			}
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%s, %s) is not antisymmetric", a, b)
			}
			for _, c := range doubles {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("Compare is not transitive over %s, %s, %s", a, b, c)
				}
			}
		}
	}
	constants := append([]Value{Int(-1), Int(0), Int(7), StringVal(""), StringVal("a"), StringVal("b"), Bool(false), Bool(true)}, doubles...)
	for _, a := range constants {
		for _, b := range constants {
			if a.Kind() == b.Kind() && (Compare(a, b) == 0) != Equal(a, b) {
				t.Errorf("Compare(%s, %s) = %d, Equal = %v", a, b, Compare(a, b), Equal(a, b))
			}
		}
	}
	sorted := Bag(Double(1), Double(math.NaN()), Double(-1)).SortElems()
	flipped := Bag(Double(-1), Double(math.NaN()), Double(1)).SortElems()
	if sorted.String() != "[NaN, -1, 1]" || flipped.String() != sorted.String() {
		t.Errorf("sorting over a NaN depends on the input order: %s, %s", sorted, flipped)
	}
}
