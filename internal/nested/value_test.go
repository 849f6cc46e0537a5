package nested

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func sampleTweet() Value {
	return Item(
		F("text", StringVal("Hello @ls @jm @ls")),
		F("user", Item(F("id_str", StringVal("lp")), F("name", StringVal("Lisa Paul")))),
		F("user_mentions", Bag(
			Item(F("id_str", StringVal("ls")), F("name", StringVal("Lauren Smith"))),
			Item(F("id_str", StringVal("jm")), F("name", StringVal("John Miller"))),
			Item(F("id_str", StringVal("ls")), F("name", StringVal("Lauren Smith"))),
		)),
		F("retweet_cnt", Int(0)),
	)
}

func TestConstants(t *testing.T) {
	if v, ok := Int(7).AsInt(); !ok || v != 7 {
		t.Errorf("Int(7).AsInt() = %d, %v", v, ok)
	}
	if v, ok := Double(2.5).AsDouble(); !ok || v != 2.5 {
		t.Errorf("Double(2.5).AsDouble() = %g, %v", v, ok)
	}
	if v, ok := Int(7).AsDouble(); !ok || v != 7 {
		t.Errorf("Int(7).AsDouble() = %g, %v (ints widen to double)", v, ok)
	}
	if v, ok := StringVal("x").AsString(); !ok || v != "x" {
		t.Errorf("StringVal(x).AsString() = %q, %v", v, ok)
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Errorf("Bool(true).AsBool() = %v, %v", v, ok)
	}
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	if (Value{}).IsNull() != true {
		t.Error("zero Value should report IsNull")
	}
}

func TestItemAccess(t *testing.T) {
	tw := sampleTweet()
	if got := tw.NumFields(); got != 4 {
		t.Fatalf("NumFields = %d, want 4", got)
	}
	user, ok := tw.Get("user")
	if !ok {
		t.Fatal("Get(user) missing")
	}
	id, ok := user.Get("id_str")
	if !ok {
		t.Fatal("Get(id_str) missing")
	}
	if s, _ := id.AsString(); s != "lp" {
		t.Errorf("user.id_str = %q, want lp", s)
	}
	if _, ok := tw.Get("nope"); ok {
		t.Error("Get(nope) should be absent")
	}
	names := tw.Shape().Names()
	want := []string{"text", "user", "user_mentions", "retweet_cnt"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Shape().Names() = %v, want %v", names, want)
	}
}

func TestCollectionAccess(t *testing.T) {
	b := Bag(Int(1), Int(2), Int(2))
	if b.Len() != 3 {
		t.Errorf("bag Len = %d, want 3", b.Len())
	}
	if v, ok := b.At(1); !ok || mustInt(t, v) != 2 {
		t.Errorf("bag At(1) = %v, %v", v, ok)
	}
	if _, ok := b.At(3); ok {
		t.Error("bag At(3) should be out of range")
	}
	s := Set(Int(1), Int(2), Int(2))
	if s.Len() != 2 {
		t.Errorf("set Len = %d, want 2 (dedup)", s.Len())
	}
	s2 := s.Append(Int(2))
	if s2.Len() != 2 {
		t.Errorf("set Append dup Len = %d, want 2", s2.Len())
	}
	s3 := s.Append(Int(3))
	if s3.Len() != 3 {
		t.Errorf("set Append new Len = %d, want 3", s3.Len())
	}
	b2 := b.Append(Int(2))
	if b2.Len() != 4 {
		t.Errorf("bag Append Len = %d, want 4 (bags keep duplicates)", b2.Len())
	}
}

func TestWithFieldWithoutField(t *testing.T) {
	it := Item(F("a", Int(1)), F("b", Int(2)))
	up := it.WithField("b", Int(9))
	if v, _ := up.Get("b"); mustInt(t, v) != 9 {
		t.Errorf("WithField replace: b = %v", v)
	}
	add := it.WithField("c", Int(3))
	if add.NumFields() != 3 {
		t.Errorf("WithField append: NumFields = %d", add.NumFields())
	}
	del := it.WithoutField("a")
	if _, ok := del.Get("a"); ok || del.NumFields() != 1 {
		t.Errorf("WithoutField: %v", del)
	}
	// original untouched
	if v, _ := it.Get("b"); mustInt(t, v) != 2 {
		t.Error("WithField mutated original")
	}
}

func TestEqualAndCompare(t *testing.T) {
	a := sampleTweet()
	b := sampleTweet()
	if !Equal(a, b) {
		t.Error("identical tweets not Equal")
	}
	c := b.WithField("retweet_cnt", Int(1))
	if Equal(a, c) {
		t.Error("different tweets Equal")
	}
	if Compare(a, a) != 0 {
		t.Error("Compare(a,a) != 0")
	}
	if Compare(Int(1), Int(2)) >= 0 || Compare(Int(2), Int(1)) <= 0 {
		t.Error("int Compare ordering broken")
	}
	if Compare(Int(1), StringVal("a")) == 0 {
		t.Error("cross-kind Compare should not be 0")
	}
	// order of attributes matters for equality
	x := Item(F("a", Int(1)), F("b", Int(2)))
	y := Item(F("b", Int(2)), F("a", Int(1)))
	if Equal(x, y) {
		t.Error("items with different attribute order should not be Equal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := sampleTweet()
	c := a.Clone()
	if !Equal(a, c) {
		t.Fatal("clone differs")
	}
	// Mutating the clone's internals must not affect the original.
	mentions, _ := c.Get("user_mentions")
	elems := mentions.Elems()
	elems[0] = Item(F("id_str", StringVal("zz")))
	orig, _ := a.Get("user_mentions")
	first, _ := orig.At(0)
	if s, _ := mustGet(t, first, "id_str").AsString(); s != "ls" {
		t.Error("clone shares element storage with original")
	}
}

func TestHashConsistency(t *testing.T) {
	a := sampleTweet()
	b := sampleTweet()
	if a.Hash() != b.Hash() {
		t.Error("equal values must hash equally")
	}
	c := a.WithField("retweet_cnt", Int(5))
	if a.Hash() == c.Hash() {
		t.Error("hash collision on trivially different values (suspicious)")
	}
	// Field names participate in the hash.
	x := Item(F("a", Int(1)))
	y := Item(F("b", Int(1)))
	if x.Hash() == y.Hash() {
		t.Error("hash ignores attribute names")
	}
}

func TestStringRendering(t *testing.T) {
	v := Item(F("a", Int(1)), F("b", Bag(StringVal("x"))))
	got := v.String()
	want := `{a: 1, b: ["x"]}`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

// TestAppendStringIsAPrefixOfString: the bounded rendering is String()
// itself when that fits the limit; otherwise it is longer than the limit,
// agrees with String() on the first limit bytes, and holds every rune that
// starts among them whole — so a caller may cut it at a rune boundary.
func TestAppendStringIsAPrefixOfString(t *testing.T) {
	long := strings.Repeat("é€😀x", 40)
	values := []Value{
		Null(), Int(-12), Double(2.5), Bool(true), StringVal(""), StringVal("plain"), StringVal(long),
		StringVal("bad \xff\xfe utf8 " + strings.Repeat("\xa9", 30)), StringVal("quote \" and \n newline " + long),
		sampleTweet(), Bag(), Item(),
		Item(F("né\xffme", StringVal(long)), F("b", Bag(Int(1), StringVal(long), Item(F("c", Set(StringVal("é"), Int(2))))))),
		Bag(StringVal(long), StringVal(long), sampleTweet()),
	}
	for _, v := range values {
		full := v.String()
		for limit := 0; limit <= len(full)+2; limit++ {
			got := string(v.AppendString([]byte("pre"), limit))
			if !strings.HasPrefix(got, "pre") {
				t.Fatalf("limit %d: dst not kept: %q", limit, got)
			}
			got = got[3:]
			if len(full) <= limit {
				if got != full {
					t.Fatalf("limit %d: got %q, want all of %q", limit, got, full)
				}
				continue
			}
			if len(got) <= limit || got[:limit] != full[:limit] {
				t.Fatalf("limit %d: got %q, want more than %d bytes starting like %q", limit, got, limit, full)
			}
			for p := range full[:limit] { // rune starts of String()
				_, size := utf8.DecodeRuneInString(full[p:])
				if len(got) < p+size || got[p:p+size] != full[p:p+size] {
					t.Fatalf("limit %d: the rune at byte %d of %q is cut short in %q", limit, p, full, got)
				}
			}
		}
	}
}

func TestSortElems(t *testing.T) {
	b := Bag(Int(3), Int(1), Int(2))
	s := b.SortElems()
	var got []int64
	for _, e := range s.Elems() {
		got = append(got, mustInt(t, e))
	}
	if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("SortElems = %v", got)
	}
	if mustInt(t, b.Elems()[0]) != 3 {
		t.Error("SortElems mutated receiver")
	}
}

// randomValue builds a random value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Int(r.Int63n(1000))
		case 1:
			return Double(float64(r.Intn(100)) / 4)
		case 2:
			return StringVal(randomWord(r))
		default:
			return Bool(r.Intn(2) == 0)
		}
	}
	switch r.Intn(6) {
	case 0:
		return Int(r.Int63n(1000))
	case 1:
		return StringVal(randomWord(r))
	case 2:
		return Bool(r.Intn(2) == 0)
	case 3: // item
		n := 1 + r.Intn(3)
		fields := make([]Field, 0, n)
		for i := 0; i < n; i++ {
			fields = append(fields, F(string(rune('a'+i)), randomValue(r, depth-1)))
		}
		return Item(fields...)
	default: // bag of homogeneous scalars to respect the data model
		n := r.Intn(4)
		elems := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			elems = append(elems, Int(r.Int63n(50)))
		}
		return Bag(elems...)
	}
}

func randomWord(r *rand.Rand) string {
	words := []string{"hello", "world", "good", "BTS", "@jm", "@lp", "x"}
	return words[r.Intn(len(words))]
}

func TestPropertyEqualImpliesEqualHash(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := randomValue(rr, 3)
		c := v.Clone()
		return Equal(v, c) && v.Hash() == c.Hash() && Compare(v, c) == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomValue(rand.New(rand.NewSource(s1)), 3)
		b := randomValue(rand.New(rand.NewSource(s2)), 3)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mustInt(t *testing.T, v Value) int64 {
	t.Helper()
	i, ok := v.AsInt()
	if !ok {
		t.Fatalf("value %s is not an int", v)
	}
	return i
}

func mustGet(t *testing.T, v Value, name string) Value {
	t.Helper()
	out, ok := v.Get(name)
	if !ok {
		t.Fatalf("attribute %q missing in %s", name, v)
	}
	return out
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindInvalid: "invalid", KindNull: "null", KindInt: "int",
		KindDouble: "double", KindString: "string", KindBool: "bool",
		KindItem: "item", KindBag: "bag", KindSet: "set",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should print its number")
	}
}
