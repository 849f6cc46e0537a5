package path

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pebble/internal/nested"
)

func tweet102() nested.Value {
	// The result item d102 of Tab. 2 / Ex. 4.4.
	return nested.Item(
		nested.F("user", nested.Item(
			nested.F("id_str", nested.StringVal("lp")),
			nested.F("name", nested.StringVal("Lisa Paul")),
		)),
		nested.F("tweets", nested.Bag(
			nested.Item(nested.F("text", nested.StringVal("Hello @ls @jm @ls"))),
			nested.Item(nested.F("text", nested.StringVal("Hello World"))),
			nested.Item(nested.F("text", nested.StringVal("Hello World"))),
			nested.Item(nested.F("text", nested.StringVal("Hello @lp"))),
		)),
	)
}

func TestParseAndString(t *testing.T) {
	cases := []string{
		"a",
		"a.b",
		"user_mentions[1]",
		"user_mentions[1].id_str",
		"tweets[pos].text",
		"a.[2].c",
		"[3]",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "a..b", "a[", "a[x]", "a[0]", "a[-1]", "a]b", "a[1]extra]"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input should panic")
		}
	}()
	MustParse("a..b")
}

func TestEvalPaperExample(t *testing.T) {
	d := tweet102()
	// Ex. 4.4: d102.tweets evaluates to a list of four data items.
	tw, ok := MustParse("tweets").Eval(d)
	if !ok || tw.Len() != 4 {
		t.Fatalf("tweets eval: ok=%v len=%d", ok, tw.Len())
	}
	// d102.tweets[2].text points to the first "Hello World".
	v, ok := MustParse("tweets[2].text").Eval(d)
	if !ok {
		t.Fatal("tweets[2].text not found")
	}
	if s, _ := v.AsString(); s != "Hello World" {
		t.Errorf("tweets[2].text = %q, want Hello World", s)
	}
	if _, ok := MustParse("tweets[9].text").Eval(d); ok {
		t.Error("out-of-range position should fail")
	}
	if _, ok := MustParse("nope").Eval(d); ok {
		t.Error("missing attribute should fail")
	}
	if _, ok := MustParse("tweets[pos].text").Eval(d); ok {
		t.Error("placeholder paths are not evaluable")
	}
}

func TestPrefixOperations(t *testing.T) {
	p := MustParse("user_mentions[2].id_str")
	if !p.HasPrefix(MustParse("user_mentions[2]")) {
		t.Error("concrete prefix should match")
	}
	if !p.HasPrefix(MustParse("user_mentions[pos]")) {
		t.Error("[pos] prefix must match any concrete position")
	}
	if p.HasPrefix(MustParse("user_mentions[3]")) {
		t.Error("different position should not match")
	}
	if p.HasPrefix(MustParse("user_mentions")) {
		t.Error("unindexed step should not match indexed step")
	}
	got, ok := p.ReplacePrefix(MustParse("user_mentions[pos]"), MustParse("m_user"))
	if !ok || got.String() != "m_user.id_str" {
		t.Errorf("ReplacePrefix = %v, %v", got, ok)
	}
	if _, ok := p.ReplacePrefix(MustParse("zzz"), MustParse("y")); ok {
		t.Error("ReplacePrefix with non-prefix should fail")
	}
}

func TestSchemaLevel(t *testing.T) {
	p := MustParse("a[3].b.c[1]")
	if got := p.SchemaLevel().String(); got != "a[pos].b.c[pos]" {
		t.Errorf("SchemaLevel = %s", got)
	}
	if !p.SchemaLevel().HasPlaceholder() {
		t.Error("HasPlaceholder after SchemaLevel = false")
	}
	if MustParse("a.b").HasPlaceholder() {
		t.Error("plain path reports placeholder")
	}
}

func TestAppendCloneEqual(t *testing.T) {
	p := New("a", "b")
	q := p.Append(Step{Attr: "c", Index: NoIndex})
	if p.String() != "a.b" {
		t.Error("Append mutated receiver")
	}
	if q.String() != "a.b.c" {
		t.Errorf("Append = %s", q)
	}
	if !p.Clone().Equal(p) || p.Equal(q) {
		t.Error("Equal/Clone inconsistent")
	}
}

func TestSet(t *testing.T) {
	s := NewSet(MustParse("a"), MustParse("a.b"))
	if !s.Add(MustParse("c")) {
		t.Error("Add new path returned false")
	}
	if s.Add(MustParse("a")) {
		t.Error("Add duplicate returned true")
	}
	if s.Len() != 3 || !s.Contains(MustParse("a.b")) || s.Contains(MustParse("zz")) {
		t.Errorf("set state wrong: %v", s.Strings())
	}
	want := []string{"a", "a.b", "c"}
	if !reflect.DeepEqual(s.Strings(), want) {
		t.Errorf("Strings = %v, want %v (insertion order)", s.Strings(), want)
	}
	var nilSet *Set
	if nilSet.Len() != 0 || nilSet.Contains(MustParse("a")) || nilSet.Paths() != nil {
		t.Error("nil Set should behave as empty")
	}
}

func TestEnumerate(t *testing.T) {
	d := nested.Item(
		nested.F("a", nested.Int(1)),
		nested.F("b", nested.Bag(
			nested.Item(nested.F("x", nested.Int(2))),
			nested.Item(nested.F("x", nested.Int(3))),
		)),
	)
	paths := Enumerate(d, 0)
	var strs []string
	for _, p := range paths {
		strs = append(strs, p.String())
	}
	joined := strings.Join(strs, ";")
	for _, want := range []string{"a", "b", "b[1]", "b[2]", "b[1].x", "b[2].x"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Enumerate missing %q in %v", want, strs)
		}
	}
	shallow := Enumerate(d, 1)
	if len(shallow) != 2 {
		t.Errorf("depth-1 Enumerate = %v", shallow)
	}
}

func TestPropertyParseStringRoundTrip(t *testing.T) {
	attrs := []string{"a", "user", "text", "user_mentions", "m_user", "id_str"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		p := make(Path, 0, n)
		for i := 0; i < n; i++ {
			s := Step{Attr: attrs[r.Intn(len(attrs))], Index: NoIndex}
			switch r.Intn(3) {
			case 1:
				s.Index = 1 + r.Intn(5)
			case 2:
				s.Index = Pos
			}
			p = append(p, s)
		}
		back, err := Parse(p.String())
		return err == nil && back.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEvalMatchesEnumerate(t *testing.T) {
	// Every enumerated path must evaluate successfully in its context.
	d := tweet102()
	for _, p := range Enumerate(d, 0) {
		if _, ok := p.Eval(d); !ok {
			t.Errorf("enumerated path %s does not evaluate", p)
		}
	}
}

func TestRedact(t *testing.T) {
	d := tweet102()
	masked := Redact(d, []Path{
		MustParse("user.id_str"),
		MustParse("tweets[2].text"),
	}, nested.StringVal("█"))
	// Targets replaced.
	if v, _ := MustParse("user.id_str").Eval(masked); func() bool { s, _ := v.AsString(); return s != "█" }() {
		t.Errorf("id_str not redacted: %s", v)
	}
	if v, _ := MustParse("tweets[2].text").Eval(masked); func() bool { s, _ := v.AsString(); return s != "█" }() {
		t.Errorf("tweets[2].text not redacted: %s", v)
	}
	// Everything else untouched.
	if v, _ := MustParse("user.name").Eval(masked); func() bool { s, _ := v.AsString(); return s != "Lisa Paul" }() {
		t.Errorf("name should be untouched: %s", v)
	}
	if v, _ := MustParse("tweets[1].text").Eval(masked); func() bool { s, _ := v.AsString(); return s == "█" }() {
		t.Error("tweets[1] wrongly redacted")
	}
	// Original unchanged.
	if v, _ := MustParse("user.id_str").Eval(d); func() bool { s, _ := v.AsString(); return s != "lp" }() {
		t.Error("Redact mutated the original")
	}
}

func TestRedactPlaceholderAndMissing(t *testing.T) {
	d := tweet102()
	// [pos] redacts every element.
	masked := Redact(d, []Path{MustParse("tweets[pos].text")}, nested.Null())
	tw, _ := masked.Get("tweets")
	for i, e := range tw.Elems() {
		txt, _ := e.Get("text")
		if !txt.IsNull() {
			t.Errorf("element %d not redacted", i+1)
		}
	}
	// Missing paths and out-of-range positions are ignored.
	same := Redact(d, []Path{MustParse("nope.deep"), MustParse("tweets[99]")}, nested.Null())
	if !nested.Equal(d, same) {
		t.Error("redacting missing paths changed the value")
	}
	// Whole-attribute redaction.
	m2 := Redact(d, []Path{MustParse("tweets")}, nested.StringVal("gone"))
	if v, _ := m2.Get("tweets"); func() bool { s, _ := v.AsString(); return s != "gone" }() {
		t.Error("whole attribute not redacted")
	}
}
