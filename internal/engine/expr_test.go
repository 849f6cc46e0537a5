package engine

import (
	"strings"
	"testing"

	"pebble/internal/nested"
	"pebble/internal/path"
)

func evalBool(t *testing.T, e Expr, d nested.Value) bool {
	t.Helper()
	v, err := e.Eval(d)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	b, ok := v.AsBool()
	if !ok {
		t.Fatalf("Eval(%s) = %s, not bool", e, v)
	}
	return b
}

func exprItem() nested.Value {
	return nested.Item(
		nested.F("text", nested.StringVal("Hello World")),
		nested.F("retweet_cnt", nested.Int(0)),
		nested.F("score", nested.Double(1.5)),
		nested.F("user", nested.Item(nested.F("id_str", nested.StringVal("lp")))),
		nested.F("tags", nested.Bag(nested.StringVal("a"), nested.StringVal("b"))),
	)
}

func TestColAndLit(t *testing.T) {
	d := exprItem()
	v, err := Col("user.id_str").Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "lp" {
		t.Errorf("Col(user.id_str) = %s", v)
	}
	miss, err := Col("no.such").Eval(d)
	if err != nil || !miss.IsNull() {
		t.Errorf("missing column should be null, got %s, %v", miss, err)
	}
	if got := Col("user.id_str").Paths()[0].String(); got != "user.id_str" {
		t.Errorf("Col paths = %s", got)
	}
	lv, _ := LitInt(5).Eval(d)
	if i, _ := lv.AsInt(); i != 5 {
		t.Error("LitInt broken")
	}
	if LitString("x").Paths() != nil {
		t.Error("literals access no paths")
	}
}

func TestComparisons(t *testing.T) {
	d := exprItem()
	cases := []struct {
		e    Expr
		want bool
	}{
		{Eq(Col("retweet_cnt"), LitInt(0)), true},
		{Eq(Col("retweet_cnt"), LitInt(1)), false},
		{Ne(Col("retweet_cnt"), LitInt(1)), true},
		{Lt(Col("retweet_cnt"), LitInt(1)), true},
		{Le(Col("retweet_cnt"), LitInt(0)), true},
		{Gt(Col("score"), LitInt(1)), true}, // double vs int widening
		{Ge(Col("score"), LitDouble(1.5)), true},
		{Eq(Col("score"), LitDouble(1.5)), true},
		{Eq(Col("text"), LitString("Hello World")), true},
		{Eq(Col("missing"), LitInt(0)), false},       // null comparisons are false
		{Ne(Col("missing"), LitInt(0)), true},        // except != non-null
		{Ne(Col("missing"), Col("missing2")), false}, // null != null is false
	}
	for _, c := range cases {
		if got := evalBool(t, c.e, d); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestBoolOps(t *testing.T) {
	d := exprItem()
	tr := Eq(Col("retweet_cnt"), LitInt(0))
	fa := Eq(Col("retweet_cnt"), LitInt(1))
	if !evalBool(t, And(tr, tr), d) || evalBool(t, And(tr, fa), d) {
		t.Error("And broken")
	}
	if !evalBool(t, Or(fa, tr), d) || evalBool(t, Or(fa, fa), d) {
		t.Error("Or broken")
	}
	if !evalBool(t, Not(fa), d) || evalBool(t, Not(tr), d) {
		t.Error("Not broken")
	}
	if !evalBool(t, And(), d) || evalBool(t, Or(), d) {
		t.Error("empty And/Or identities broken")
	}
	if _, err := And(Col("text")).Eval(d); err == nil {
		t.Error("And over non-boolean should error")
	}
	if _, err := Not(Col("text")).Eval(d); err == nil {
		t.Error("Not over non-boolean should error")
	}
}

func TestContainsLenIsNull(t *testing.T) {
	d := exprItem()
	if !evalBool(t, Contains(Col("text"), LitString("World")), d) {
		t.Error("Contains positive broken")
	}
	if evalBool(t, Contains(Col("text"), LitString("BTS")), d) {
		t.Error("Contains negative broken")
	}
	if evalBool(t, Contains(Col("retweet_cnt"), LitString("0")), d) {
		t.Error("Contains over non-string should be false")
	}
	if !evalBool(t, IsNull(Col("missing")), d) || evalBool(t, IsNull(Col("text")), d) {
		t.Error("IsNull broken")
	}
	lv, _ := Len(Col("tags")).Eval(d)
	if n, _ := lv.AsInt(); n != 2 {
		t.Errorf("Len(tags) = %d", n)
	}
	lv2, _ := Len(Col("text")).Eval(d)
	if n, _ := lv2.AsInt(); n != 0 {
		t.Errorf("Len(non-collection) = %d, want 0", n)
	}
}

func TestExprPathsAndString(t *testing.T) {
	e := And(Eq(Col("user.id_str"), LitString("lp")), Contains(Col("text"), LitString("x")))
	var ps []string
	for _, p := range e.Paths() {
		ps = append(ps, p.String())
	}
	if len(ps) != 2 || ps[0] != "user.id_str" || ps[1] != "text" {
		t.Errorf("Paths = %v", ps)
	}
	s := e.String()
	for _, want := range []string{"user.id_str", "==", "&&", "contains"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %s missing %q", s, want)
		}
	}
	if got := Not(IsNull(Col("a"))).String(); got != "!isnull(a)" {
		t.Errorf("Not/IsNull String = %s", got)
	}
	if got := Len(Col("a")).Paths(); len(got) != 1 {
		t.Errorf("Len paths = %v", got)
	}
}

// TestEvalReadsOnlyPaths is the capture contract of Expr (Def. 5.1, Tab. 5):
// an operator records an expression's Paths() as its accessed-path set A, so
// Eval must read nothing outside them. Every Expr type of expr.go appears
// with a column in each operand slot, on values for which every operand
// decides the result; Eval on the item pruned to Paths() must equal Eval on
// the whole item.
func TestEvalReadsOnlyPaths(t *testing.T) {
	d := nested.Item(
		nested.F("a", nested.Int(7)),
		nested.F("b", nested.Int(7)),
		nested.F("c", nested.Int(9)),
		nested.F("seven", nested.Double(7)),
		nested.F("yes", nested.Bool(true)),
		nested.F("on", nested.Bool(true)),
		nested.F("also", nested.Bool(true)),
		nested.F("no", nested.Bool(false)),
		nested.F("off", nested.Bool(false)),
		nested.F("text", nested.StringVal("Hello World")),
		nested.F("word", nested.StringVal("World")),
		nested.F("tags", nested.Bag(nested.StringVal("a"), nested.StringVal("b"))),
		nested.F("user", nested.Item(
			nested.F("id_str", nested.StringVal("lp")),
			nested.F("alias", nested.StringVal("lp")),
			nested.F("langs", nested.Bag(nested.StringVal("en"))),
		)),
	)
	for _, e := range []Expr{
		Col("text"),
		Col("user.id_str"),
		Col("tags"),
		LitInt(5),
		LitString("x"),
		Eq(Col("a"), Col("b")),
		Ne(Col("a"), Col("b")),
		Lt(Col("a"), Col("c")),
		Le(Col("a"), Col("b")),
		Gt(Col("c"), Col("a")),
		Ge(Col("a"), Col("b")),
		Eq(Col("a"), Col("seven")),
		Eq(Col("user.id_str"), Col("user.alias")),
		And(Col("yes"), Col("on")),
		And(Col("yes"), Col("on"), Col("also")),
		Or(Col("no"), Col("yes")),
		Or(Col("no"), Col("off"), Col("yes")),
		Not(Col("no")),
		Not(Ne(Col("a"), Col("b"))),
		Contains(Col("text"), Col("word")),
		Contains(Col("user.id_str"), Col("user.alias")),
		IsNull(Col("text")),
		IsNull(Col("user.id_str")),
		Len(Col("tags")),
		Len(Col("user.langs")),
		And(Eq(Col("a"), Col("b")), Contains(Col("text"), Col("word")), Not(IsNull(Col("user.alias")))),
	} {
		t.Run(e.String(), func(t *testing.T) {
			want, werr := e.Eval(d)
			got, gerr := e.Eval(pruneTo(d, e.Paths()))
			if werr != nil || gerr != nil || !nested.Equal(got, want) {
				t.Errorf("over the item pruned to its Paths() %v: %s (%v); over the item: %s (%v)", e.Paths(), got, gerr, want, werr)
			}
		})
	}
}

// pruneTo keeps of item d the attributes on the attribute paths ps — what an
// operator that recorded A = ps may rely on — and drops the rest.
func pruneTo(d nested.Value, ps []path.Path) nested.Value {
	var fields []nested.Field
	for i := 0; i < d.NumFields(); i++ {
		name := d.FieldName(i)
		var rest []path.Path
		whole := false
		for _, p := range ps {
			if p[0].Attr != name {
				continue
			}
			if len(p) == 1 {
				whole = true
			}
			rest = append(rest, p[1:])
		}
		switch {
		case whole:
			fields = append(fields, nested.F(name, d.FieldValue(i)))
		case rest != nil:
			fields = append(fields, nested.F(name, pruneTo(d.FieldValue(i), rest)))
		}
	}
	return nested.Item(fields...)
}
