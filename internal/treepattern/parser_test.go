package treepattern_test

import (
	"strings"
	"testing"

	"pebble/internal/nested"
	"pebble/internal/treepattern"
)

func TestParseFigure4(t *testing.T) {
	p, err := treepattern.Parse(`//id_str == "lp", tweets(text == "Hello World" #[2,2])`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Children) != 2 {
		t.Fatalf("root children = %d", len(p.Children))
	}
	id := p.Children[0]
	if id.Attr != "id_str" || id.Edge != treepattern.DescendantEdge || id.Eq == nil {
		t.Errorf("id_str clause wrong: %+v", id)
	}
	if s, _ := id.Eq.AsString(); s != "lp" {
		t.Errorf("id_str eq = %q", s)
	}
	tw := p.Children[1]
	if tw.Attr != "tweets" || tw.Edge != treepattern.ChildEdge || len(tw.Children) != 1 {
		t.Fatalf("tweets clause wrong: %+v", tw)
	}
	txt := tw.Children[0]
	if txt.MinCount != 2 || txt.MaxCount != 2 || txt.Eq == nil {
		t.Errorf("text clause wrong: %+v", txt)
	}
	// Parsed and built patterns match the same data.
	res, _ := exampleResult(t)
	if got := p.Match(res.Output).Len(); got != 1 {
		t.Errorf("parsed Fig. 4 pattern matched %d items, want 1", got)
	}
	built := figure4()
	if p.Match(res.Output).IDs()[0] != built.Match(res.Output).IDs()[0] {
		t.Error("parsed and built patterns disagree")
	}
}

func TestParseLiteralsAndConditions(t *testing.T) {
	d := nested.Item(
		nested.F("i", nested.Int(5)),
		nested.F("f", nested.Double(2.5)),
		nested.F("neg", nested.Int(-3)),
		nested.F("b", nested.Bool(true)),
		nested.F("s", nested.StringVal("say \"hi\"\nthere")),
	)
	match := func(q string) bool {
		t.Helper()
		p, err := treepattern.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		_, ok := p.MatchItem(d)
		return ok
	}
	cases := map[string]bool{
		`i == 5`:                   true,
		`i == 6`:                   false,
		`i > 4`:                    true,
		`i < 4`:                    false,
		`i > 4.5`:                  true, // widening
		`f == 2.5`:                 true,
		`neg == -3`:                true,
		`b == true`:                true,
		`b == false`:               false,
		`s ~= "hi"`:                true,
		`s == "say \"hi\"\nthere"`: true,
		`i == 5, f > 2`:            true,
		`i == 5, f > 9`:            false,
		`/i == 5`:                  true, // explicit child edge
		`//i == 5`:                 true,
	}
	for q, want := range cases {
		if got := match(q); got != want {
			t.Errorf("%q matched %v, want %v", q, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`   `,
		`a ==`,
		`a == 'x'`,
		`a(b`,
		`a #[2]`,
		`a #[3,2]`,
		`a == "unterminated`,
		`a == "bad \q escape"`,
		`a, `,
		`a) trailing`,
		`==5`,
		`a ~= 5`,
		nest(10001),
	}
	for _, q := range bad {
		if _, err := treepattern.Parse(q); err == nil {
			t.Errorf("Parse(%.40q) should fail", q)
		} else if len(err.Error()) > 200 {
			t.Errorf("Parse(%.40q): error of %d bytes quotes too much input", q, len(err.Error()))
		}
	}
	if _, err := treepattern.Parse(nest(10000)); err != nil {
		t.Errorf("pattern nested 10000 levels deep rejected: %v", err)
	}
}

// nest returns a clause nested depth levels deep: a(a(...a...)).
func nest(depth int) string {
	return strings.Repeat("a(", depth) + "a" + strings.Repeat(")", depth)
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	treepattern.MustParse(`==`)
}

func TestParseRoundTripThroughString(t *testing.T) {
	// The String rendering is for humans, but the key pieces must appear.
	p := treepattern.MustParse(`//user(id_str == "lp"), tweets(text ~= "Hello" #[1,0])`)
	s := p.String()
	for _, want := range []string{"//user", "id_str", `contains "Hello"`, "[1,0]"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestParseNestedChildren(t *testing.T) {
	p := treepattern.MustParse(`a(b(c == 1), d)`)
	if len(p.Children) != 1 || len(p.Children[0].Children) != 2 {
		t.Fatalf("nested structure wrong: %s", p)
	}
	if p.Children[0].Children[0].Children[0].Attr != "c" {
		t.Error("deep child missing")
	}
}
