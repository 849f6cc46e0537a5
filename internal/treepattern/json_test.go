package treepattern

import (
	"encoding/json"
	"testing"

	"pebble/internal/nested"
)

// roundTrip marshals the pattern, restores it, and returns the restored
// form.
func roundTrip(t *testing.T, p *Pattern) *Pattern {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got := &Pattern{}
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return got
}

func TestPatternJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		p    *Pattern
	}{
		{"empty", New()},
		{"eq-string", New(Desc("id_str").WithEq(nested.StringVal("lp")))},
		{"contains-and-count", New(
			Child("tweets", Child("text").WithContains("Hello")).WithCount(2, 2),
		)},
		{"range-bounds", New(
			Child("n").WithLt(nested.Int(10)).WithGt(nested.Int(2)),
		)},
		{"multi-node-nested", New(
			Desc("id_str").WithEq(nested.StringVal("lp")),
			Child("tweets", Child("text").WithEq(nested.StringVal("Hello World")).WithCount(2, 2)),
		)},
		{"eq-double", New(Child("score").WithEq(nested.Double(2.5)))},
		{"eq-bool", New(Child("flag").WithEq(nested.Bool(true)))},
		// "eq": null is an equals-null constraint, not an absent one.
		{"eq-null", New(Child("a").WithEq(nested.Null()))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := roundTrip(t, tc.p)
			// The diagnostic render covers every field the matcher reads, so
			// equal renders mean semantically equal patterns.
			if got.String() != tc.p.String() {
				t.Errorf("round trip changed pattern:\nbefore: %s\nafter:  %s", tc.p, got)
			}
		})
	}
	var p Pattern
	if err := json.Unmarshal([]byte(`[{"attr":"a","eq":null}]`), &p); err != nil {
		t.Fatal(err)
	}
	if eq := p.Children[0].Eq; eq == nil || eq.Kind() != nested.KindNull {
		t.Errorf(`{"attr":"a","eq":null} decoded to Eq %v, want the null constraint`, eq)
	}
}

// TestPatternJSONMatchesEqually runs original and restored patterns over
// the same items and demands identical match outcomes.
func TestPatternJSONMatchesEqually(t *testing.T) {
	item := nested.Item(
		nested.F("id_str", nested.StringVal("lp")),
		nested.Field{Name: "tweets", Value: nested.Bag(
			nested.Item(nested.F("text", nested.StringVal("Hello World"))),
			nested.Item(nested.F("text", nested.StringVal("Hello World"))),
		)},
	)
	p := New(
		Desc("id_str").WithEq(nested.StringVal("lp")),
		Child("tweets", Child("text").WithContains("Hello")),
	)
	got := roundTrip(t, p)
	_, okOrig := p.MatchItem(item)
	_, okGot := got.MatchItem(item)
	if okOrig != okGot {
		t.Errorf("restored pattern match = %v, original = %v", okGot, okOrig)
	}
	if !okGot {
		t.Error("restored pattern should match the sample item")
	}
}

func TestPatternJSONRejectsMalformed(t *testing.T) {
	bad := []string{
		`[{"desc":true}]`,                  // node without attr
		`[{"attr":"x","eq":}]`,             // invalid JSON
		`{"attr":"x"}`,                     // pattern must be an array
		`[{"attr":"x","children":[null]}]`, // a null child is no node
	}
	for _, s := range bad {
		p := &Pattern{}
		if err := json.Unmarshal([]byte(s), p); err == nil {
			t.Errorf("accepted malformed pattern %s", s)
		}
	}
}
