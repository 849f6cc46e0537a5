package path

import (
	"testing"

	"pebble/internal/nested"
)

// FuzzParse: the path parser must never panic; parsed paths must round-trip
// through String and evaluate without panicking.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"a.b[2].c", "user_mentions[pos]", "[3]", "tweets.[2].text", "a",
	} {
		f.Add(seed)
	}
	ctx := nested.Item(
		nested.F("a", nested.Bag(nested.Item(nested.F("b", nested.Int(1))))),
	)
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input)
		if err != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil || !back.Equal(p) {
			t.Fatalf("round trip failed for %q -> %q", input, p.String())
		}
		_, _ = p.Eval(ctx)
		_ = p.SchemaLevel()
	})
}
