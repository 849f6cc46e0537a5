package jsonenc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain ascii ~\x7f", `quote " backslash \`, "<script>&amp;</script>",
		"tab\tnewline\ncr\rbell\x07backspace\bformfeed\f\x00\x1f",
		"héllo wörld ✓ 🎉", "line\u2028sep\u2029", "bad \xff utf8 \xc3\x28 \xed\xa0\x80",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("String(%q) = %s, want %s", s, got[1:], want)
		}
	}
}

func FuzzString(f *testing.F) {
	f.Add("a<b>&\"\\\xff\u2028")
	f.Fuzz(func(t *testing.T, s string) {
		want, _ := json.Marshal(s)
		if got := String(nil, s); !bytes.Equal(got, want) {
			t.Errorf("String(%q) = %s, want %s", s, got, want)
		}
	})
}

// TestLayoutMatchesIndent writes {"a":[1,{"b":{},"c":[]},"x"],"d":null} with
// the primitives at every starting depth and in the compact form.
func TestLayoutMatchesIndent(t *testing.T) {
	write := func(depth int) []byte {
		d1 := Inner(depth)
		d2 := Inner(d1)
		d3 := Inner(d2)
		b := []byte{'{'}
		b = append(Key(b, d1, "a"), '[')
		b = append(Sep(b, d2), '1')
		b = append(Sep(b, d2), '{')
		b = Close(append(Key(b, d3, "b"), '{'), d3, '}')
		b = Close(append(Key(b, d3, "c"), '['), d3, ']')
		b = Close(b, d2, '}')
		b = String(Sep(b, d2), "x")
		b = Close(b, d1, ']')
		b = append(Key(b, d1, "d"), "null"...)
		return Close(b, depth, '}')
	}
	compact := []byte(`{"a":[1,{"b":{},"c":[]},"x"],"d":null}`)
	if got := write(Compact); !bytes.Equal(got, compact) {
		t.Errorf("compact: %s", got)
	}
	prefix := ""
	for depth := 0; depth < 4; depth++ {
		var want bytes.Buffer
		if err := json.Indent(&want, compact, prefix, "  "); err != nil {
			t.Fatal(err)
		}
		if got := write(depth); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("depth %d:\n%s\nwant:\n%s", depth, got, want.Bytes())
		}
		prefix += "  "
	}
}

// TestDeepIndent covers nesting beyond the precomputed indentation.
func TestDeepIndent(t *testing.T) {
	for _, depth := range []int{len(indent)/2 - 1, len(indent) / 2, len(indent)/2 + 1, 100} {
		want := ",\n" + strings.Repeat("  ", depth)
		if got := Sep([]byte("1"), depth); string(got) != "1"+want {
			t.Errorf("depth %d: %q", depth, got)
		}
	}
}
