package nested

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pebble/internal/jsonenc"
)

// refEncodeJSON is the buffer encoder MarshalJSON used before AppendJSON,
// kept as the reference AppendJSON must reproduce byte for byte.
func refEncodeJSON(v Value, buf *bytes.Buffer) {
	switch v.kind {
	case KindNull, KindInvalid:
		buf.WriteString("null")
	case KindInt:
		buf.WriteString(strconv.FormatInt(v.i, 10))
	case KindDouble:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		buf.WriteString(s)
	case KindString:
		b, _ := json.Marshal(v.s)
		buf.Write(b)
	case KindBool:
		buf.WriteString(strconv.FormatBool(v.b))
	case KindItem:
		buf.WriteByte('{')
		for i, f := range v.fields {
			if i > 0 {
				buf.WriteByte(',')
			}
			nb, _ := json.Marshal(f.Name)
			buf.Write(nb)
			buf.WriteByte(':')
			refEncodeJSON(f.Value, buf)
		}
		buf.WriteByte('}')
	case KindBag, KindSet:
		buf.WriteByte('[')
		for i, e := range v.elems {
			if i > 0 {
				buf.WriteByte(',')
			}
			refEncodeJSON(e, buf)
		}
		buf.WriteByte(']')
	}
}

func TestAppendJSONMatchesReference(t *testing.T) {
	vals := []Value{
		{}, Null(), Int(-7), Double(3), Double(-0.25), Double(1e21), Double(1e-9), Bool(true),
		StringVal(`<a href="x">&amp;</a>`), StringVal("bad \xff utf8 \u2028 ✓\t"),
		Item(), Bag(), Set(),
		Item(F("", Item()), F("<k>", Bag(Bag(), Item(), Null())), F("é", Set(Int(1), Int(2)))),
		sampleTweet(),
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		vals = append(vals, randomValue(r, 4))
	}
	for _, v := range vals {
		var ref bytes.Buffer
		refEncodeJSON(v, &ref)
		got, err := v.AppendJSON([]byte("x"), jsonenc.Compact)
		if err != nil || string(got) != "x"+ref.String() {
			t.Fatalf("compact %s:\n got %s (%v)\nwant %s", v, got[1:], err, ref.Bytes())
		}
		prefix := ""
		for depth := 0; depth < 3; depth++ {
			var want bytes.Buffer
			if err := json.Indent(&want, ref.Bytes(), prefix, "  "); err != nil {
				t.Fatal(err)
			}
			got, err := v.AppendJSON(nil, depth)
			if err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("depth %d %s:\n got %s (%v)\nwant %s", depth, v, got, err, want.Bytes())
			}
			prefix += "  "
		}
	}
}

func TestAppendJSONNonFiniteDouble(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := Item(F("a", Bag(Double(f))))
		if _, err := v.AppendJSON(nil, 0); err == nil {
			t.Errorf("AppendJSON accepted %g", f)
		}
		if _, err := v.MarshalJSON(); err == nil {
			t.Errorf("MarshalJSON accepted %g", f)
		}
	}
}
