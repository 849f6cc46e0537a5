package nested

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
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
		buf.WriteString(strconv.FormatInt(int64(v.num), 10))
	case KindDouble:
		s := strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		buf.WriteString(s)
	case KindString:
		b, _ := json.Marshal(v.s)
		buf.Write(b)
	case KindBool:
		buf.WriteString(strconv.FormatBool(v.num != 0))
	case KindItem:
		buf.WriteByte('{')
		for i, f := range v.Fields() {
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
		for i, e := range v.Elems() {
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

// refParseJSON and refParseJSONLines are the encoding/json token walk the
// reader replaced, kept as the reference it must agree with on what is
// accepted and on every value produced. The one addition is the reader's
// nesting limit, which the walk never had (it overflowed the stack).
func refParseJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	v, err := refDecodeValue(dec, 0)
	if err != nil {
		return Value{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Value{}, errors.New("nested: trailing data after JSON value")
	}
	return v, nil
}

func refParseJSONLines(data []byte) ([]Value, error) {
	var out []Value
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		v, err := refParseJSON([]byte(line))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// RefParseJSONLines, SameShape and ExactSlices hand the reference and the
// strict comparisons to the external tests, which sit outside the package
// because internal/workload imports it.
var (
	RefParseJSONLines = refParseJSONLines
	SameShape         = sameShape
	ExactSlices       = exactSlices
)

func refDecodeValue(dec *json.Decoder, depth int) (Value, error) {
	tok, err := dec.Token()
	if err != nil {
		return Value{}, err
	}
	switch t := tok.(type) {
	case json.Delim:
		if depth++; depth > maxDepth {
			return Value{}, errors.New("nested: exceeded max depth")
		}
		switch t {
		case '{':
			var fields []Field
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return Value{}, err
				}
				key, ok := keyTok.(string)
				if !ok {
					return Value{}, fmt.Errorf("nested: object key is not a string: %v", keyTok)
				}
				val, err := refDecodeValue(dec, depth)
				if err != nil {
					return Value{}, err
				}
				fields = append(fields, Field{Name: key, Value: val})
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return Value{}, err
			}
			return Item(fields...), nil
		case '[':
			var elems []Value
			for dec.More() {
				val, err := refDecodeValue(dec, depth)
				if err != nil {
					return Value{}, err
				}
				elems = append(elems, val)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return Value{}, err
			}
			return Bag(elems...), nil
		}
		return Value{}, fmt.Errorf("nested: unexpected delimiter %v", t)
	case json.Number:
		if i, err := strconv.ParseInt(t.String(), 10, 64); err == nil {
			return Int(i), nil
		}
		f, err := t.Float64()
		if err != nil {
			return Value{}, fmt.Errorf("nested: bad number %q: %w", t.String(), err)
		}
		return Double(f), nil
	case string:
		return StringVal(t), nil
	case bool:
		return Bool(t), nil
	case nil:
		return Null(), nil
	}
	return Value{}, fmt.Errorf("nested: unexpected token %v", tok)
}

// agree fails the test unless the reader and the reference accept or reject
// doc together and, when they accept, return the same value.
func agree(t *testing.T, doc []byte) (Value, error) {
	t.Helper()
	got, err := ParseJSON(doc)
	want, refErr := refParseJSON(doc)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q: reader error %v, reference error %v", doc, err, refErr)
	}
	if err == nil && (!Equal(got, want) || got.String() != want.String() || !sameShape(got, want)) {
		t.Fatalf("%q: reader %s, reference %s", doc, got, want)
	}
	return got, err
}

// sameShape is stricter than Equal where Equal is lenient: kinds must match
// exactly (Equal lets an int equal a double), doubles bit for bit (-0, 0),
// attribute order and nil-ness of empty items and bags included; only items
// have a shape.
func sameShape(a, b Value) bool {
	if a.kind != b.kind || a.num != b.num || a.s != b.s || len(a.vals) != len(b.vals) || (a.vals == nil) != (b.vals == nil) ||
		(a.shape == nil) != (b.shape == nil) || (a.shape == nil) != (a.kind != KindItem) {
		return false
	}
	if a.shape != nil && (a.shape.Len() != len(a.vals) || !slices.Equal(a.shape.names, b.shape.names)) {
		return false
	}
	for i := range a.vals {
		if !sameShape(a.vals[i], b.vals[i]) {
			return false
		}
	}
	return true
}

// exactSlices reports whether every value slice in v, nested ones included,
// has len == cap, so that an append to one can never write into another.
func exactSlices(v Value) bool {
	if len(v.vals) != cap(v.vals) {
		return false
	}
	for i := range v.vals {
		if !exactSlices(v.vals[i]) {
			return false
		}
	}
	return true
}
