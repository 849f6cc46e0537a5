package nested

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"pebble/internal/jsonenc"
)

// ParseJSON decodes one JSON document into a Value, preserving the attribute
// order of objects (which encoding/json's map decoding would lose). Objects
// become items, arrays become bags, numbers become ints when they have no
// fractional part and doubles otherwise.
func ParseJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	v, err := decodeValue(dec)
	if err != nil {
		return Value{}, err
	}
	// Reject trailing garbage.
	if _, err := dec.Token(); err != io.EOF {
		return Value{}, fmt.Errorf("nested: trailing data after JSON value")
	}
	return v, nil
}

// ParseJSONLines decodes newline-delimited JSON (one top-level item per
// line), the format produced by EncodeJSONLines and by cmd/datagen.
func ParseJSONLines(data []byte) ([]Value, error) {
	var out []Value
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		v, err := ParseJSON([]byte(line))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func decodeValue(dec *json.Decoder) (Value, error) {
	tok, err := dec.Token()
	if err != nil {
		return Value{}, err
	}
	return decodeFromToken(dec, tok)
}

func decodeFromToken(dec *json.Decoder, tok json.Token) (Value, error) {
	switch t := tok.(type) {
	case json.Delim:
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
				val, err := decodeValue(dec)
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
				val, err := decodeValue(dec)
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

// MarshalJSON encodes the value as JSON, keeping item attribute order. Sets
// and bags both encode as arrays (JSON has no set syntax); the distinction
// is only recoverable through the schema.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.AppendJSON(nil, jsonenc.Compact)
}

// AppendJSON appends the value's JSON encoding to dst: MarshalJSON's bytes
// for depth jsonenc.Compact, and for depth >= 0 those bytes as
// json.Indent(_, "", "  ") lays them out for a value nested depth levels
// deep (the first line is not indented; the caller has placed it).
func (v Value) AppendJSON(dst []byte, depth int) ([]byte, error) {
	switch v.kind {
	case KindNull, KindInvalid:
		dst = append(dst, "null"...)
	case KindInt:
		dst = strconv.AppendInt(dst, v.i, 10)
	case KindDouble:
		if math.IsInf(v.f, 0) || math.IsNaN(v.f) {
			return dst, fmt.Errorf("nested: cannot encode non-finite double %g", v.f)
		}
		n := len(dst)
		dst = strconv.AppendFloat(dst, v.f, 'g', -1, 64)
		// Keep integral doubles recognisable as doubles across a round trip.
		if !bytes.ContainsAny(dst[n:], ".eE") {
			dst = append(dst, ".0"...)
		}
	case KindString:
		dst = jsonenc.String(dst, v.s)
	case KindBool:
		dst = strconv.AppendBool(dst, v.b)
	case KindItem:
		in := jsonenc.Inner(depth)
		dst = append(dst, '{')
		for _, f := range v.fields {
			var err error
			if dst, err = f.Value.AppendJSON(jsonenc.Key(dst, in, f.Name), in); err != nil {
				return dst, err
			}
		}
		dst = jsonenc.Close(dst, depth, '}')
	case KindBag, KindSet:
		in := jsonenc.Inner(depth)
		dst = append(dst, '[')
		for _, e := range v.elems {
			var err error
			if dst, err = e.AppendJSON(jsonenc.Sep(dst, in), in); err != nil {
				return dst, err
			}
		}
		dst = jsonenc.Close(dst, depth, ']')
	}
	return dst, nil
}

// EncodeJSONLines writes one JSON document per value, newline-delimited.
func EncodeJSONLines(w io.Writer, values []Value) error {
	var buf []byte
	for _, v := range values {
		var err error
		if buf, err = v.AppendJSON(buf[:0], jsonenc.Compact); err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
