package nested_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pebble/internal/corpus"
	"pebble/internal/jsonenc"
	"pebble/internal/nested"
	"pebble/internal/workload"
)

// generated returns what the three generators of the repo produce: tweets,
// DBLP records, and the rows of 500 corpus seeds.
func generated() []nested.Value {
	vals := workload.GenerateTwitter(workload.Scale{SimGB: 1, TweetsPerGB: 400, Seed: 3})
	vals = append(vals, workload.GenerateDBLP(workload.Scale{SimGB: 1, RecordsPerGB: 2000, Seed: 3})...)
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		vals = append(vals, corpus.RandRows(r, 6)...)
		vals = append(vals, corpus.RandAuxRows(r, 3)...)
	}
	return vals
}

// refHash is Hash as it was before it stopped allocating: an fnv.New64a
// hasher fed the kind byte, then the payload.
func refHash(v nested.Value) uint64 {
	h := fnv.New64a()
	var feed func(v nested.Value)
	feed = func(v nested.Value) {
		h.Write([]byte{byte(v.Kind())})
		switch v.Kind() {
		case nested.KindInt:
			i, _ := v.AsInt()
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(i)))
		case nested.KindDouble:
			f, _ := v.AsDouble()
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
		case nested.KindString:
			s, _ := v.AsString()
			h.Write([]byte(s))
		case nested.KindBool:
			if b, _ := v.AsBool(); b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		case nested.KindItem:
			for _, f := range v.Fields() {
				h.Write([]byte(f.Name))
				feed(f.Value)
			}
		case nested.KindBag, nested.KindSet:
			for _, e := range v.Elems() {
				feed(e)
			}
		}
	}
	feed(v)
	return h.Sum64()
}

// TestHashUnchangedExceptCanonicalDoubles: shuffle placement and ids hang on
// Hash, so it returns what it always did — but for -0.0 and NaN, which now
// hash as the values they are Equal to.
func TestHashUnchangedExceptCanonicalDoubles(t *testing.T) {
	vals := append(generated(),
		nested.Value{}, nested.Null(), nested.Int(-1), nested.Double(0), nested.Double(-2.5), nested.Double(math.Inf(1)),
		nested.Double(math.NaN()), nested.Bool(true), nested.Bool(false), nested.StringVal(""), nested.StringVal("é\x00"),
		nested.Item(), nested.Bag(), nested.Set(nested.Int(1), nested.Int(1)), nested.Item(nested.F("", nested.Bag(nested.Item()))))
	for _, v := range vals {
		if got, want := v.Hash(), refHash(v); got != want {
			t.Fatalf("Hash(%s) = %#x, was %#x", v, got, want)
		}
	}
	negZero, otherNaN := nested.Double(math.Copysign(0, -1)), nested.Double(math.Float64frombits(0xfff8000000000002))
	if negZero.Hash() != refHash(nested.Double(0)) || otherNaN.Hash() != refHash(nested.Double(math.NaN())) {
		t.Error("-0.0 must hash as 0.0 and every NaN as math.NaN()")
	}
}

// rebuilt returns v built bottom-up through the convenience constructors,
// which make one shape per item.
func rebuilt(v nested.Value) nested.Value {
	switch v.Kind() {
	case nested.KindItem:
		fields := v.Fields()
		for i := range fields {
			fields[i].Value = rebuilt(fields[i].Value)
		}
		return nested.Item(fields...)
	case nested.KindBag, nested.KindSet:
		elems := make([]nested.Value, v.Len())
		for i, e := range v.Elems() {
			elems[i] = rebuilt(e)
		}
		if v.Kind() == nested.KindSet {
			return nested.Set(elems...)
		}
		return nested.Bag(elems...)
	}
	return v
}

// TestShapeBuiltEqualsFieldBuilt: an item made from a shared shape and the
// same item made field by field cannot be told apart.
func TestShapeBuiltEqualsFieldBuilt(t *testing.T) {
	for _, v := range generated() {
		w := rebuilt(v)
		if v.Shape() == w.Shape() {
			t.Fatalf("%s: the rebuilt item shares the generator's shape", v)
		}
		vj, verr := v.AppendJSON(nil, jsonenc.Compact)
		wj, werr := w.AppendJSON(nil, jsonenc.Compact)
		if !nested.Equal(v, w) || nested.Compare(v, w) != 0 || v.Hash() != w.Hash() ||
			!bytes.Equal(v.AppendNorm(nil), w.AppendNorm(nil)) || !bytes.Equal(vj, wj) || verr != nil || werr != nil ||
			v.String() != w.String() || !reflect.DeepEqual(nested.TypeOf(v), nested.TypeOf(w)) {
			t.Fatalf("shape-built and field-built differ:\n%s\n%s", v, w)
		}
	}
}
