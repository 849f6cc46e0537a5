package nested

import (
	"bytes"
	"math"
	"testing"
)

// TestNormInjective pins the property the join/aggregate kernels rely on: no
// two structurally different values share an encoding, including the
// concatenation-ambiguous shapes Hash cannot distinguish.
func TestNormInjective(t *testing.T) {
	distinct := []Value{
		Null(),
		Int(0),
		Int(1),
		Double(1),                    // Int(1) and Double(1.0) must differ (kinds differ)
		Double(0),                    // +0.0
		Double(math.Copysign(0, -1)), // -0.0: bit-distinct, hash-distinct, byte-distinct
		StringVal(""),
		StringVal("ab"),
		Bool(false),
		Bool(true),
		// Hash-ambiguous string concatenations: ("ab","c") vs ("a","bc").
		Bag(StringVal("ab"), StringVal("c")),
		Bag(StringVal("a"), StringVal("bc")),
		// Field-name/value boundary ambiguity: <ab:"c"> vs <a:"bc">.
		Item(F("ab", StringVal("c"))),
		Item(F("a", StringVal("bc"))),
		// Bag vs set of the same elements.
		Bag(Int(1)),
		Set(Int(1)),
		// Nesting boundary: {{1},{}} vs {{},{1}} vs {{1}}.
		Bag(Bag(Int(1)), Bag()),
		Bag(Bag(), Bag(Int(1))),
		Bag(Bag(Int(1))),
	}
	encs := make([][]byte, len(distinct))
	for i, v := range distinct {
		encs[i] = v.AppendNorm(nil)
	}
	for i := range distinct {
		for j := i + 1; j < len(distinct); j++ {
			if bytes.Equal(encs[i], encs[j]) {
				t.Errorf("distinct values share an encoding: %s vs %s", distinct[i], distinct[j])
			}
		}
	}
}

// TestNormEqualValuesEncodeEqually checks the forward direction: structurally
// identical values (same bits for doubles) produce identical bytes even when
// built through different constructors.
func TestNormEqualValuesEncodeEqually(t *testing.T) {
	nan := math.NaN()
	pairs := [][2]Value{
		{Int(7), Int(7)},
		{Double(nan), Double(nan)}, // same NaN bits
		{StringVal("xy"), StringVal("xy")},
		{Item(F("a", Int(1)), F("b", Null())), Item(F("a", Int(1)), F("b", Null()))},
		{Bag(Int(1), Int(2)), Bag(Int(1), Int(2))},
		{Set(Int(1), Int(1), Int(2)), Set(Int(1), Int(2))}, // Set dedups on build
	}
	for _, p := range pairs {
		a, b := p[0].AppendNorm(nil), p[1].AppendNorm(nil)
		if !bytes.Equal(a, b) {
			t.Errorf("equal values encode differently: %s vs %s", p[0], p[1])
		}
	}
}

// TestNormHashConsistency pins the partitioning argument: Hash follows Equal
// (equal values hash equally, ±0.0 and distinct NaN payloads included), so
// such values share a shuffle bucket and a hash chain, and the bytes, which
// stay bitwise, keep them distinct keys there.
func TestNormHashConsistency(t *testing.T) {
	negZero := Double(math.Copysign(0, -1))
	nan1 := Double(math.Float64frombits(0x7ff8000000000001))
	nan2 := Double(math.Float64frombits(0xfff8000000000002))
	for _, p := range [][2]Value{
		{Double(0), negZero},
		{nan1, nan2},
		{Item(F("a", Bag(negZero, nan1))), Item(F("a", Bag(Double(0), nan2)))},
	} {
		if !Equal(p[0], p[1]) {
			t.Fatalf("Equal(%s, %s) = false", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("%s and %s are Equal and hash differently", p[0], p[1])
		}
		if bytes.Equal(p[0].AppendNorm(nil), p[1].AppendNorm(nil)) {
			t.Errorf("%s and %s must encode differently (Float64bits)", p[0], p[1])
		}
	}
	if Double(0).Hash() == Int(0).Hash() || nan1.Hash() == Double(1).Hash() {
		t.Error("canonical forms collide with their neighbours")
	}
}

// TestNormAppend checks that AppendNorm extends dst in place.
func TestNormAppend(t *testing.T) {
	dst := []byte{0xff, 0xee}
	out := Int(3).AppendNorm(dst)
	if !bytes.Equal(out[:2], dst[:2]) {
		t.Fatalf("prefix clobbered: %x", out)
	}
	if len(out) <= 2 {
		t.Fatalf("nothing appended: %x", out)
	}
}
