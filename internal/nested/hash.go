package nested

import "math"

// FNV-1a, 64 bit.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of the value. Equal values hash equally
// (-0.0 hashes as 0.0 and every NaN as one NaN, as Equal has them); the hash
// is used for hash joins, group-by shuffles, and set semantics.
func (v Value) Hash() uint64 { return v.hash(fnvOffset) }

// hash folds the value into h: the kind byte, then an int or the bits of a
// double as eight little-endian bytes, a bool as one byte, the bytes of a
// string, an item's names and values in turn, a collection's elements.
func (v *Value) hash(h uint64) uint64 {
	h = (h ^ uint64(v.kind)) * fnvPrime
	switch v.kind {
	case KindInt, KindDouble:
		n := v.num
		if v.kind == KindDouble {
			if f := math.Float64frombits(n); f == 0 {
				n = 0
			} else if math.IsNaN(f) {
				n = math.Float64bits(math.NaN())
			}
		}
		for i := 0; i < 8; i++ {
			h = (h ^ (n & 0xff)) * fnvPrime
			n >>= 8
		}
	case KindString:
		h = hashString(h, v.str())
	case KindBool:
		h = (h ^ v.num) * fnvPrime
	case KindItem, KindBag, KindSet:
		vals := v.vs()
		for i := range vals {
			if v.kind == KindItem {
				h = hashString(h, v.shape.names[i])
			}
			h = vals[i].hash(h)
		}
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}
