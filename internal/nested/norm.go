package nested

import (
	"encoding/binary"
	"math"
)

// AppendNorm appends an unambiguous binary encoding of the value to dst and
// returns the extended slice. The encoding is the hash-table key format of
// the engine's join/aggregate kernels: values are compared by
// normalized bytes instead of walking two nested structures per probe.
//
// Properties the kernels rely on:
//
//   - Injective: every component is kind-tagged and length-prefixed, so no
//     two structurally different values share an encoding (unlike hashInto,
//     whose string and collection payloads concatenate ambiguously —
//     acceptable for a hash, not for a key).
//   - Doubles encode their raw IEEE bits. Encodings are therefore equal
//     exactly when the values are structurally identical *up to float bit
//     identity*: Equal is slightly coarser (+0.0 ≡ -0.0, any NaN ≡ any NaN).
//     That gap cannot surface through the kernels, because Hash also feeds
//     on Float64bits: values that are Equal but bit-different never share a
//     hash, so the row-wise reference semantics (hash chain, then Equal)
//     and the kernel semantics (hash, then bytes) partition rows
//     identically — modulo 64-bit FNV collisions, which both paths already
//     accept.
//
// The encoding, per kind: a kind byte, then Int as 8 little-endian bytes,
// Double as Float64bits likewise, Bool as one byte, String as uvarint length
// plus bytes, Item as uvarint field count then per field a uvarint-length
// name and the encoded value, Bag/Set as uvarint element count then the
// encoded elements. Null is the kind byte alone.
func (v Value) AppendNorm(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case KindDouble:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindItem:
		dst = binary.AppendUvarint(dst, uint64(len(v.fields)))
		for _, f := range v.fields {
			dst = binary.AppendUvarint(dst, uint64(len(f.Name)))
			dst = append(dst, f.Name...)
			dst = f.Value.AppendNorm(dst)
		}
	case KindBag, KindSet:
		dst = binary.AppendUvarint(dst, uint64(len(v.elems)))
		for _, e := range v.elems {
			dst = e.AppendNorm(dst)
		}
	}
	return dst
}
