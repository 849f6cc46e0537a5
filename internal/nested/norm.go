package nested

import "encoding/binary"

// AppendNorm appends an unambiguous binary encoding of the value to dst and
// returns the extended slice. The encoding is the hash-table key format of
// the engine's join/aggregate kernels: values are compared by
// normalized bytes instead of walking two nested structures per probe.
//
// Properties the kernels rely on:
//
//   - Injective: every component is kind-tagged and length-prefixed, so no
//     two structurally different values share an encoding (unlike Hash,
//     whose string and collection payloads concatenate ambiguously —
//     acceptable for a hash, not for a key).
//   - Doubles encode their raw IEEE bits. Encodings are therefore equal
//     exactly when the values are structurally identical *up to float bit
//     identity*: Equal is slightly coarser (+0.0 ≡ -0.0, any NaN ≡ any NaN),
//     and Hash follows Equal, so such values share a hash and a shuffle
//     bucket but stay distinct keys there — the kernels match on bytes.
//
// The encoding, per kind: a kind byte, then Int as 8 little-endian bytes,
// Double as Float64bits likewise, Bool as one byte, String as uvarint length
// plus bytes, Item as uvarint field count then per field a uvarint-length
// name and the encoded value, Bag/Set as uvarint element count then the
// encoded elements. Null is the kind byte alone.
func (v Value) AppendNorm(dst []byte) []byte { return v.appendNorm(dst) }

func (v *Value) appendNorm(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt, KindDouble:
		dst = binary.LittleEndian.AppendUint64(dst, v.num)
	case KindBool:
		dst = append(dst, byte(v.num))
	case KindString:
		dst = binary.AppendUvarint(dst, v.num)
		dst = append(dst, v.str()...)
	case KindItem, KindBag, KindSet:
		dst = binary.AppendUvarint(dst, v.num)
		vals := v.vs()
		for i := range vals {
			if v.kind == KindItem {
				name := v.shape.names[i]
				dst = binary.AppendUvarint(dst, uint64(len(name)))
				dst = append(dst, name...)
			}
			dst = vals[i].appendNorm(dst)
		}
	}
	return dst
}
