package provenance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cursor is the one reader of artifact bytes: every version of the run
// stream parses through it, so truncation, varint overflow, count caps and
// allocation bounds are decided in one place. It walks a byte slice and
// remembers the first error; after an error every read returns zero and
// leaves the position alone, so callers read a whole record and check err
// once.
type cursor struct {
	data []byte
	pos  int
	err  error
}

// Fail records err unless an earlier error is already pending — for the
// format-specific checks callers layer on top of the primitive reads.
func (c *cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Rest returns the number of unread bytes. Every format read through a
// cursor ends with its last record, so a loader requires Rest() == 0.
func (c *cursor) Rest() int { return len(c.data) - c.pos }

var errVarintOverflow = errors.New("provenance: varint overflows a 64-bit integer")

// Uvarint reads one unsigned varint.
func (c *cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	// Single-byte fast path: identifier deltas are tiny, so the vast majority
	// of varints in a stream are one byte.
	if c.pos < len(c.data) {
		if b := c.data[c.pos]; b < 0x80 {
			c.pos++
			return uint64(b)
		}
	}
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		if n == 0 {
			c.err = io.ErrUnexpectedEOF
		} else {
			c.err = errVarintOverflow
		}
		return 0
	}
	c.pos += n
	return v
}

// maxCount caps any single declared element count. Real artifacts stay far
// below it; the cap only rejects counts no genuine stream can back before a
// loop commits to them.
const maxCount = 1 << 32

// Count reads a varint element count, rejecting absurd values; what names
// the counted thing in the error.
func (c *cursor) Count(what string) int {
	v := c.Uvarint()
	if c.err == nil && v > maxCount {
		c.err = fmt.Errorf("provenance: %s count %d exceeds limit", what, v)
		return 0
	}
	return int(v)
}

// Clamp bounds a declared element count to the bytes left, for sizing an
// allocation before the elements are read: every declared row of every
// format is backed by at least one byte of its region — a run-coded column
// is not, but its bag keeps a column that is — so a genuine count is
// allocated exactly once and a lying one cannot reserve more elements than
// the input has bytes: it then runs into the end of the data.
func (c *cursor) Clamp(n int) int {
	if n < 0 {
		return 0
	}
	if rest := c.Rest(); n > rest {
		return rest
	}
	return n
}

// Byte reads one byte.
func (c *cursor) Byte() uint8 {
	if c.err != nil {
		return 0
	}
	if c.pos >= len(c.data) {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

func (c *cursor) bool() bool { return c.Byte() != 0 }

// SkipVarints advances past n varints without decoding their values,
// rejecting truncation and overlong encodings exactly as Uvarint would — the
// primitive of the validating skip-scans, which prove a column region
// well-formed at load time so that its later decode cannot fail. It reports
// whether the varints, read as one Δ column, are non-decreasing: a negative
// delta is an odd zigzag value, a varint has the parity of its first byte,
// and the first delta (from 0) says nothing about order.
func (c *cursor) SkipVarints(n int) (ordered bool) {
	if c.err != nil {
		return false
	}
	data, p := c.data, c.pos
	var odd, mask byte // mask leaves the first varint out of odd
	for i := 0; i < n; i++ {
		if p >= len(data) {
			c.err, c.pos = io.ErrUnexpectedEOF, p
			return false
		}
		b := data[p]
		p++
		odd |= b & mask
		mask = 1
		// Identifier deltas are tiny: most varints end with their first byte.
		for j := 1; b >= 0x80; j++ {
			if p >= len(data) {
				c.err, c.pos = io.ErrUnexpectedEOF, p
				return false
			}
			b = data[p]
			p++
			if j == binary.MaxVarintLen64-1 && b > 1 {
				c.err, c.pos = errVarintOverflow, p
				return false
			}
		}
	}
	c.pos = p
	return odd == 0
}

// DeltaColumn reads a column of n zigzag-delta varints (zigzag(v − prev),
// prev starting at 0).
func (c *cursor) DeltaColumn(n int) []int64 {
	out := make([]int64, 0, c.Clamp(n))
	var prev int64
	for i := 0; i < n && c.err == nil; i++ {
		u := c.Uvarint()
		prev += int64(u>>1) ^ -int64(u&1)
		out = append(out, prev)
	}
	return out
}

// skipColumn validates the k-th column of a bag, n values, as column reads
// it — SkipVarints unless bit k of runs is set — and reports whether it is
// non-decreasing. A run-coded column (codec_v3.go) holds at most n runs,
// none empty, their lengths summing to exactly n; it decreases where a run's
// delta is negative, unless all that run holds is the first value.
func (c *cursor) skipColumn(n int, runs uint8, k int) (ordered bool) {
	if runs>>k&1 == 0 {
		return c.SkipVarints(n)
	}
	count, left, ordered := c.Count("run"), uint64(n), true
	if c.err == nil && count > n {
		c.err = fmt.Errorf("provenance: %d runs for %d values", count, n)
	}
	for i := 0; i < count && c.err == nil; i++ {
		l, u := c.Uvarint(), c.Uvarint()
		if c.err == nil && (l == 0 || l > left) {
			c.err = fmt.Errorf("provenance: run of %d values where %d are left", l, left)
		}
		left -= l
		ordered = ordered && (u&1 == 0 || i == 0 && l == 1)
	}
	if c.err == nil && left != 0 {
		c.err = fmt.Errorf("provenance: runs cover %d of %d values", uint64(n)-left, n)
	}
	return ordered && c.err == nil
}

// column reads the k-th column of a bag, n values, that skipColumn accepted:
// DeltaColumn unless bit k of runs is set. A run-coded column is allocated at
// once — its runs say nothing about the bytes behind its values, the bag's
// other columns do.
func (c *cursor) column(n int, runs uint8, k int) []int64 {
	if runs>>k&1 == 0 {
		return c.DeltaColumn(n)
	}
	out := make([]int64, 0, n)
	var prev int64
	for count := c.Count("run"); count > 0 && c.err == nil; count-- {
		l, u := c.Uvarint(), c.Uvarint()
		d := int64(u>>1) ^ -int64(u&1)
		for ; l > 0 && len(out) < n; l-- {
			prev += d
			out = append(out, prev)
		}
	}
	return out
}

// take returns the next n bytes as a view of the data.
func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > c.Rest() {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	b := c.data[c.pos : c.pos+n]
	c.pos += n
	return b
}

// str reads a string of n bytes, n being a length prefix just read.
func (c *cursor) str(n uint64) string {
	const maxStr = 1 << 20
	if c.err == nil && n > maxStr {
		c.err = fmt.Errorf("provenance: string length %d exceeds limit", n)
	}
	return string(c.take(int(n)))
}

// end requires the cursor at the end of a run stream: no codec version has
// a trailer, and the content hash must not cover bytes no decoder read.
func (c *cursor) end() error {
	if n := c.Rest(); n > 0 {
		return fmt.Errorf("provenance: %d trailing bytes after the last operator", n)
	}
	return nil
}

// The fixed-width little-endian reads of the frozen v1 layout.

func (c *cursor) u16() uint16 {
	if b := c.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) i64() int64 {
	if b := c.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// str32 reads a v1 string: u32 length, then the bytes.
func (c *cursor) str32() string { return c.str(uint64(c.u32())) }
