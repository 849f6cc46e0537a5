package provenance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Cursor is the one reader of artifact bytes: both versions of the run
// stream and the index sidecar next to it (internal/backtrace) parse through
// it, so truncation, varint overflow, count caps and allocation bounds are
// decided in one place. It walks a byte slice and remembers the first error;
// after an error every read returns zero and leaves the position alone, so
// callers read a whole record and check Err once.
type Cursor struct {
	data []byte
	pos  int
	err  error
}

// NewCursor returns a cursor at the start of data, which it never modifies.
func NewCursor(data []byte) *Cursor { return &Cursor{data: data} }

// Err returns the first error the cursor ran into, nil while reads succeed.
func (c *Cursor) Err() error { return c.err }

// Fail records err unless an earlier error is already pending — for the
// format-specific checks callers layer on top of the primitive reads.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Pos returns the offset of the next unread byte.
func (c *Cursor) Pos() int { return c.pos }

// Rest returns the number of unread bytes. Every format read through a
// cursor ends with its last record, so a loader requires Rest() == 0.
func (c *Cursor) Rest() int { return len(c.data) - c.pos }

var errVarintOverflow = errors.New("provenance: varint overflows a 64-bit integer")

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() uint64 {
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
func (c *Cursor) Count(what string) int {
	v := c.Uvarint()
	if c.err == nil && v > maxCount {
		c.err = fmt.Errorf("provenance: %s count %d exceeds limit", what, v)
		return 0
	}
	return int(v)
}

// Clamp bounds a declared element count to the bytes left, for sizing an
// allocation before the elements are read: every element of every format
// occupies at least one byte, so a genuine count is allocated exactly once
// and a lying one cannot reserve more elements than the input has bytes —
// it then runs into the end of the data.
func (c *Cursor) Clamp(n int) int {
	if n < 0 {
		return 0
	}
	if rest := c.Rest(); n > rest {
		return rest
	}
	return n
}

// Byte reads one byte.
func (c *Cursor) Byte() uint8 {
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

func (c *Cursor) bool() bool { return c.Byte() != 0 }

// SkipVarints advances past n varints without decoding their values,
// rejecting truncation and overlong encodings exactly as Uvarint would — the
// primitive of the validating skip-scans, which prove a column region
// well-formed at load time so that its later decode cannot fail. It reports
// whether the varints, read as one Δ column, are non-decreasing: a negative
// delta is an odd zigzag value, a varint has the parity of its first byte,
// and the first delta (from 0) says nothing about order.
func (c *Cursor) SkipVarints(n int) (ordered bool) {
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
func (c *Cursor) DeltaColumn(n int) []int64 {
	out := make([]int64, 0, c.Clamp(n))
	var prev int64
	for i := 0; i < n && c.err == nil; i++ {
		u := c.Uvarint()
		prev += int64(u>>1) ^ -int64(u&1)
		out = append(out, prev)
	}
	return out
}

// take returns the next n bytes as a view of the data.
func (c *Cursor) take(n int) []byte {
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
func (c *Cursor) str(n uint64) string {
	const maxStr = 1 << 20
	if c.err == nil && n > maxStr {
		c.err = fmt.Errorf("provenance: string length %d exceeds limit", n)
	}
	return string(c.take(int(n)))
}

// end requires the cursor at the end of a run stream: neither codec version
// has a trailer, and the content hash must not cover bytes no decoder read.
func (c *Cursor) end() error {
	if n := c.Rest(); n > 0 {
		return fmt.Errorf("provenance: %d trailing bytes after the last operator", n)
	}
	return nil
}

// The fixed-width little-endian reads of the frozen v1 layout.

func (c *Cursor) u16() uint16 {
	if b := c.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *Cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *Cursor) i64() int64 {
	if b := c.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// str32 reads a v1 string: u32 length, then the bytes.
func (c *Cursor) str32() string { return c.str(uint64(c.u32())) }
