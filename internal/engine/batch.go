package engine

import (
	"math/bits"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// This file implements the columnar morsel representation of the filter
// kernel (DESIGN.md §10). A logical partition is processed in chunks of at
// most batchSize rows; each chunk is wrapped in a batch that lazily decodes
// the access paths the predicate reads into colVec columns —
// scalar columns carry typed arrays plus a validity bitmap, everything else
// (nested bags, items, mixed-kind attributes) stays as a generic value
// column. A batch is made per morsel, its columns per chunk.
//
// Correctness contract: a colVec must reproduce Expr.Eval's view of the data
// exactly. For every row i, at(i) returns a value equal (as a Go struct)
// to what colExpr.Eval would have produced: the stored value itself, or
// nested.Null() when the path was absent. Typed storage is only used when
// every non-null value of the chunk has the same scalar kind — mixed or
// structured columns fall back to generic storage so no value is ever
// re-encoded lossily.

// batchSize is the maximum rows per column batch. Small enough that a
// chunk's columns stay cache-resident, large enough to amortise per-batch
// setup; partitions smaller than one batch (the common case at
// DefaultPartitions) form a single chunk.
const batchSize = 256

// validity is a little-endian bitmap with one bit per row; a set bit means
// the row's value is non-null. A nil validity means every row is valid.
type validity []uint64

func newValidity(n int) validity { return make(validity, (n+63)/64) }

func (b validity) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b validity) get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 == 1 }

// count returns the number of set bits.
func (b validity) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// colVec is one decoded column of a batch: the values of one expression (or
// access path) across every row of the chunk.
//
// Representation, by kind:
//   - KindInt/KindDouble/KindString/KindBool: the matching typed slice holds
//     the non-null values (null slots are zero), valid marks the non-null
//     rows (nil = no nulls);
//   - KindInvalid: generic storage — vals holds the exact per-row values.
//
// bcast marks a broadcast column (a literal): physical slot 0 applies to
// every logical row.
type colVec struct {
	n     int
	kind  nested.Kind
	bcast bool
	valid validity
	ints  []int64
	dbls  []float64
	strs  []string
	bools []bool
	vals  []nested.Value
}

// phys maps a logical row index to the physical slot.
func (c *colVec) phys(i int) int {
	if c.bcast {
		return 0
	}
	return i
}

// isNull reports whether row i holds a null (absent or explicit).
func (c *colVec) isNull(i int) bool {
	i = c.phys(i)
	if c.kind == nested.KindInvalid {
		return c.vals[i].IsNull()
	}
	return c.valid != nil && !c.valid.get(i)
}

// at materialises row i as the exact value colExpr.Eval would see.
func (c *colVec) at(i int) nested.Value {
	i = c.phys(i)
	if c.kind == nested.KindInvalid {
		return c.vals[i]
	}
	if c.valid != nil && !c.valid.get(i) {
		return nested.Null()
	}
	switch c.kind {
	case nested.KindInt:
		return nested.Int(c.ints[i])
	case nested.KindDouble:
		return nested.Double(c.dbls[i])
	case nested.KindString:
		return nested.StringVal(c.strs[i])
	case nested.KindBool:
		return nested.Bool(c.bools[i])
	}
	return nested.Null()
}

// constCol builds a broadcast column for a literal value.
func constCol(v nested.Value, n int) *colVec {
	c := &colVec{n: n, bcast: true}
	switch v.Kind() {
	case nested.KindInt:
		i, _ := v.AsInt()
		c.kind, c.ints = nested.KindInt, []int64{i}
	case nested.KindDouble:
		f, _ := v.AsDouble()
		c.kind, c.dbls = nested.KindDouble, []float64{f}
	case nested.KindString:
		s, _ := v.AsString()
		c.kind, c.strs = nested.KindString, []string{s}
	case nested.KindBool:
		b, _ := v.AsBool()
		c.kind, c.bools = nested.KindBool, []bool{b}
	default:
		c.kind, c.vals = nested.KindInvalid, []nested.Value{v}
	}
	return c
}

// boolCol wraps an all-valid boolean result column (the output of vectorized
// predicates and comparisons).
func boolCol(truth []bool) *colVec {
	return &colVec{n: len(truth), kind: nested.KindBool, bools: truth}
}

// batch wraps one chunk of a partition morsel with a lazily populated column
// cache. The rows slice is borrowed (read-only); cols holds the chunk's
// decoded columns by access path, so every expression node sharing a path
// decodes it once per chunk. A filter morsel makes one batch and resets it
// per chunk, so a chunk allocates only its columns.
type batch struct {
	rows []Row
	vals []nested.Value // gather's destination, at least a chunk long
	cols []batchCol
}

type batchCol struct {
	p path.Path
	c *colVec
}

// reset points the batch at the next chunk and drops the last one's columns.
func (b *batch) reset(rows []Row) {
	b.rows, b.cols = rows, b.cols[:0]
}

func (b *batch) n() int { return len(b.rows) }

// column returns the decoded column for an access path, decoding on first
// use and caching for the rest of the chunk.
func (b *batch) column(p path.Path) *colVec {
	for _, bc := range b.cols {
		if bc.p.Equal(p) {
			return bc.c
		}
	}
	c := decodeColumn(p, b.rows, b.vals)
	b.cols = append(b.cols, batchCol{p, c})
	return c
}

// decodeColumn gathers an access path off every row of the chunk into buf,
// then fills the column from it. The column comes out typed when all
// non-null values share one scalar kind; otherwise generic. Absent paths
// decode as null, exactly like colExpr.Eval.
func decodeColumn(p path.Path, rows []Row, buf []nested.Value) *colVec {
	n := len(rows)
	vals := buf[:n]
	gather(p, rows, vals, 0, 1)
	c := &colVec{n: n} // generic until a scalar kind is adopted
	valid := newValidity(n)
	nulls := 0
	for i := range vals {
		v := &vals[i]
		k := v.Kind()
		if k == nested.KindNull {
			nulls++
			if c.kind != nested.KindInvalid {
				c.appendZero()
			} else {
				c.appendVal(nested.Null())
			}
			continue
		}
		if c.kind == nested.KindInvalid && i == nulls && k.IsConstant() {
			// Column start (only nulls so far): adopt the scalar kind and
			// promote the null prefix to typed zero slots.
			c.adoptKind(k, i)
		}
		if c.kind != nested.KindInvalid {
			if k == c.kind {
				valid.set(i)
				c.appendTyped(v)
				continue
			}
			// Mixed kinds: demote everything decoded so far to generic.
			c.demote(valid, i)
		}
		c.appendVal(*v)
	}
	if c.kind != nested.KindInvalid && nulls > 0 {
		c.valid = valid
	}
	return c
}

// adoptKind switches a so-far-all-null column to typed storage of kind k,
// backfilling i zero slots for the null prefix. The typed slice is sized for
// the whole chunk up front so the decode loop never regrows it.
func (c *colVec) adoptKind(k nested.Kind, i int) {
	c.kind, c.vals = k, nil
	switch k {
	case nested.KindInt:
		c.ints = make([]int64, 0, c.n)
	case nested.KindDouble:
		c.dbls = make([]float64, 0, c.n)
	case nested.KindString:
		c.strs = make([]string, 0, c.n)
	case nested.KindBool:
		c.bools = make([]bool, 0, c.n)
	}
	for j := 0; j < i; j++ {
		c.appendZero()
	}
}

func (c *colVec) appendZero() {
	switch c.kind {
	case nested.KindInt:
		c.ints = append(c.ints, 0)
	case nested.KindDouble:
		c.dbls = append(c.dbls, 0)
	case nested.KindString:
		c.strs = append(c.strs, "")
	case nested.KindBool:
		c.bools = append(c.bools, false)
	}
}

func (c *colVec) appendTyped(v *nested.Value) {
	switch c.kind {
	case nested.KindInt:
		i, _ := v.AsInt()
		c.ints = append(c.ints, i)
	case nested.KindDouble:
		f, _ := v.AsDouble()
		c.dbls = append(c.dbls, f)
	case nested.KindString:
		s, _ := v.AsString()
		c.strs = append(c.strs, s)
	case nested.KindBool:
		b, _ := v.AsBool()
		c.bools = append(c.bools, b)
	}
}

// demote rewrites the first i typed slots as generic values and switches the
// column to generic storage (a later row broke the single-kind assumption).
func (c *colVec) demote(valid validity, i int) {
	vals := make([]nested.Value, 0, c.n)
	for j := 0; j < i; j++ {
		if !valid.get(j) {
			vals = append(vals, nested.Null())
			continue
		}
		switch c.kind {
		case nested.KindInt:
			vals = append(vals, nested.Int(c.ints[j]))
		case nested.KindDouble:
			vals = append(vals, nested.Double(c.dbls[j]))
		case nested.KindString:
			vals = append(vals, nested.StringVal(c.strs[j]))
		case nested.KindBool:
			vals = append(vals, nested.Bool(c.bools[j]))
		}
	}
	c.kind = nested.KindInvalid
	c.ints, c.dbls, c.strs, c.bools = nil, nil, nil, nil
	c.vals = vals
}

// appendVal appends to the generic value buffer, sized for the whole chunk on
// first need; a typed column reaches it at most for its null prefix.
func (c *colVec) appendVal(v nested.Value) {
	if c.vals == nil {
		c.vals = make([]nested.Value, 0, c.n)
	}
	c.vals = append(c.vals, v)
}
