package provenance

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pebble/internal/engine"
	"pebble/internal/path"
)

// Lazy decoding: ReadRunLazy returns a Run whose association columns stay
// encoded until an operator's bag is first touched. A backtrace visits only
// the operators on its walk — typically a handful out of a large run — so
// the load phase should not pay for materialising every column.
//
// The v2 wire format is unchanged (it has no optional trailer; every strict
// prefix of a stream is invalid, and the codec tests pin that). Instead of a
// serialized directory, ReadRunLazy derives a per-operator offset directory
// with a validating skip-scan: the static parts (dictionary, operator
// headers, paths, mappings) decode at load, and each association block is
// structurally validated — count caps, varint boundaries, aggregate length
// sums — and recorded as a byte region of the backing slice. Because the scan
// proves every region well-formed up front, materialisation is infallible
// and corrupt streams fail at load time. There is no second decoder: ReadRun
// is this load followed by the materialisation of every region.

// AssocKind enumerates the association bag layouts of Tab. 6; the values
// coincide with the codec's wire tags.
type AssocKind uint8

const (
	// AssocNone marks an operator that captured no association bag.
	AssocNone AssocKind = iota
	// AssocSource is the ⟨id, orig_id⟩ layout of source operators.
	AssocSource
	// AssocUnary is the ⟨id_i, id_o⟩ layout of map, select, and filter.
	AssocUnary
	// AssocBinary is the ⟨id_i1, id_i2, id_o⟩ layout of join and union.
	AssocBinary
	// AssocFlatten is the ⟨id_i, pos, id_o⟩ layout of flatten.
	AssocFlatten
	// AssocAgg is the ⟨ids_i, id_o⟩ layout of grouping/aggregation.
	AssocAgg
)

// lazyStream is the shared backing state of one lazily loaded run: the raw
// encoded bytes plus the materialisation accounting the query sweep reports.
type lazyStream struct {
	data    []byte
	total   int64        // bytes of all association regions
	decoded atomic.Int64 // bytes of regions materialised so far
}

// lazyAssoc defers one operator's association columns: a validated byte
// region of the stream plus the counts the scan already proved consistent.
type lazyAssoc struct {
	src      *lazyStream
	once     sync.Once
	counted  atomic.Bool // the region is in src.decoded
	tag      AssocKind
	n        int  // association rows
	totalIns int  // AssocAgg only: total Ins elements across all groups
	ordered  bool // the Out column is non-decreasing
	off, end int  // region [off, end): count varint + columns
}

// Columns is one operator's association bag as parallel columns, one entry
// per association row in captured order: the layout the run stream stores and
// the one the tracer looks identifiers up in (internal/backtrace) — where Out
// is non-decreasing, the columns are the index.
type Columns struct {
	Kind  AssocKind
	Out   []int64 // id_o (a source's id)
	In    []int64 // id_i (binary: id_i1; source: orig_id; aggregate: all rows' ids_i, concatenated)
	Right []int64 // binary: id_i2
	Pos   []int64 // flatten: pos
	Offs  []int32 // aggregate: row i owns In[Offs[i]:Offs[i+1]]
}

// Columns returns the operator's association bag as columns. A lazily loaded
// operator decodes them straight from its validated region, without building
// the row structs; a captured one copies its rows out in one pass. The caller
// owns the result.
func (o *Operator) Columns() Columns {
	if o.lazy != nil {
		return o.lazy.columns()
	}
	n := o.AssocCount()
	c := Columns{Kind: o.AssocKind(), Out: make([]int64, n), In: make([]int64, n)}
	switch c.Kind {
	case AssocSource:
		for j, a := range o.SourceIDs {
			c.Out[j], c.In[j] = a.ID, a.OrigID
		}
	case AssocUnary:
		for j, a := range o.Unary {
			c.Out[j], c.In[j] = a.Out, a.In
		}
	case AssocBinary:
		c.Right = make([]int64, n)
		for j, a := range o.Binary {
			c.Out[j], c.In[j], c.Right[j] = a.Out, a.Left, a.Right
		}
	case AssocFlatten:
		c.Pos = make([]int64, n)
		for j, a := range o.Flatten {
			c.Out[j], c.In[j], c.Pos[j] = a.Out, a.In, int64(a.Pos)
		}
	case AssocAgg:
		c.In, c.Offs = c.In[:0], make([]int32, 1, n+1)
		for j, a := range o.Agg {
			c.Out[j] = a.Out
			c.In = append(c.In, a.Ins...)
			c.Offs = append(c.Offs, int32(len(c.In)))
		}
	}
	return c
}

// OutOrdered reports whether the operator's Out column is non-decreasing. The
// engine writes no other (identifiers are assigned in partition-concatenated
// row order), and the load-time scan reads it off the column's deltas, so for
// a loaded run the answer costs nothing.
func (o *Operator) OutOrdered() bool {
	if o.lazy != nil {
		return o.lazy.ordered
	}
	return slices.IsSorted(o.Columns().Out)
}

// materialize decodes the operator's association columns on first touch.
func (o *Operator) materialize() {
	if o.lazy == nil {
		return
	}
	o.lazy.once.Do(func() { o.lazy.decode(o) })
}

// AssocKind returns the layout of the operator's association bag without
// materialising it.
func (o *Operator) AssocKind() AssocKind {
	if o.lazy != nil {
		return o.lazy.tag
	}
	switch {
	case o.SourceIDs != nil:
		return AssocSource
	case o.Unary != nil:
		return AssocUnary
	case o.Binary != nil:
		return AssocBinary
	case o.Flatten != nil:
		return AssocFlatten
	case o.Agg != nil:
		return AssocAgg
	}
	return AssocNone
}

// UnaryAssocs returns the ⟨id_i, id_o⟩ bag, decoding it on first touch for
// lazily loaded runs. All query-side consumers go through these accessors;
// the exported fields stay valid for eagerly built or decoded runs.
func (o *Operator) UnaryAssocs() []UnaryAssoc {
	o.materialize()
	return o.Unary
}

// BinaryAssocs returns the ⟨id_i1, id_i2, id_o⟩ bag, decoding on first touch.
func (o *Operator) BinaryAssocs() []BinaryAssoc {
	o.materialize()
	return o.Binary
}

// FlattenAssocs returns the ⟨id_i, pos, id_o⟩ bag, decoding on first touch.
func (o *Operator) FlattenAssocs() []FlattenAssoc {
	o.materialize()
	return o.Flatten
}

// AggAssocs returns the ⟨ids_i, id_o⟩ bag, decoding on first touch.
func (o *Operator) AggAssocs() []AggAssoc {
	o.materialize()
	return o.Agg
}

// SourceAssocs returns the ⟨id, orig_id⟩ bag, decoding on first touch.
func (o *Operator) SourceAssocs() []SourceAssoc {
	o.materialize()
	return o.SourceIDs
}

// ContentHash returns the FNV-1a hash of the encoded stream the run was
// loaded from, used to pair a run with its persisted index sidecar. Every
// loaded run (ReadRunLazy, ReadRun) carries one, and so does a captured run
// once WriteTo has encoded it; ok is false for a run that has no encoded form
// yet.
func (r *Run) ContentHash() (uint64, bool) { return r.hash, r.hasHash }

// AssocBytesTotal returns the encoded size of all association regions of a
// lazily loaded v2 run (0 for fully decoded or in-memory runs) — the bytes
// ReadRun materialises unconditionally.
func (r *Run) AssocBytesTotal() int64 {
	if r.lazy == nil {
		return 0
	}
	return r.lazy.total
}

// AssocBytesDecoded returns how many association-region bytes have been
// materialised so far; a trace that visits few operators keeps this far
// below AssocBytesTotal.
func (r *Run) AssocBytesDecoded() int64 {
	if r.lazy == nil {
		return 0
	}
	return r.lazy.decoded.Load()
}

// HashStream fingerprints an encoded stream — the content hash sidecars are
// validated against. It is the FNV-1a mixing step folded over the length and
// 8-byte little-endian words (tail bytes fold individually), so hashing runs
// at word speed: reload paths hash every stream and sidecar they open, and a
// byte-at-a-time hash would rival the decode it guards.
func HashStream(data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := (uint64(offset64) ^ uint64(len(data))) * prime64
	for len(data) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(data)) * prime64
		data = data[8:]
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// ReadRunLazy loads a run from its encoded bytes, deferring association
// column decode until an operator's bag is first touched. The stream is
// fully validated up front (a corrupt or truncated stream, or one with bytes
// after its last operator, errors here, never later), so the accessors are
// infallible. v1 streams have no columnar layout and decode fully. Every
// loaded run carries the content hash of data. This is the one load path:
// ReadRun is ReadRunLazy plus the decode of every bag.
func ReadRunLazy(data []byte) (*Run, error) {
	c := NewCursor(data)
	magic := c.take(len(codecMagic))
	version := c.u16()
	if c.err != nil {
		return nil, c.err
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("provenance: bad magic %q", magic)
	}
	var (
		run *Run
		err error
	)
	switch version {
	case codecVersionV1:
		run, err = readRunV1(c)
	case codecVersionV2:
		run, err = scanRunV2(c)
	default:
		err = fmt.Errorf("provenance: unsupported version %d", version)
	}
	if err != nil {
		return nil, err
	}
	run.hash, run.hasHash = HashStream(data), true
	return run, nil
}

// scanner reads the v2 layout following the magic/version prefix: the
// cursor's primitives plus the string dictionary that references resolve
// against.
type scanner struct {
	*Cursor
	dict []string
}

// scanRunV2 performs the validating skip-scan over a v2 stream: static parts
// decode eagerly, association blocks are verified and recorded as lazy
// regions.
func scanRunV2(c *Cursor) (*Run, error) {
	d := &scanner{Cursor: c}
	nDict := d.Count("dictionary")
	d.dict = make([]string, 0, d.Clamp(nDict))
	for i := 0; i < nDict && d.err == nil; i++ {
		d.dict = append(d.dict, d.str(d.Uvarint()))
	}
	nOps := d.Count("operator")
	if d.err != nil {
		return nil, d.err
	}
	ls := &lazyStream{data: c.data}
	run := &Run{ops: make(map[int]*Operator), lazy: ls}
	for i := 0; i < nOps; i++ {
		op := d.scanOp(ls)
		if d.err != nil {
			return nil, d.err
		}
		run.ops[op.OID] = op
		run.order = append(run.order, op.OID)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return run, nil
}

// ref reads a dictionary reference and resolves it, rejecting out-of-range
// indexes.
func (d *scanner) ref(what string) string {
	i := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(d.dict)) {
		d.err = fmt.Errorf("provenance: %s dictionary reference %d out of range (dictionary has %d entries)", what, i, len(d.dict))
		return ""
	}
	return d.dict[i]
}

// path resolves a dictionary reference and parses it as an access path.
func (d *scanner) path(what string) path.Path {
	s := d.ref(what)
	if d.err != nil {
		return nil
	}
	return d.parse(s)
}

func (d *scanner) parse(s string) path.Path {
	p, err := path.Parse(s)
	if err != nil {
		d.Fail(err)
	}
	return p
}

// scanOp decodes one operator's static part and validates its association
// block into a lazy region.
func (d *scanner) scanOp(ls *lazyStream) *Operator {
	op := &Operator{}
	op.OID = int(d.Uvarint())
	op.Type = engine.OpType(d.ref("operator type"))
	op.ManipUndefined = d.bool()
	nIn := d.Count("input")
	for j := 0; j < nIn && d.err == nil; j++ {
		var in engine.InputInfo
		in.Pred = int(d.Uvarint())
		in.SourceName = d.ref("source name")
		in.AccessUndefined = d.bool()
		nAcc := d.Count("accessed path")
		for k := 0; k < nAcc && d.err == nil; k++ {
			in.Accessed = append(in.Accessed, d.path("accessed path"))
		}
		nSchema := d.Count("schema string")
		for k := 0; k < nSchema && d.err == nil; k++ {
			in.Schema = append(in.Schema, d.ref("schema string"))
		}
		op.Inputs = append(op.Inputs, in)
	}
	nManip := d.Count("mapping")
	for j := 0; j < nManip && d.err == nil; j++ {
		var m engine.Mapping
		if in := d.ref("mapping input path"); in != "" && d.err == nil {
			m.In = d.parse(in)
		}
		m.Out = d.path("mapping output path")
		m.GroupKey = d.bool()
		op.Manipulated = append(op.Manipulated, m)
	}
	d.scanAssocs(op, ls)
	return op
}

// scanAssocs validates one association block and records it as a lazy
// region instead of materialising the columns.
func (d *scanner) scanAssocs(op *Operator, ls *lazyStream) {
	tag := d.Byte()
	if d.err != nil {
		return
	}
	start := d.pos
	var n, totalIns int
	var ordered bool // of the Out column: the last one, but the first of a source or aggregate
	switch AssocKind(tag) {
	case AssocNone:
		return
	case AssocSource:
		n = d.Count("source association")
		ordered = d.SkipVarints(n)
		d.SkipVarints(n)
	case AssocUnary:
		n = d.Count("unary association")
		d.SkipVarints(n)
		ordered = d.SkipVarints(n)
	case AssocBinary:
		n = d.Count("binary association")
		d.SkipVarints(2 * n)
		ordered = d.SkipVarints(n)
	case AssocFlatten:
		n = d.Count("flatten association")
		d.SkipVarints(2 * n)
		ordered = d.SkipVarints(n)
	case AssocAgg:
		n = d.Count("aggregate association")
		ordered = d.SkipVarints(n)
		for i := 0; i < n && d.err == nil; i++ {
			l := d.Uvarint()
			if d.err == nil && (l > maxCount || totalIns+int(l) < totalIns) {
				d.err = fmt.Errorf("provenance: aggregate input count %d exceeds limit", l)
			}
			totalIns += int(l)
		}
		d.SkipVarints(totalIns)
	default:
		d.err = fmt.Errorf("provenance: unknown association tag %d", tag)
		return
	}
	if d.err != nil {
		return
	}
	op.lazy = &lazyAssoc{src: ls, tag: AssocKind(tag), n: n, totalIns: totalIns, ordered: ordered, off: start, end: d.pos}
	ls.total += int64(d.pos - start)
}

// columns decodes the deferred region. The load-time scan proved it
// well-formed, so a decode failure here is a bug, not an input error — it
// panics rather than silently returning partial provenance.
func (l *lazyAssoc) columns() Columns {
	d := &Cursor{data: l.src.data[:l.end], pos: l.off}
	n := d.Count("association")
	c := Columns{Kind: l.tag}
	switch l.tag {
	case AssocSource:
		c.Out, c.In = d.DeltaColumn(n), d.DeltaColumn(n)
	case AssocUnary:
		c.In, c.Out = d.DeltaColumn(n), d.DeltaColumn(n)
	case AssocBinary:
		c.In, c.Right, c.Out = d.DeltaColumn(n), d.DeltaColumn(n), d.DeltaColumn(n)
	case AssocFlatten:
		c.In, c.Pos = d.DeltaColumn(n), make([]int64, n)
		for j := range c.Pos {
			c.Pos[j] = int64(d.Uvarint())
		}
		c.Out = d.DeltaColumn(n)
	case AssocAgg:
		c.Out, c.Offs = d.DeltaColumn(n), make([]int32, n+1)
		for j := 0; j < n; j++ {
			c.Offs[j+1] = c.Offs[j] + int32(d.Uvarint())
		}
		c.In = d.DeltaColumn(l.totalIns)
	}
	if d.err != nil || d.pos != l.end {
		panic(fmt.Sprintf("provenance: lazy association decode diverged from validated scan (err=%v pos=%d end=%d)", d.err, d.pos, l.end))
	}
	if l.counted.CompareAndSwap(false, true) {
		l.src.decoded.Add(int64(l.end - l.off))
	}
	return c
}

// decode materialises the operator's association rows from its columns.
func (l *lazyAssoc) decode(op *Operator) {
	c := l.columns()
	switch l.tag {
	case AssocSource:
		op.SourceIDs = make([]SourceAssoc, l.n)
		for j := range op.SourceIDs {
			op.SourceIDs[j] = SourceAssoc{ID: c.Out[j], OrigID: c.In[j]}
		}
	case AssocUnary:
		op.Unary = make([]UnaryAssoc, l.n)
		for j := range op.Unary {
			op.Unary[j] = UnaryAssoc{In: c.In[j], Out: c.Out[j]}
		}
	case AssocBinary:
		op.Binary = make([]BinaryAssoc, l.n)
		for j := range op.Binary {
			op.Binary[j] = BinaryAssoc{Left: c.In[j], Right: c.Right[j], Out: c.Out[j]}
		}
	case AssocFlatten:
		op.Flatten = make([]FlattenAssoc, l.n)
		for j := range op.Flatten {
			op.Flatten[j] = FlattenAssoc{In: c.In[j], Pos: int(c.Pos[j]), Out: c.Out[j]}
		}
	case AssocAgg:
		op.Agg = make([]AggAssoc, l.n)
		for j := range op.Agg {
			lo, hi := c.Offs[j], c.Offs[j+1]
			op.Agg[j] = AggAssoc{Out: c.Out[j], Ins: c.In[lo:hi:hi]}
		}
	}
}
