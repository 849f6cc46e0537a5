package provenance

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"pebble/internal/engine"
	"pebble/internal/path"
)

// Lazy decoding: ReadRunLazy returns a Run whose association columns stay
// encoded until an operator's bag is first touched (Operator.Columns). A
// backtrace visits only the operators on its walk — typically a handful out
// of a large run — so the load phase should not pay for decoding every column.
//
// The stream carries no directory (nor any optional trailer; every strict
// prefix of a stream is invalid, and the codec tests pin that). ReadRunLazy
// derives a per-operator offset directory with a validating skip-scan of a
// v2 or v3 stream: the static parts (dictionary, operator headers, paths,
// mappings) decode at load, and each association block is structurally
// validated — count caps, varint boundaries, the run bits and the run
// lengths, aggregate length sums — and recorded as a byte region of the
// backing slice. Because the scan proves every region well-formed up front,
// the decode is infallible and corrupt streams fail at load time. There is
// no second decoder: ReadRun is this load followed by a touch of every bag.

// lazyStream is the shared backing state of one lazily loaded run: the raw
// encoded bytes plus the materialisation accounting the query sweep reports.
type lazyStream struct {
	data    []byte
	total   int64        // bytes of all association regions
	decoded atomic.Int64 // bytes of regions materialised so far
}

// lazyAssoc is one operator's validated byte region of the stream, decoded
// once, on the first Operator.Columns call.
type lazyAssoc struct {
	src      *lazyStream
	once     sync.Once
	off, end int   // region [off, end): count varint + columns
	runs     uint8 // the run-coded columns (0 in a v2 stream)
}

// ContentHash returns HashStream of the run's encoded stream — the bytes it
// was loaded from, or a capture's own. The index sidecar records it; nothing
// on the load or trace path computes it.
func (r *Run) ContentHash() uint64 { return HashStream(r.stream) }

// AssocBytesTotal returns the encoded size of all association regions of a
// lazily loaded or captured columnar run (0 for a run ReadRun decoded or a
// v1 stream) — the bytes ReadRun materialises unconditionally.
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

// HashStream fingerprints an encoded stream — the content hash an index
// sidecar records. It is the FNV-1a mixing step folded over the length and
// 8-byte little-endian words (tail bytes fold individually), so hashing runs
// at word speed.
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
// infallible. v1 streams have no columnar layout and decode fully. The run
// retains data, which WriteTo writes back verbatim. This is the one load
// path: ReadRun is ReadRunLazy plus the decode of every bag, and
// Collector.Finish ends in it.
func ReadRunLazy(data []byte) (*Run, error) {
	c := &cursor{data: data}
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
	case codecVersionV2, codecVersionV3:
		run, err = scanRun(c, version)
	default:
		err = fmt.Errorf("provenance: unsupported version %d", version)
	}
	if err != nil {
		return nil, err
	}
	run.stream = data
	return run, nil
}

// scanner reads the columnar layout following the magic/version prefix: the
// cursor's primitives plus the string dictionary that references resolve
// against, each entry parsed as a path at most once.
type scanner struct {
	*cursor
	dict  []string
	paths map[string]path.Path
	v3    bool  // tag bytes carry run bits
	sizes Sizes // the operators' shares so far
}

// scanRun performs the validating skip-scan over a v2 or v3 stream: static
// parts decode eagerly, association blocks are verified and recorded as lazy
// regions.
func scanRun(c *cursor, version uint16) (*Run, error) {
	d := &scanner{cursor: c, paths: map[string]path.Path{}, v3: version >= codecVersionV3}
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
	run.sizes = d.sizes
	run.sizes.Framing = int64(len(c.data)) - d.sizes.LineageBytes - d.sizes.StructuralExtra
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
func (d *scanner) path(what string) path.Path { return d.parse(d.ref(what)) }

// parse parses s as an access path once however often the stream names it,
// so what a load allocates stays proportional to the stream, and hands it
// out with cap = len, so an append to one operator's path never writes into
// another's.
func (d *scanner) parse(s string) path.Path {
	p, ok := d.paths[s]
	if d.err == nil && !ok {
		var err error
		if p, err = path.Parse(s); err != nil {
			d.Fail(err)
		}
		p = p[:len(p):len(p)]
		d.paths[s] = p
	}
	return p
}

// scanOp decodes one operator's static part, validates its association
// block into a lazy region and counts its bytes into the scanner's sizes.
func (d *scanner) scanOp(ls *lazyStream) *Operator {
	op, start := &Operator{}, d.pos
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
	lineage := d.scanAssocs(op, ls)
	op.bytes = int64(d.pos - start)
	d.sizes.LineageBytes += lineage
	d.sizes.StructuralExtra += op.bytes - lineage
	return op
}

// scanAssocs validates one association block and records it as a lazy
// region instead of materialising the columns. It returns the region's
// lineage bytes: all of it but a flatten's Pos column.
func (d *scanner) scanAssocs(op *Operator, ls *lazyStream) (lineage int64) {
	tag, runs := d.Byte(), uint8(0)
	if d.v3 {
		tag, runs = tag&7, tag>>3
	}
	kind := AssocKind(tag)
	switch {
	case d.err != nil:
	case kind > AssocAgg:
		d.err = fmt.Errorf("provenance: unknown association tag %d", tag)
	case runs&^runColumns[kind] != 0:
		d.err = fmt.Errorf("provenance: run bits %#b name a column a layout-%d bag cannot run-code", runs, kind)
	case kind != AssocNone && runs&rowColumns[kind] == rowColumns[kind]:
		d.err = fmt.Errorf("provenance: run bits %#b run-code every column of n entries of a layout-%d bag", runs, kind)
	}
	if d.err != nil || kind == AssocNone {
		return 0
	}
	start, posBytes := d.pos, 0
	n, totalIns := d.Count("association"), 0
	var ordered bool // of the Out column: the last one, but the first of a source or aggregate
	switch kind {
	case AssocSource:
		ordered = d.skipColumn(n, runs, 0)
		d.skipColumn(n, runs, 1)
	case AssocUnary:
		d.skipColumn(n, runs, 0)
		ordered = d.skipColumn(n, runs, 1)
	case AssocBinary:
		d.skipColumn(n, runs, 0)
		d.skipColumn(n, runs, 1)
		ordered = d.skipColumn(n, runs, 2)
	case AssocFlatten:
		d.SkipVarints(n)
		pos := d.pos
		d.SkipVarints(n)
		posBytes = d.pos - pos
		ordered = d.skipColumn(n, runs, 2)
	case AssocAgg:
		ordered = d.skipColumn(n, runs, 0)
		for i := 0; i < n && d.err == nil; i++ {
			l := d.Uvarint()
			if d.err == nil && (l > maxCount || totalIns+int(l) < totalIns) {
				d.err = fmt.Errorf("provenance: aggregate input count %d exceeds limit", l)
			}
			totalIns += int(l)
		}
		d.SkipVarints(totalIns)
	}
	if d.err != nil {
		return 0
	}
	op.kind, op.n, op.totalIns, op.outOfOrder = kind, n, totalIns, !ordered
	op.lazy = &lazyAssoc{src: ls, off: start, end: d.pos, runs: runs}
	ls.total += int64(d.pos - start)
	return int64(d.pos - start - posBytes)
}

// decode reads the region's columns and charges its bytes to the stream's
// decoded count. The load-time scan proved the region well-formed, so a
// decode failure here is a bug, not an input error — it panics rather than
// silently returning partial provenance.
func (l *lazyAssoc) decode(op *Operator) Columns {
	d := &cursor{data: l.src.data[:l.end], pos: l.off}
	n, runs := d.Count("association"), l.runs
	c := Columns{Kind: op.kind}
	switch c.Kind {
	case AssocSource:
		c.Out, c.In = d.column(n, runs, 0), d.column(n, runs, 1)
	case AssocUnary:
		c.In, c.Out = d.column(n, runs, 0), d.column(n, runs, 1)
	case AssocBinary:
		c.In, c.Right, c.Out = d.column(n, runs, 0), d.column(n, runs, 1), d.column(n, runs, 2)
	case AssocFlatten:
		c.In, c.Pos = d.DeltaColumn(n), make([]int64, n)
		for j := range c.Pos {
			c.Pos[j] = int64(d.Uvarint())
		}
		c.Out = d.column(n, runs, 2)
	case AssocAgg:
		c.Out, c.Offs = d.column(n, runs, 0), make([]int32, n+1)
		for j := 0; j < n; j++ {
			c.Offs[j+1] = c.Offs[j] + int32(d.Uvarint())
		}
		c.In = d.DeltaColumn(op.totalIns)
	}
	if d.err != nil || d.pos != l.end {
		panic(fmt.Sprintf("provenance: lazy association decode diverged from validated scan (err=%v pos=%d end=%d)", d.err, d.pos, l.end))
	}
	l.src.decoded.Add(int64(l.end - l.off))
	return c
}
