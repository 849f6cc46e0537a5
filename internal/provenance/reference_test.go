package provenance

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"pebble/internal/engine"
	"pebble/internal/path"
)

// This file holds the references the codec tests compare the production
// paths against — the bodies that shipped beside them until ReadRun folded
// into ReadRunLazy and WriteTo became the only encoder:
//
//   - RefReadRun, the eager stream decoder of every codec version (fixed-width
//     v1 over io.Reader, columnar v2 to v4 over bufio). It shares no code
//     with the production cursor: its own varint reads (binary.ReadUvarint),
//     its own count cap and capacity clamp, its own run-column reader, rules
//     for the run bits and flatten positions. It stops at the last operator
//     and reports how many bytes follow, where the production loaders reject
//     them.
//   - RefEncodeV1, RefEncodeV2 and RefEncodeV3, the v1, v2 and v3 encoders,
//     written over Operator.Columns. The frozen *.golden, *.v2.golden and
//     *.v3.golden fixtures pin their bytes; they are what lets the tests keep
//     asking "does this run still project onto the archived streams".
//   - EncodeV4, the production v4 encoder over a run's decoded bags: a run
//     writes the stream it holds, so the tests that re-encode a loaded or
//     reference-built run call the encoder through this.
//   - RefPosBytes, the length of a flatten's v4 Pos column, counted from its
//     columns.
//   - refCheck, the load rules RefReadRun holds a decoded run to.
//
// The decoder keeps the row-major form the production code no longer has: it
// collects refRows and gathers them into columns at the end (refColumns), so
// "rows and columns say the same" stays checked from outside the column code.

// EncodeV4 returns the v4 stream of the run's operators and bags, whatever
// stream the run holds — what Collector.Finish would encode for it.
func EncodeV4(r *Run) []byte { return encode(r.Operators(), (*Operator).Columns, nil) }

// ---- v1 encoder ----

// RefEncodeV1 serialises the run in the fixed-width v1 layout.
func RefEncodeV1(r *Run) []byte {
	le := binary.LittleEndian
	str := func(buf []byte, s string) []byte {
		return append(le.AppendUint32(buf, uint32(len(s))), s...)
	}
	flag := func(buf []byte, v bool) []byte {
		if v {
			return append(buf, 1)
		}
		return append(buf, 0)
	}
	i64 := func(buf []byte, v int64) []byte { return le.AppendUint64(buf, uint64(v)) }

	ops := r.Operators()
	buf := append([]byte(nil), codecMagic...)
	buf = le.AppendUint16(buf, codecVersionV1)
	buf = le.AppendUint32(buf, uint32(len(ops)))
	for _, op := range ops {
		buf = le.AppendUint32(buf, uint32(op.OID))
		buf = str(buf, string(op.typ))
		buf = flag(buf, op.manipUndefined)
		buf = le.AppendUint32(buf, uint32(len(op.inputs)))
		for _, in := range op.inputs {
			buf = le.AppendUint32(buf, uint32(in.Pred))
			buf = str(buf, in.SourceName)
			buf = flag(buf, in.AccessUndefined)
			buf = le.AppendUint32(buf, uint32(len(in.Accessed)))
			for _, p := range in.Accessed {
				buf = str(buf, p.String())
			}
			buf = le.AppendUint32(buf, uint32(len(in.Schema)))
			for _, s := range in.Schema {
				buf = str(buf, s)
			}
		}
		buf = le.AppendUint32(buf, uint32(len(op.manip)))
		for _, m := range op.manip {
			buf = str(buf, m.In.String())
			buf = str(buf, m.Out.String())
			buf = flag(buf, m.GroupKey)
		}
		// Association bag, tagged by layout, row-major.
		c := op.Columns()
		buf = append(buf, byte(c.Kind))
		if c.Kind != AssocNone {
			buf = le.AppendUint32(buf, uint32(len(c.Out)))
		}
		for j, out := range c.Out {
			switch c.Kind {
			case AssocSource:
				buf = i64(i64(buf, out), c.In[j])
			case AssocUnary:
				buf = i64(i64(buf, c.In[j]), out)
			case AssocBinary:
				buf = i64(i64(i64(buf, c.In[j]), c.Right[j]), out)
			case AssocFlatten:
				buf = i64(le.AppendUint32(i64(buf, c.In[j]), uint32(c.Pos[j])), out)
			case AssocAgg:
				ins := c.In[c.Offs[j]:c.Offs[j+1]]
				buf = le.AppendUint32(i64(buf, out), uint32(len(ins)))
				for _, id := range ins {
					buf = i64(buf, id)
				}
			}
		}
	}
	return buf
}

// ---- v2 and v3 encoders ----

// RefEncodeV2 serialises the run in the columnar v2 layout: v3 without the
// run bits, every column Δ-coded (codec_v3.go has the table).
func RefEncodeV2(r *Run) []byte { return refEncodeColumnar(r, codecVersionV2) }

// RefEncodeV3 serialises the run in the columnar v3 layout: v4 with a
// flatten's positions written as they are, n uvarints, and only its Out
// column eligible for runs.
func RefEncodeV3(r *Run) []byte { return refEncodeColumnar(r, codecVersionV3) }

func refEncodeColumnar(r *Run, version uint16) []byte {
	var dict []string
	refs := map[string]uint64{}
	add := func(s string) {
		if _, ok := refs[s]; !ok {
			refs[s] = uint64(len(dict))
			dict = append(dict, s)
		}
	}
	for _, op := range r.Operators() {
		add(string(op.typ))
		for _, in := range op.inputs {
			add(in.SourceName)
			for _, p := range in.Accessed {
				add(p.String())
			}
			for _, s := range in.Schema {
				add(s)
			}
		}
		for _, m := range op.manip {
			add(m.In.String())
			add(m.Out.String())
		}
	}
	uv := binary.AppendUvarint
	flag := func(buf []byte, v bool) []byte {
		if v {
			return append(buf, 1)
		}
		return append(buf, 0)
	}

	buf := append([]byte(nil), codecMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = uv(buf, uint64(len(dict)))
	for _, s := range dict {
		buf = append(uv(buf, uint64(len(s))), s...)
	}
	buf = uv(buf, uint64(len(r.order)))
	for _, op := range r.Operators() {
		buf = uv(buf, uint64(op.OID))
		buf = uv(buf, refs[string(op.typ)])
		buf = flag(buf, op.manipUndefined)
		buf = uv(buf, uint64(len(op.inputs)))
		for _, in := range op.inputs {
			buf = uv(buf, uint64(in.Pred))
			buf = uv(buf, refs[in.SourceName])
			buf = flag(buf, in.AccessUndefined)
			buf = uv(buf, uint64(len(in.Accessed)))
			for _, p := range in.Accessed {
				buf = uv(buf, refs[p.String()])
			}
			buf = uv(buf, uint64(len(in.Schema)))
			for _, s := range in.Schema {
				buf = uv(buf, refs[s])
			}
		}
		buf = uv(buf, uint64(len(op.manip)))
		for _, m := range op.manip {
			buf = uv(buf, refs[m.In.String()])
			buf = uv(buf, refs[m.Out.String()])
			buf = flag(buf, m.GroupKey)
		}
		buf = refAppendBag(buf, op.Columns(), version)
	}
	return buf
}

// refAppendBag appends a v2 or v3 association bag. Every column is written
// both ways; v3 takes the run form of an identifier column it may run-code
// where that is strictly shorter — but a source, unary or binary bag keeps
// the column of shortest Δ form (the first of equals) Δ-coded.
func refAppendBag(buf []byte, c Columns, version uint16) []byte {
	var cols [][]int64 // the identifier columns in stream order; nil: Pos or lens
	var runnable []bool
	switch c.Kind {
	case AssocSource:
		cols, runnable = [][]int64{c.Out, c.In}, []bool{true, true}
	case AssocUnary:
		cols, runnable = [][]int64{c.In, c.Out}, []bool{true, true}
	case AssocBinary:
		cols, runnable = [][]int64{c.In, c.Right, c.Out}, []bool{true, true, true}
	case AssocFlatten:
		cols, runnable = [][]int64{c.In, nil, c.Out}, []bool{false, false, true}
	case AssocAgg:
		cols, runnable = [][]int64{c.Out, nil, c.In}, []bool{true, false, false}
	}
	forms := make([][2][]byte, len(cols)) // per column: Δ form, run form
	var mask byte
	for k, col := range cols {
		forms[k] = [2][]byte{refDeltas(nil, col), refRunForm(nil, col)}
		if version >= codecVersionV3 && runnable[k] && len(forms[k][1]) < len(forms[k][0]) {
			mask |= 1 << k
		}
	}
	if c.Kind >= AssocSource && c.Kind <= AssocBinary && int(mask) == 1<<len(cols)-1 {
		keep := 0
		for k := range cols {
			if len(forms[k][0]) < len(forms[keep][0]) {
				keep = k
			}
		}
		mask &^= 1 << keep
	}
	buf = append(buf, mask<<3|byte(c.Kind))
	if c.Kind == AssocNone {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Out)))
	for k := range cols {
		switch {
		case mask&(1<<k) != 0:
			buf = append(buf, forms[k][1]...)
		case c.Kind == AssocFlatten && k == 1:
			for _, p := range c.Pos {
				buf = binary.AppendUvarint(buf, uint64(p))
			}
		case c.Kind == AssocAgg && k == 1:
			for j := range c.Out {
				buf = binary.AppendUvarint(buf, uint64(c.Offs[j+1]-c.Offs[j]))
			}
		default:
			buf = append(buf, forms[k][0]...)
		}
	}
	return buf
}

// refDeltas appends col as zigzag deltas, prev starting at 0.
func refDeltas(buf []byte, col []int64) []byte {
	prev := int64(0)
	for _, v := range col {
		d := v - prev
		prev = v
		buf = binary.AppendUvarint(buf, uint64(d<<1)^uint64(d>>63))
	}
	return buf
}

// refRunForm appends col as runs of equal deltas: the run count, then per
// run its length and zigzag delta.
func refRunForm(buf []byte, col []int64) []byte {
	var runs []refRun
	prev := int64(0)
	for _, v := range col {
		if d := v - prev; len(runs) > 0 && runs[len(runs)-1].delta == d {
			runs[len(runs)-1].len++
		} else {
			runs = append(runs, refRun{len: 1, delta: d})
		}
		prev = v
	}
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, r.len)
		buf = binary.AppendUvarint(buf, uint64(r.delta<<1)^uint64(r.delta>>63))
	}
	return buf
}

// RefPosBytes returns the length of a flatten bag's v4 Pos column: its
// residuals — each position less 1, or less the position before plus 1 where
// the input id repeats — in the shorter of the Δ and the run form.
func RefPosBytes(c Columns) int {
	resid := make([]int64, len(c.Pos))
	for j, p := range c.Pos {
		implied := int64(1)
		if j > 0 && c.In[j] == c.In[j-1] {
			implied = c.Pos[j-1] + 1
		}
		resid[j] = p - implied
	}
	return min(len(refDeltas(nil, resid)), len(refRunForm(nil, resid)))
}

// ---- stream decoder ----

// refRow is one association row of any layout, as the reference decoder
// collects them: a source's ⟨id, orig_id⟩ sits in out/in, a binary row's
// id_i1/id_i2 in in/right, an aggregate's ids_i in ins.
type refRow struct {
	out, in, right, pos int64
	ins                 []int64
}

// refColumns gathers rows into the columns of the given layout.
func refColumns(kind AssocKind, rows []refRow) Columns {
	c := Columns{Kind: kind}
	if kind == AssocNone {
		return c
	}
	c.Out, c.In = make([]int64, len(rows)), make([]int64, len(rows))
	switch kind {
	case AssocBinary:
		c.Right = make([]int64, len(rows))
	case AssocFlatten:
		c.Pos = make([]int64, len(rows))
	case AssocAgg:
		c.In, c.Offs = c.In[:0], make([]int32, 1, len(rows)+1)
	}
	for j, r := range rows {
		c.Out[j] = r.out
		switch kind {
		case AssocBinary:
			c.In[j], c.Right[j] = r.in, r.right
		case AssocFlatten:
			c.In[j], c.Pos[j] = r.in, r.pos
		case AssocAgg:
			c.In = append(c.In, r.ins...)
			c.Offs = append(c.Offs, int32(len(c.In)))
		default:
			c.In[j] = r.in
		}
	}
	return c
}

// RefReadRun decodes a stream of any codec version eagerly and returns
// the run together with the number of bytes left after its last operator.
func RefReadRun(data []byte) (run *Run, rest int, err error) {
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	d := &refDecoder{r: br}
	magic := d.bytes(4)
	if d.err != nil {
		return nil, 0, d.err
	}
	if string(magic) != codecMagic {
		return nil, 0, fmt.Errorf("provenance: bad magic %q", magic)
	}
	switch v := d.u16(); {
	case d.err != nil:
		return nil, 0, d.err
	case v == codecVersionV1:
		run, err = refReadRunV1(d)
	case v >= codecVersionV2 && v <= codecVersionV4:
		run, err = refReadRunV2(br, v)
	default:
		return nil, 0, fmt.Errorf("provenance: unsupported version %d", v)
	}
	if err == nil {
		err = refCheck(run)
	}
	if err != nil {
		return nil, 0, err
	}
	return run, br.Buffered() + src.Len(), nil
}

// refCheck holds a decoded run to the load rules: per type, the inputs it
// reads and the layout it captures (Tab. 6), with a source reading its
// dataset (Pred 0), and every other input naming an operator at an earlier
// position of the run.
func refCheck(r *Run) error {
	at := make(map[int]int, len(r.order))
	for i, oid := range r.order {
		if _, dup := at[oid]; dup {
			return fmt.Errorf("reference: operator %d breaks the Pred rule: it is in the run twice", oid)
		}
		at[oid] = i
	}
	for i, oid := range r.order {
		op := r.ops[oid]
		inputs, layout := 1, AssocUnary
		switch op.typ {
		case engine.OpSource:
			layout = AssocSource
		case engine.OpJoin, engine.OpUnion:
			inputs, layout = 2, AssocBinary
		case engine.OpFlatten:
			layout = AssocFlatten
		case engine.OpAggregate:
			layout = AssocAgg
		}
		if len(op.inputs) != inputs || op.typ == engine.OpSource && op.inputs[0].Pred != 0 {
			return fmt.Errorf("reference: operator %d (%s) breaks the input count rule", oid, op.typ)
		}
		if op.kind != AssocNone && op.kind != layout {
			return fmt.Errorf("reference: operator %d (%s) breaks the layout rule", oid, op.typ)
		}
		for _, in := range op.inputs {
			if j, ok := at[in.Pred]; op.typ != engine.OpSource && (!ok || j >= i) {
				return fmt.Errorf("reference: operator %d (%s) breaks the Pred rule", oid, op.typ)
			}
		}
	}
	return nil
}

// refReadRunV1 decodes the fixed-width v1 operator stream following the
// magic/version prefix.
func refReadRunV1(d *refDecoder) (*Run, error) {
	nOps := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	run := &Run{ops: make(map[int]*Operator, refCapHint(nOps))}
	for i := 0; i < nOps; i++ {
		op := &Operator{}
		op.OID = int(d.u32())
		op.typ = engine.OpType(d.str())
		op.manipUndefined = d.bool()
		nIn := int(d.u32())
		for j := 0; j < nIn && d.err == nil; j++ {
			var in engine.InputInfo
			in.Pred = int(d.u32())
			in.SourceName = d.str()
			in.AccessUndefined = d.bool()
			nAcc := int(d.u32())
			for k := 0; k < nAcc && d.err == nil; k++ {
				p, err := path.Parse(d.str())
				if err != nil && d.err == nil {
					d.err = err
				}
				in.Accessed = append(in.Accessed, p)
			}
			nSchema := int(d.u32())
			for k := 0; k < nSchema && d.err == nil; k++ {
				in.Schema = append(in.Schema, d.str())
			}
			op.inputs = append(op.inputs, in)
		}
		nManip := int(d.u32())
		for j := 0; j < nManip && d.err == nil; j++ {
			var m engine.Mapping
			inStr := d.str()
			outStr := d.str()
			m.GroupKey = d.bool()
			if d.err == nil {
				var err error
				if inStr != "" {
					if m.In, err = path.Parse(inStr); err != nil {
						d.err = err
					}
				}
				if m.Out, err = path.Parse(outStr); err != nil && d.err == nil {
					d.err = err
				}
			}
			op.manip = append(op.manip, m)
		}
		tag := AssocKind(d.u8())
		var rows []refRow
		if tag > AssocAgg && d.err == nil {
			d.err = fmt.Errorf("provenance: unknown association tag %d", tag)
		}
		if tag != AssocNone && d.err == nil {
			n := int(d.u32())
			rows = make([]refRow, 0, refCapHint(n))
			for j := 0; j < n && d.err == nil; j++ {
				var r refRow
				switch tag {
				case AssocSource:
					r.out, r.in = d.i64(), d.i64()
				case AssocUnary:
					r.in, r.out = d.i64(), d.i64()
				case AssocBinary:
					r.in, r.right, r.out = d.i64(), d.i64(), d.i64()
				case AssocFlatten:
					r.in, r.pos, r.out = d.i64(), int64(d.u32()), d.i64()
				case AssocAgg:
					r.out = d.i64()
					nIns := int(d.u32())
					r.ins = make([]int64, 0, refCapHint(nIns))
					for k := 0; k < nIns && d.err == nil; k++ {
						r.ins = append(r.ins, d.i64())
					}
				}
				rows = append(rows, r)
			}
		}
		op.setColumns(refColumns(tag, rows))
		if d.err != nil {
			return nil, d.err
		}
		run.ops[op.OID] = op
		run.order = append(run.order, op.OID)
	}
	return run, nil
}

// refCapHint bounds the initial capacity of decoded slices so corrupt or
// malicious length prefixes cannot force huge allocations; slices still grow
// to any genuine size via append.
func refCapHint(n int) int {
	const max = 1 << 16
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}

// refDecoder reads little-endian primitives, remembering the first error.
type refDecoder struct {
	r   io.Reader
	err error
}

func (d *refDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	buf := make([]byte, n)
	_, d.err = io.ReadFull(d.r, buf)
	return buf
}

func (d *refDecoder) u8() uint8 {
	b := d.bytes(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

func (d *refDecoder) u16() uint16 {
	b := d.bytes(2)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *refDecoder) u32() uint32 {
	b := d.bytes(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *refDecoder) i64() int64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (d *refDecoder) bool() bool { return d.u8() != 0 }

func (d *refDecoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	const maxStr = 1 << 20
	if n > maxStr {
		d.err = fmt.Errorf("provenance: string length %d exceeds limit", n)
		return ""
	}
	return string(d.bytes(int(n)))
}

// refMaxCount caps any single declared element count. Real runs stay far
// below it; the cap only rejects counts that cannot be backed by a genuine
// stream before the decoder commits to materialising them.
const refMaxCount = 1 << 32

// refV2Decoder reads varint primitives from a buffered columnar stream,
// remembering the first error. Column reads grow element-by-element (every
// element consumes at least one byte), so a corrupt count prefix runs into
// io.EOF instead of forcing a giant allocation; run columns are kept as their
// runs until the bag's other columns have shown that n is backed by bytes.
type refV2Decoder struct {
	r       *bufio.Reader
	version uint16
	dict    []string
	err     error
}

func refReadRunV2(br *bufio.Reader, version uint16) (*Run, error) {
	d := &refV2Decoder{r: br, version: version}
	nDict := d.count("dictionary")
	d.dict = make([]string, 0, refCapHint(nDict))
	for i := 0; i < nDict && d.err == nil; i++ {
		d.dict = append(d.dict, d.rawString())
	}
	nOps := d.count("operator")
	if d.err != nil {
		return nil, d.err
	}
	run := &Run{ops: make(map[int]*Operator, refCapHint(nOps))}
	for i := 0; i < nOps; i++ {
		op := d.readOp()
		if d.err != nil {
			return nil, d.err
		}
		run.ops[op.OID] = op
		run.order = append(run.order, op.OID)
	}
	return run, nil
}

func (d *refV2Decoder) readOp() *Operator {
	op := &Operator{}
	op.OID = int(d.uvarint())
	op.typ = engine.OpType(d.ref("operator type"))
	op.manipUndefined = d.bool()
	nIn := d.count("input")
	for j := 0; j < nIn && d.err == nil; j++ {
		var in engine.InputInfo
		in.Pred = int(d.uvarint())
		in.SourceName = d.ref("source name")
		in.AccessUndefined = d.bool()
		nAcc := d.count("accessed path")
		for k := 0; k < nAcc && d.err == nil; k++ {
			in.Accessed = append(in.Accessed, d.path("accessed path"))
		}
		nSchema := d.count("schema string")
		for k := 0; k < nSchema && d.err == nil; k++ {
			in.Schema = append(in.Schema, d.ref("schema string"))
		}
		op.inputs = append(op.inputs, in)
	}
	nManip := d.count("mapping")
	for j := 0; j < nManip && d.err == nil; j++ {
		var m engine.Mapping
		if in := d.ref("mapping input path"); in != "" && d.err == nil {
			m.In = d.parse(in)
		}
		m.Out = d.path("mapping output path")
		m.GroupKey = d.bool()
		op.manip = append(op.manip, m)
	}
	d.readAssocs(op)
	return op
}

func (d *refV2Decoder) readAssocs(op *Operator) {
	b := d.byte()
	if d.err != nil {
		return
	}
	// v3 on: the high bits say which columns are run-coded (bit k: the k-th
	// in stream order). A layout may run-code only its identifier columns bar
	// flatten's In and the aggregate's Ins — and from v4 on flatten's
	// position residuals — and a source, unary or binary bag not all of them.
	tag, mask := AssocKind(b), uint8(0)
	if d.version >= 3 {
		tag, mask = AssocKind(b%8), b/8
	}
	if tag > AssocAgg {
		d.err = fmt.Errorf("provenance: unknown association tag %d", tag)
		return
	}
	runnable := map[AssocKind]uint8{AssocSource: 3, AssocUnary: 3, AssocBinary: 7, AssocFlatten: 4, AssocAgg: 1}[tag]
	if tag == AssocFlatten && d.version >= 4 {
		runnable = 6
	}
	if mask&^runnable != 0 || tag <= AssocBinary && tag != AssocNone && mask == runnable {
		d.err = fmt.Errorf("provenance: bad run bits %#x for association tag %d", mask, tag)
		return
	}
	if tag == AssocNone {
		return
	}
	n := d.count("association")
	// The columns of the layout in stream order; a row takes one entry of
	// each. A run-coded one is expanded only once every column has been read.
	var wire [3][]int64
	var held [3][]refRun
	var poss, lens []uint64 // v2 and v3 positions; aggregate lens
	slots := 3
	if tag == AssocSource || tag == AssocUnary {
		slots = 2
	}
	for k := 0; k < slots && d.err == nil; k++ {
		switch {
		case mask&(1<<k) != 0:
			held[k] = d.runs(n)
		case tag == AssocFlatten && k == 1 && d.version < 4:
			poss = d.uvarintColumn(n)
		case tag == AssocAgg && k == 1:
			lens = d.uvarintColumn(n)
		case tag == AssocAgg && k == 2:
			total := 0
			for _, l := range lens {
				if d.err == nil && (l > refMaxCount || total+int(l) < total) {
					d.err = fmt.Errorf("provenance: aggregate input count %d exceeds limit", l)
				}
				total += int(l)
			}
			wire[k] = d.deltaColumn(total)
		default:
			wire[k] = d.deltaColumn(n)
		}
	}
	if d.err != nil {
		return
	}
	for k, runs := range held {
		if mask&(1<<k) != 0 {
			wire[k] = make([]int64, 0, n)
			var v int64
			for _, r := range runs {
				for i := uint64(0); i < r.len; i++ {
					v += r.delta
					wire[k] = append(wire[k], v)
				}
			}
		}
	}
	var outs, ins, rights []int64
	switch tag {
	case AssocSource:
		outs, ins = wire[0], wire[1]
	case AssocUnary:
		ins, outs = wire[0], wire[1]
	case AssocBinary:
		ins, rights, outs = wire[0], wire[1], wire[2]
	case AssocFlatten:
		ins, outs = wire[0], wire[2]
		if d.version < 4 {
			wire[1] = make([]int64, n)
			for j, p := range poss {
				wire[1][j] = int64(p)
			}
		} else { // residuals against 1, or the position before plus 1 where the input repeats
			for j := range wire[1] {
				implied := int64(1)
				if j > 0 && ins[j] == ins[j-1] {
					implied = wire[1][j-1] + 1
				}
				wire[1][j] += implied
			}
		}
	case AssocAgg:
		outs, ins = wire[0], wire[2]
	}
	rows := make([]refRow, n)
	off := 0
	for j := range rows {
		r := refRow{out: outs[j]}
		switch tag {
		case AssocBinary:
			r.in, r.right = ins[j], rights[j]
		case AssocFlatten:
			r.in, r.pos = ins[j], wire[1][j]
		case AssocAgg:
			ln := int(lens[j])
			r.ins = append(make([]int64, 0, refCapHint(ln)), ins[off:off+ln]...)
			off += ln
		default:
			r.in = ins[j]
		}
		rows[j] = r
	}
	op.setColumns(refColumns(tag, rows))
}

func (d *refV2Decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
		return 0
	}
	return v
}

// count reads a uvarint element count and rejects absurd values before any
// loop commits to them.
func (d *refV2Decoder) count(what string) int {
	v := d.uvarint()
	if d.err == nil && v > refMaxCount {
		d.err = fmt.Errorf("provenance: %s count %d exceeds limit", what, v)
		return 0
	}
	return int(v)
}

func (d *refV2Decoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return 0
	}
	return b
}

func (d *refV2Decoder) bool() bool { return d.byte() != 0 }

// deltaColumn reads n zigzag-delta varints. Growth is append-driven with a
// bounded initial capacity: every element consumes at least one input byte,
// so a lying count prefix hits EOF rather than a huge allocation.
func (d *refV2Decoder) deltaColumn(n int) []int64 {
	out := make([]int64, 0, refCapHint(n))
	var prev int64
	for i := 0; i < n && d.err == nil; i++ {
		u := d.uvarint()
		prev += int64(u>>1) ^ -int64(u&1)
		out = append(out, prev)
	}
	return out
}

// refRun is one run of a run-coded column: len values, each delta past the
// one before.
type refRun struct {
	len   uint64
	delta int64
}

// runs reads a run-coded column of n values as its runs: a count of at most
// n, then runs of at least one value that together hold exactly n. Every run
// consumes at least two bytes, so what it holds is bounded by the stream.
func (d *refV2Decoder) runs(n int) []refRun {
	count := d.count("run")
	if d.err == nil && count > n {
		d.err = fmt.Errorf("provenance: %d runs declared for %d values", count, n)
	}
	out := make([]refRun, 0, refCapHint(count))
	sum := uint64(0)
	for i := 0; i < count && d.err == nil; i++ {
		l, u := d.uvarint(), d.uvarint()
		if d.err == nil && (l < 1 || l > uint64(n)-sum) {
			d.err = fmt.Errorf("provenance: run length %d with %d of %d values covered", l, sum, n)
		}
		sum += l
		out = append(out, refRun{len: l, delta: int64(u>>1) ^ -int64(u&1)})
	}
	if d.err == nil && sum != uint64(n) {
		d.err = fmt.Errorf("provenance: runs hold %d values, the bag %d", sum, n)
	}
	return out
}

func (d *refV2Decoder) uvarintColumn(n int) []uint64 {
	out := make([]uint64, 0, refCapHint(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.uvarint())
	}
	return out
}

// rawString reads a length-prefixed dictionary entry.
func (d *refV2Decoder) rawString() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	const maxStr = 1 << 20
	if n > maxStr {
		d.err = fmt.Errorf("provenance: string length %d exceeds limit", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

// ref reads a dictionary reference and resolves it, rejecting out-of-range
// indexes.
func (d *refV2Decoder) ref(what string) string {
	i := d.uvarint()
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
func (d *refV2Decoder) path(what string) path.Path {
	s := d.ref(what)
	if d.err != nil {
		return nil
	}
	return d.parse(s)
}

func (d *refV2Decoder) parse(s string) path.Path {
	p, err := path.Parse(s)
	if err != nil && d.err == nil {
		d.err = err
	}
	return p
}
