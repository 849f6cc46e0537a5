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
//   - RefReadRun, the eager stream decoder of both codec versions (fixed-width
//     v1 over io.Reader, columnar v2 over bufio). It shares no code with the
//     production Cursor: its own varint reads (binary.ReadUvarint), its own
//     count cap and capacity clamp. It stops at the last operator and reports
//     how many bytes follow, where the production loaders reject them.
//   - RefEncodeV1, the v1 encoder, written over the exported accessors. The
//     frozen *.golden fixtures pin its bytes; it is what lets the tests keep
//     asking "does this run still project onto the archived v1 stream".

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
		buf = str(buf, string(op.Type))
		buf = flag(buf, op.ManipUndefined)
		buf = le.AppendUint32(buf, uint32(len(op.Inputs)))
		for _, in := range op.Inputs {
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
		buf = le.AppendUint32(buf, uint32(len(op.Manipulated)))
		for _, m := range op.Manipulated {
			buf = str(buf, m.In.String())
			buf = str(buf, m.Out.String())
			buf = flag(buf, m.GroupKey)
		}
		// Association bag, tagged by layout.
		kind := op.AssocKind()
		buf = append(buf, byte(kind))
		if kind != AssocNone {
			buf = le.AppendUint32(buf, uint32(op.AssocCount()))
		}
		switch kind {
		case AssocSource:
			for _, sa := range op.SourceAssocs() {
				buf = i64(i64(buf, sa.ID), sa.OrigID)
			}
		case AssocUnary:
			for _, a := range op.UnaryAssocs() {
				buf = i64(i64(buf, a.In), a.Out)
			}
		case AssocBinary:
			for _, a := range op.BinaryAssocs() {
				buf = i64(i64(i64(buf, a.Left), a.Right), a.Out)
			}
		case AssocFlatten:
			for _, a := range op.FlattenAssocs() {
				buf = i64(le.AppendUint32(i64(buf, a.In), uint32(a.Pos)), a.Out)
			}
		case AssocAgg:
			for _, a := range op.AggAssocs() {
				buf = le.AppendUint32(i64(buf, a.Out), uint32(len(a.Ins)))
				for _, id := range a.Ins {
					buf = i64(buf, id)
				}
			}
		}
	}
	return buf
}

// ---- stream decoder ----

// RefReadRun decodes a stream of either codec version eagerly and returns
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
	case v == codecVersionV2:
		run, err = refReadRunV2(br)
	default:
		return nil, 0, fmt.Errorf("provenance: unsupported version %d", v)
	}
	if err != nil {
		return nil, 0, err
	}
	return run, br.Buffered() + src.Len(), nil
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
		op.Type = engine.OpType(d.str())
		op.ManipUndefined = d.bool()
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
			op.Inputs = append(op.Inputs, in)
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
			op.Manipulated = append(op.Manipulated, m)
		}
		switch tag := d.u8(); tag {
		case 0:
		case 1:
			n := int(d.u32())
			op.SourceIDs = make([]SourceAssoc, 0, refCapHint(n))
			for j := 0; j < n && d.err == nil; j++ {
				op.SourceIDs = append(op.SourceIDs, SourceAssoc{ID: d.i64(), OrigID: d.i64()})
			}
		case 2:
			n := int(d.u32())
			op.Unary = make([]UnaryAssoc, 0, refCapHint(n))
			for j := 0; j < n && d.err == nil; j++ {
				op.Unary = append(op.Unary, UnaryAssoc{In: d.i64(), Out: d.i64()})
			}
		case 3:
			n := int(d.u32())
			op.Binary = make([]BinaryAssoc, 0, refCapHint(n))
			for j := 0; j < n && d.err == nil; j++ {
				op.Binary = append(op.Binary, BinaryAssoc{Left: d.i64(), Right: d.i64(), Out: d.i64()})
			}
		case 4:
			n := int(d.u32())
			op.Flatten = make([]FlattenAssoc, 0, refCapHint(n))
			for j := 0; j < n && d.err == nil; j++ {
				op.Flatten = append(op.Flatten, FlattenAssoc{In: d.i64(), Pos: int(d.u32()), Out: d.i64()})
			}
		case 5:
			n := int(d.u32())
			op.Agg = make([]AggAssoc, 0, refCapHint(n))
			for j := 0; j < n && d.err == nil; j++ {
				a := AggAssoc{Out: d.i64()}
				nIns := int(d.u32())
				a.Ins = make([]int64, 0, refCapHint(nIns))
				for k := 0; k < nIns && d.err == nil; k++ {
					a.Ins = append(a.Ins, d.i64())
				}
				op.Agg = append(op.Agg, a)
			}
		default:
			if d.err == nil {
				d.err = fmt.Errorf("provenance: unknown association tag %d", tag)
			}
		}
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

// refV2Decoder reads varint primitives from a buffered stream, remembering the
// first error. Column reads grow element-by-element (every element consumes
// at least one byte), so a corrupt count prefix runs into io.EOF instead of
// forcing a giant allocation.
type refV2Decoder struct {
	r    *bufio.Reader
	dict []string
	err  error
}

func refReadRunV2(br *bufio.Reader) (*Run, error) {
	d := &refV2Decoder{r: br}
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
	op.Type = engine.OpType(d.ref("operator type"))
	op.ManipUndefined = d.bool()
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
		op.Inputs = append(op.Inputs, in)
	}
	nManip := d.count("mapping")
	for j := 0; j < nManip && d.err == nil; j++ {
		var m engine.Mapping
		if in := d.ref("mapping input path"); in != "" && d.err == nil {
			m.In = d.parse(in)
		}
		m.Out = d.path("mapping output path")
		m.GroupKey = d.bool()
		op.Manipulated = append(op.Manipulated, m)
	}
	d.readAssocs(op)
	return op
}

func (d *refV2Decoder) readAssocs(op *Operator) {
	switch tag := d.byte(); tag {
	case 0:
	case 1:
		n := d.count("source association")
		ids := d.deltaColumn(n)
		origs := d.deltaColumn(n)
		if d.err != nil {
			return
		}
		op.SourceIDs = make([]SourceAssoc, n)
		for j := range op.SourceIDs {
			op.SourceIDs[j] = SourceAssoc{ID: ids[j], OrigID: origs[j]}
		}
	case 2:
		n := d.count("unary association")
		ins := d.deltaColumn(n)
		outs := d.deltaColumn(n)
		if d.err != nil {
			return
		}
		op.Unary = make([]UnaryAssoc, n)
		for j := range op.Unary {
			op.Unary[j] = UnaryAssoc{In: ins[j], Out: outs[j]}
		}
	case 3:
		n := d.count("binary association")
		lefts := d.deltaColumn(n)
		rights := d.deltaColumn(n)
		outs := d.deltaColumn(n)
		if d.err != nil {
			return
		}
		op.Binary = make([]BinaryAssoc, n)
		for j := range op.Binary {
			op.Binary[j] = BinaryAssoc{Left: lefts[j], Right: rights[j], Out: outs[j]}
		}
	case 4:
		n := d.count("flatten association")
		ins := d.deltaColumn(n)
		poss := d.uvarintColumn(n)
		outs := d.deltaColumn(n)
		if d.err != nil {
			return
		}
		op.Flatten = make([]FlattenAssoc, n)
		for j := range op.Flatten {
			op.Flatten[j] = FlattenAssoc{In: ins[j], Pos: int(poss[j]), Out: outs[j]}
		}
	case 5:
		n := d.count("aggregate association")
		outs := d.deltaColumn(n)
		lens := d.uvarintColumn(n)
		total := 0
		for _, l := range lens {
			if d.err == nil && (l > refMaxCount || total+int(l) < total) {
				d.err = fmt.Errorf("provenance: aggregate input count %d exceeds limit", l)
			}
			total += int(l)
		}
		flat := d.deltaColumn(total)
		if d.err != nil {
			return
		}
		op.Agg = make([]AggAssoc, n)
		off := 0
		for j := range op.Agg {
			ln := int(lens[j])
			a := AggAssoc{Out: outs[j], Ins: make([]int64, 0, refCapHint(ln))}
			a.Ins = append(a.Ins, flat[off:off+ln]...)
			off += ln
			op.Agg[j] = a
		}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("provenance: unknown association tag %d", tag)
		}
	}
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
