package provenance

import (
	"bytes"
	"fmt"
	"io"

	"pebble/internal/engine"
	"pebble/internal/path"
)

// The on-disk format of a captured run: a small versioned binary layout so
// provenance captured during pipeline execution can be stored next to the
// result data and queried much later (the capture and query phases of the
// paper are days apart in practice — auditing queries run when a breach is
// investigated).
//
// Version 1 (decoded forever, never written — its encoder lives on only as
// the test reference that produced the frozen goldens under testdata/):
//
//	magic "PBLP" | u16 version=1 | u32 #ops | ops...
//
// with fixed-width little-endian fields; strings and slices are
// length-prefixed and association rows are stored row-major with u32/i64
// fields. Versions 2 to 4 (v4 is what a capture encodes, see codec_v3.go and
// DESIGN.md §8) share the magic/version prefix and store a string
// dictionary followed by per-operator association columns; v3 marks in a
// bag's tag byte the columns it stores as runs of equal deltas, and v4 stores
// a flatten's positions as what they differ from the ones their input ids
// imply. No version has a trailer: a stream ends with its last operator, and
// the loader rejects anything after it.
const (
	codecMagic     = "PBLP"
	codecVersionV1 = 1
	codecVersionV2 = 2
	codecVersionV3 = 3
	codecVersionV4 = 4
)

// ReadRun deserialises a run written by any codec version, consuming r to
// EOF: it is ReadRunLazy over everything r holds followed by the decode of
// every association bag, so it validates exactly what the lazy load
// validates and carries the same content hash. The returned run holds decoded
// bags and retains the stream: its WriteTo writes the bytes read, so a v1,
// v2 or v3 archive is written back as it is, not re-encoded as v4.
func ReadRun(r io.Reader) (*Run, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		// An in-memory reader says how much it holds: one allocation, no
		// regrowth copies.
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("provenance: reading encoded run: %w", err)
	}
	run, err := ReadRunLazy(buf.Bytes())
	if err != nil {
		return nil, err
	}
	for _, op := range run.ops {
		op.Columns()
		op.lazy = nil
	}
	run.lazy = nil
	return run, nil
}

// readRunV1 decodes the fixed-width v1 operator stream following the
// magic/version prefix.
func readRunV1(d *cursor) (*Run, error) {
	nOps := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	run := &Run{ops: make(map[int]*Operator)}
	for i := 0; i < nOps; i++ {
		op := &Operator{}
		op.OID = int(d.u32())
		op.typ = engine.OpType(d.str32())
		op.manipUndefined = d.bool()
		nIn := int(d.u32())
		for j := 0; j < nIn && d.err == nil; j++ {
			var in engine.InputInfo
			in.Pred = int(d.u32())
			in.SourceName = d.str32()
			in.AccessUndefined = d.bool()
			nAcc := int(d.u32())
			for k := 0; k < nAcc && d.err == nil; k++ {
				p, err := path.Parse(d.str32())
				if err != nil {
					d.Fail(err)
				}
				in.Accessed = append(in.Accessed, p)
			}
			nSchema := int(d.u32())
			for k := 0; k < nSchema && d.err == nil; k++ {
				in.Schema = append(in.Schema, d.str32())
			}
			op.inputs = append(op.inputs, in)
		}
		nManip := int(d.u32())
		for j := 0; j < nManip && d.err == nil; j++ {
			var m engine.Mapping
			inStr := d.str32()
			outStr := d.str32()
			m.GroupKey = d.bool()
			if d.err == nil {
				var err error
				if inStr != "" {
					if m.In, err = path.Parse(inStr); err != nil {
						d.Fail(err)
					}
				}
				if m.Out, err = path.Parse(outStr); err != nil {
					d.Fail(err)
				}
			}
			op.manip = append(op.manip, m)
		}
		op.setColumns(readAssocsV1(d))
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

// readAssocsV1 reads one row-major v1 association block into columns.
func readAssocsV1(d *cursor) Columns {
	c := Columns{Kind: AssocKind(d.Byte())}
	if c.Kind == AssocNone {
		return c
	}
	if c.Kind > AssocAgg {
		d.Fail(fmt.Errorf("provenance: unknown association tag %d", c.Kind))
		return Columns{}
	}
	n := int(d.u32())
	col := func() []int64 { return make([]int64, 0, d.Clamp(n)) }
	c.Out, c.In = col(), col()
	switch c.Kind {
	case AssocBinary:
		c.Right = col()
	case AssocFlatten:
		c.Pos = col()
	case AssocAgg:
		c.Offs = append(make([]int32, 0, d.Clamp(n)+1), 0)
	}
	for j := 0; j < n && d.err == nil; j++ {
		switch c.Kind {
		case AssocSource:
			c.Out, c.In = append(c.Out, d.i64()), append(c.In, d.i64())
		case AssocUnary:
			c.In, c.Out = append(c.In, d.i64()), append(c.Out, d.i64())
		case AssocBinary:
			c.In, c.Right, c.Out = append(c.In, d.i64()), append(c.Right, d.i64()), append(c.Out, d.i64())
		case AssocFlatten:
			c.In, c.Pos, c.Out = append(c.In, d.i64()), append(c.Pos, int64(d.u32())), append(c.Out, d.i64())
		case AssocAgg:
			c.Out = append(c.Out, d.i64())
			nIns := int(d.u32())
			for k := 0; k < nIns && d.err == nil; k++ {
				c.In = append(c.In, d.i64())
			}
			c.Offs = append(c.Offs, int32(len(c.In)))
		}
	}
	return c
}
