package provenance

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"pebble/internal/obs"
)

// Codec version 2: a columnar delta+varint layout. Association bags dominate
// the stream (millions of monotonically growing int64 identifiers per
// operator), so v2 stores each association field as its own column of
// zigzag-encoded deltas — consecutive identifiers differ by small amounts,
// which varints compress to one or two bytes instead of the fixed eight of
// v1. The schema-level strings (operator types, access paths, mapping paths,
// source names) repeat heavily across operators, so the stream opens with a
// string dictionary and every string position holds a varint dictionary
// reference.
//
// Layout after the shared magic "PBLP" | u16 version=2 prefix:
//
//	dict:  uvarint #strings | per string: uvarint len | bytes
//	uvarint #ops
//	per op:
//	  uvarint oid | uvarint typeRef | u8 manipUndefined
//	  uvarint #inputs | per input:
//	    uvarint pred | uvarint sourceNameRef | u8 accessUndefined
//	    uvarint #accessed | #accessed × uvarint pathRef
//	    uvarint #schema   | #schema   × uvarint strRef
//	  uvarint #mappings | per mapping:
//	    uvarint inRef ("" encodes a nil In) | uvarint outRef | u8 groupKey
//	  u8 assocTag (0 none, 1 source, 2 unary, 3 binary, 4 flatten, 5 agg)
//	  tag 1: uvarint n | n×Δ(ID)   | n×Δ(OrigID)
//	  tag 2: uvarint n | n×Δ(In)   | n×Δ(Out)
//	  tag 3: uvarint n | n×Δ(Left) | n×Δ(Right) | n×Δ(Out)
//	  tag 4: uvarint n | n×Δ(In)   | n×uvarint Pos | n×Δ(Out)
//	  tag 5: uvarint n | n×Δ(Out)  | n×uvarint len(Ins) | ΣΔ(Ins) chain
//
// Δ columns are zigzag(v − prev) uvarints with prev starting at 0 per
// column; the agg Ins chain is one continuous delta column spanning all
// groups of the operator. Everything is a pure function of the Run — the
// dictionary is built by first-occurrence order over the deterministic
// r.order walk — so the encoded bytes are identical regardless of how many
// workers produced the capture (the oracle asserts this byte-for-byte).

// encBuf wraps the pooled encode buffer; pooling pointers keeps Put from
// allocating and lets the grown backing array survive across encodes.
type encBuf struct{ b []byte }

var encPool = sync.Pool{New: func() any { return &encBuf{b: make([]byte, 0, 4096)} }}

// WriteTo serialises the run: the whole v2 stream is assembled in a pooled
// buffer and handed to w in a single Write, so the returned count reflects
// bytes the destination genuinely accepted. A run captured under a recorder
// (Collector.Observe) reports every operator's encoded byte count into it as
// obs.BytesEncoded — the codec-level counterpart of the model-level ProvBytes
// counter — once per call. A captured run then carries the content hash of
// the stream (ContentHash), as if it had been loaded from it; a loaded run
// keeps the hash of the bytes it was loaded from.
func (r *Run) WriteTo(w io.Writer) (int64, error) {
	eb := encPool.Get().(*encBuf)
	buf := eb.b[:0]
	buf = append(buf, codecMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersionV2)

	dict, refs := r.v2Dict()
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.order)))
	for _, oid := range r.order {
		op := r.ops[oid]
		start := len(buf)
		buf = appendOpV2(buf, op, refs)
		r.rec.Add(op.OID, 0, obs.BytesEncoded, int64(len(buf)-start))
	}

	if !r.hasHash {
		r.hash, r.hasHash = HashStream(buf), true
	}
	n, err := w.Write(buf)
	eb.b = buf
	encPool.Put(eb)
	if err != nil {
		return int64(n), fmt.Errorf("provenance: writing encoded run: %w", err)
	}
	return int64(n), nil
}

// v2Dict collects every string of the run in deterministic first-occurrence
// order (the same walk the encoder performs) and returns the dictionary plus
// the string→index mapping.
func (r *Run) v2Dict() ([]string, map[string]uint64) {
	var dict []string
	refs := make(map[string]uint64)
	add := func(s string) {
		if _, ok := refs[s]; !ok {
			refs[s] = uint64(len(dict))
			dict = append(dict, s)
		}
	}
	for _, oid := range r.order {
		op := r.ops[oid]
		add(string(op.Type))
		for _, in := range op.Inputs {
			add(in.SourceName)
			for _, p := range in.Accessed {
				add(p.String())
			}
			for _, s := range in.Schema {
				add(s)
			}
		}
		for _, m := range op.Manipulated {
			add(m.In.String())
			add(m.Out.String())
		}
	}
	return dict, refs
}

func appendOpV2(buf []byte, op *Operator, refs map[string]uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(op.OID))
	buf = binary.AppendUvarint(buf, refs[string(op.Type)])
	buf = appendBool(buf, op.ManipUndefined)
	buf = binary.AppendUvarint(buf, uint64(len(op.Inputs)))
	for _, in := range op.Inputs {
		buf = binary.AppendUvarint(buf, uint64(in.Pred))
		buf = binary.AppendUvarint(buf, refs[in.SourceName])
		buf = appendBool(buf, in.AccessUndefined)
		buf = binary.AppendUvarint(buf, uint64(len(in.Accessed)))
		for _, p := range in.Accessed {
			buf = binary.AppendUvarint(buf, refs[p.String()])
		}
		buf = binary.AppendUvarint(buf, uint64(len(in.Schema)))
		for _, s := range in.Schema {
			buf = binary.AppendUvarint(buf, refs[s])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(op.Manipulated)))
	for _, m := range op.Manipulated {
		buf = binary.AppendUvarint(buf, refs[m.In.String()])
		buf = binary.AppendUvarint(buf, refs[m.Out.String()])
		buf = appendBool(buf, m.GroupKey)
	}
	c := op.Columns() // re-encoding a lazily loaded run reads every bag
	buf = append(buf, byte(c.Kind))
	if c.Kind == AssocNone {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Out)))
	switch c.Kind {
	case AssocSource:
		buf = AppendDeltaColumn(AppendDeltaColumn(buf, c.Out), c.In)
	case AssocUnary:
		buf = AppendDeltaColumn(AppendDeltaColumn(buf, c.In), c.Out)
	case AssocBinary:
		buf = AppendDeltaColumn(AppendDeltaColumn(AppendDeltaColumn(buf, c.In), c.Right), c.Out)
	case AssocFlatten:
		buf = AppendDeltaColumn(buf, c.In)
		for _, p := range c.Pos {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
		buf = AppendDeltaColumn(buf, c.Out)
	case AssocAgg:
		buf = AppendDeltaColumn(buf, c.Out)
		for j := range c.Out {
			buf = binary.AppendUvarint(buf, uint64(c.Offs[j+1]-c.Offs[j]))
		}
		buf = AppendDeltaColumn(buf, c.In)
	}
	return buf
}

// AppendDeltaColumn appends col as zigzag(v − prev) uvarints, prev starting
// at 0: the writer of what Cursor.DeltaColumn reads, for the run stream and
// the index sidecar alike.
func AppendDeltaColumn(buf []byte, col []int64) []byte {
	prev := int64(0)
	for _, v := range col {
		d := v - prev
		prev = v
		buf = binary.AppendUvarint(buf, uint64(d<<1)^uint64(d>>63))
	}
	return buf
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}
