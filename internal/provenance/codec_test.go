package provenance_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

func TestCodecRoundTrip(t *testing.T) {
	_, run := captureExample(t, 3)
	var buf bytes.Buffer
	n, err := run.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := provenance.ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	origOps := run.Operators()
	backOps := back.Operators()
	if len(origOps) != len(backOps) {
		t.Fatalf("op count %d vs %d", len(origOps), len(backOps))
	}
	for i := range origOps {
		o, b := origOps[i], backOps[i]
		if o.OID != b.OID || o.Type != b.Type || o.ManipUndefined != b.ManipUndefined {
			t.Errorf("op %d header mismatch: %+v vs %+v", o.OID, o, b)
		}
		if len(o.Inputs) != len(b.Inputs) {
			t.Fatalf("op %d inputs %d vs %d", o.OID, len(o.Inputs), len(b.Inputs))
		}
		for j := range o.Inputs {
			oi, bi := o.Inputs[j], b.Inputs[j]
			if oi.Pred != bi.Pred || oi.SourceName != bi.SourceName || oi.AccessUndefined != bi.AccessUndefined {
				t.Errorf("op %d input %d mismatch", o.OID, j)
			}
			if len(oi.Accessed) != len(bi.Accessed) {
				t.Fatalf("op %d accessed %d vs %d", o.OID, len(oi.Accessed), len(bi.Accessed))
			}
			for k := range oi.Accessed {
				if oi.Accessed[k].String() != bi.Accessed[k].String() {
					t.Errorf("op %d accessed[%d] %s vs %s", o.OID, k, oi.Accessed[k], bi.Accessed[k])
				}
			}
			if !reflect.DeepEqual(oi.Schema, bi.Schema) {
				t.Errorf("op %d schema %v vs %v", o.OID, oi.Schema, bi.Schema)
			}
		}
		if len(o.Manipulated) != len(b.Manipulated) {
			t.Fatalf("op %d manipulated %d vs %d", o.OID, len(o.Manipulated), len(b.Manipulated))
		}
		for j := range o.Manipulated {
			om, bm := o.Manipulated[j], b.Manipulated[j]
			if om.In.String() != bm.In.String() || om.Out.String() != bm.Out.String() || om.GroupKey != bm.GroupKey {
				t.Errorf("op %d mapping %d mismatch: %v vs %v", o.OID, j, om, bm)
			}
		}
		if !reflect.DeepEqual(o.Columns(), b.Columns()) {
			t.Errorf("op %d associations mismatch", o.OID)
		}
	}
}

// TestQueryAfterReload: a query over a deserialised run gives the same
// answer as over the in-memory run — capture now, audit much later.
func TestQueryAfterReload(t *testing.T) {
	res, run := captureExample(t, 2)
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := provenance.ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := backtrace.NewStructure()
	for _, row := range res.Output.Rows() {
		b.Add(row.ID, core.TreeFromValue(row.Value))
	}
	t1, err := backtrace.Trace(run, 9, b.Clone())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := backtrace.Trace(reloaded, 9, b.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for oid := range t1.BySource {
		a, bIDs := t1.Structure(oid).IDs(), t2.Structure(oid).IDs()
		if !reflect.DeepEqual(a, bIDs) {
			t.Errorf("source %d ids differ after reload: %v vs %v", oid, a, bIDs)
		}
	}
}

// rawStream hand-assembles a codec stream from primitives so
// malformed-input cases can corrupt precisely one field.
type rawStream struct{ bytes.Buffer }

func (s *rawStream) u8(v uint8)    { s.WriteByte(v) }
func (s *rawStream) u16(v uint16)  { s.Write(binary.LittleEndian.AppendUint16(nil, v)) }
func (s *rawStream) u32(v uint32)  { s.Write(binary.LittleEndian.AppendUint32(nil, v)) }
func (s *rawStream) str(v string)  { s.u32(uint32(len(v))); s.WriteString(v) }
func (s *rawStream) uv(v uint64)   { s.Write(binary.AppendUvarint(nil, v)) }
func (s *rawStream) dstr(v string) { s.uv(uint64(len(v))); s.WriteString(v) }

// header writes a valid magic + version + op count prefix.
func (s *rawStream) header(nOps uint32) *rawStream {
	s.WriteString("PBLP")
	s.u16(1)
	s.u32(nOps)
	return s
}

// headerV2 writes a valid v2 magic + version + dictionary prefix.
func (s *rawStream) headerV2(dict ...string) *rawStream {
	s.WriteString("PBLP")
	s.u16(2)
	s.uv(uint64(len(dict)))
	for _, e := range dict {
		s.dstr(e)
	}
	return s
}

// TestCodecRejectsGarbage feeds the decoder a table of corrupted streams —
// damaged headers plus field-precise corruptions of an otherwise valid
// operator record — and then every strict prefix of a real captured stream.
// All must return an error rather than a silently wrong Run.
func TestCodecRejectsGarbage(t *testing.T) {
	_, run := captureExample(t, 1)
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// corrupt returns a copy of the valid stream with one byte overwritten.
	corrupt := func(off int, b byte) []byte {
		cp := append([]byte(nil), valid...)
		cp[off] = b
		return cp
	}
	unknownTag := new(rawStream).header(1)
	unknownTag.u32(7)        // OID
	unknownTag.str("filter") // type
	unknownTag.u8(0)         // ManipUndefined
	unknownTag.u32(0)        // no inputs
	unknownTag.u32(0)        // no mappings
	unknownTag.u8(9)         // association tag 9 does not exist
	hugeString := new(rawStream).header(1)
	hugeString.u32(7)
	hugeString.u32(1 << 21) // type-string length above the decoder's limit

	// v2-specific corruptions: the columnar path has its own failure modes —
	// dictionary references, declared counts, and its own tag byte.
	v2op := func(body func(s *rawStream)) []byte {
		s := new(rawStream).headerV2("filter")
		s.uv(1) // one operator
		body(s)
		return s.Bytes()
	}
	v2UnknownTag := v2op(func(s *rawStream) {
		s.uv(7) // OID
		s.uv(0) // type ref → "filter"
		s.u8(0) // ManipUndefined
		s.uv(0) // no inputs
		s.uv(0) // no mappings
		s.u8(9) // association tag 9 does not exist
	})
	v2DictRefOutOfRange := v2op(func(s *rawStream) {
		s.uv(7)
		s.uv(5) // type ref 5, but the dictionary has one entry
	})
	v2HugeDict := new(rawStream)
	v2HugeDict.WriteString("PBLP")
	v2HugeDict.u16(2)
	v2HugeDict.uv(1)
	v2HugeDict.uv(1 << 21) // dictionary string above the decoder's limit
	v2HugeCount := new(rawStream)
	v2HugeCount.WriteString("PBLP")
	v2HugeCount.u16(2)
	v2HugeCount.uv(1 << 33) // dictionary count above the sanity cap
	v2EmptyOutPath := new(rawStream).headerV2("")
	v2EmptyOutPath.uv(1) // one operator
	v2EmptyOutPath.uv(7)
	v2EmptyOutPath.uv(0) // type "" (allowed — opaque string)
	v2EmptyOutPath.u8(0)
	v2EmptyOutPath.uv(0) // no inputs
	v2EmptyOutPath.uv(1) // one mapping
	v2EmptyOutPath.uv(0) // In "" → nil, fine
	v2EmptyOutPath.uv(0) // Out "" → path.Parse rejects the empty path

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", []byte("PB")},
		{"wrong magic", corrupt(0, 'X')},
		{"wrong magic last byte", corrupt(3, 'X')},
		{"future version", corrupt(4, 0x63)},
		{"header only", new(rawStream).header(3).Bytes()},
		{"unknown association tag", unknownTag.Bytes()},
		{"oversized string length", hugeString.Bytes()},
		{"v2 header only", new(rawStream).headerV2("filter").Bytes()},
		{"v2 unknown association tag", v2UnknownTag},
		{"v2 dictionary ref out of range", v2DictRefOutOfRange},
		{"v2 oversized dictionary string", v2HugeDict.Bytes()},
		{"v2 oversized count", v2HugeCount.Bytes()},
		{"v2 empty mapping output path", v2EmptyOutPath.Bytes()},
	}
	for _, c := range cases {
		if _, err := provenance.ReadRun(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: corrupted stream accepted", c.name)
		}
	}

	// Every strict prefix of a valid stream truncates some field or record
	// and must be rejected — neither format has an optional trailer. The
	// WriteTo stream covers v2; the v1 stream (from the test-only reference
	// encoder) keeps the frozen fixed-width decode honest.
	for _, stream := range [][]byte{valid, provenance.RefEncodeV1(run)} {
		for n := 0; n < len(stream); n++ {
			if _, err := provenance.ReadRun(bytes.NewReader(stream[:n])); err == nil {
				t.Fatalf("truncated stream of %d/%d bytes accepted", n, len(stream))
			}
		}
	}
}

func TestCodecHandlesMapAndJoin(t *testing.T) {
	// A pipeline covering map (A=M=⊥) and join (schemas) round-trips too.
	p := engine.NewPipeline()
	l := p.Source("in")
	m := p.Map(l, engine.MapFunc{Name: "wrap", Fn: func(v nested.Value) (nested.Value, error) {
		return v, nil
	}})
	sel := p.Select(m, engine.Column("a1", "text"))
	r := p.Source("in")
	sel2 := p.Select(r, engine.Column("a2", "text"))
	p.Join(sel, sel2, engine.Col("a1"), engine.Col("a2"))
	inputs := workload.ExampleInput(2)
	inputs["in"] = inputs["tweets.json"]
	_, run, err := provenance.Capture(p, inputs, engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := provenance.ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mo, _ := back.Op(m.ID())
	if !mo.ManipUndefined || !mo.Inputs[0].AccessUndefined {
		t.Error("map ⊥ flags lost in round trip")
	}
	jo, _ := back.Op(p.Sink().ID())
	if len(jo.Inputs[0].Schema) == 0 || len(jo.Inputs[1].Schema) == 0 {
		t.Error("join schemas lost in round trip")
	}
}
