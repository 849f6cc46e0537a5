package provenance_test

import (
	"bytes"
	"encoding/binary"
	"math"
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
		if o.OID != b.OID || o.Type() != b.Type() || o.ManipUndefined() != b.ManipUndefined() {
			t.Errorf("op %d header mismatch: %+v vs %+v", o.OID, o, b)
		}
		if len(o.Inputs()) != len(b.Inputs()) {
			t.Fatalf("op %d inputs %d vs %d", o.OID, len(o.Inputs()), len(b.Inputs()))
		}
		for j := range o.Inputs() {
			oi, bi := o.Inputs()[j], b.Inputs()[j]
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
		if len(o.Manipulated()) != len(b.Manipulated()) {
			t.Fatalf("op %d manipulated %d vs %d", o.OID, len(o.Manipulated()), len(b.Manipulated()))
		}
		for j := range o.Manipulated() {
			om, bm := o.Manipulated()[j], b.Manipulated()[j]
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
	// and must be rejected — no format has an optional trailer. The WriteTo
	// stream covers v4; the v3, v2 and v1 streams (from the test-only
	// reference encoders) keep the archived decodes honest.
	for _, stream := range [][]byte{valid, provenance.RefEncodeV3(run), provenance.RefEncodeV2(run), provenance.RefEncodeV1(run)} {
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
	if !mo.ManipUndefined() || !mo.Inputs()[0].AccessUndefined {
		t.Error("map ⊥ flags lost in round trip")
	}
	jo, _ := back.Op(p.Sink().ID())
	if len(jo.Inputs()[0].Schema) == 0 || len(jo.Inputs()[1].Schema) == 0 {
		t.Error("join schemas lost in round trip")
	}
}

// v3Bag hand-assembles a v3 stream of source 6, which captured no bag, and
// operator 7 of the type whose layout is tag (a filter for any other tag),
// reading operator 6; operator 7's association bag has the given tag, run
// bits and row count, and body writes its columns.
func v3Bag(tag, runs uint8, n uint64, body func(s *rawStream)) []byte {
	types := []string{"filter", "source", "filter", "join", "flatten", "aggregate"}
	typ := "filter"
	if int(tag) < len(types) {
		typ = types[tag]
	}
	s := new(rawStream)
	s.WriteString("PBLP")
	s.u16(3)
	s.uv(3)
	s.dstr("source")
	s.dstr("")
	s.dstr(typ)
	s.uv(2) // two operators
	input := func(pred uint64) {
		s.uv(pred)
		s.uv(1) // source name ref → ""
		s.u8(0) // AccessUndefined
		s.uv(0) // no accessed paths
		s.uv(0) // no schema
	}
	s.uv(6) // OID
	s.uv(0) // type ref → "source"
	s.u8(0) // ManipUndefined
	s.uv(1)
	input(0)
	s.uv(0) // no mappings
	s.u8(0) // no bag
	s.uv(7) // OID
	s.uv(2) // type ref → typ
	s.u8(0) // ManipUndefined
	switch typ {
	case "source":
		s.uv(1)
		input(0)
	case "join":
		s.uv(2)
		input(6)
		input(6)
	default:
		s.uv(1)
		input(6)
	}
	s.uv(0) // no mappings
	s.u8(runs<<3 | tag)
	if tag != 0 {
		s.uv(n)
	}
	body(s)
	return s.Bytes()
}

// v4Bag is v3Bag in a v4 stream.
func v4Bag(tag, runs uint8, n uint64, body func(s *rawStream)) []byte {
	data := v3Bag(tag, runs, n, body)
	data[4] = 4
	return data
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// deltas writes a Δ column.
func (s *rawStream) deltas(vals ...int64) {
	prev := int64(0)
	for _, v := range vals {
		s.uv(zigzag(v - prev))
		prev = v
	}
}

// runs writes a run column: the run count, then per run its length and delta.
func (s *rawStream) runs(runs ...[2]int64) {
	s.uv(uint64(len(runs)))
	for _, r := range runs {
		s.uv(uint64(r[0]))
		s.uv(zigzag(r[1]))
	}
}

// TestCodecRejectsHostileRuns: a run-coded column is a few bytes whatever the
// count it declares, so the v3 and v4 loaders must not let a run stand in
// for the bytes a row needs: every stream here is rejected at ReadRunLazy, by
// the stream reference as well, and without allocating beyond the stream's
// bound — above all a bag that declares 2³² − 1 rows and run-codes every
// column of n entries in a dozen bytes. The controls, well-formed bags of the
// same shapes, load. A flatten may run-code its positions from v4 on, as
// residuals against the ones its input ids imply.
func TestCodecRejectsHostileRuns(t *testing.T) {
	const huge = 1<<32 - 1
	four := func(s *rawStream) { s.deltas(10, 11, 12, 13) }
	controls := []struct {
		name string
		data []byte
		want provenance.Columns
	}{
		{"unary, In run-coded", v3Bag(2, 0b01, 4, func(s *rawStream) { s.runs([2]int64{4, 1}); four(s) }),
			provenance.Columns{Kind: provenance.AssocUnary, In: []int64{1, 2, 3, 4}, Out: []int64{10, 11, 12, 13}}},
		{"binary, In and Out run-coded", v3Bag(3, 0b101, 4, func(s *rawStream) {
			s.runs([2]int64{1, 5}, [2]int64{3, 0})
			s.deltas(-1, -1, 7, 7)
			s.runs([2]int64{1, 10}, [2]int64{3, 1})
		}), provenance.Columns{Kind: provenance.AssocBinary, In: []int64{5, 5, 5, 5}, Right: []int64{-1, -1, 7, 7}, Out: []int64{10, 11, 12, 13}}},
		{"flatten, Out run-coded", v3Bag(4, 0b100, 2, func(s *rawStream) {
			s.deltas(3, 3)
			s.uv(1)
			s.uv(2)
			s.runs([2]int64{2, -4})
		}), provenance.Columns{Kind: provenance.AssocFlatten, In: []int64{3, 3}, Pos: []int64{1, 2}, Out: []int64{-4, -8}}},
		{"v4 flatten, Pos and Out run-coded", v4Bag(4, 0b110, 3, func(s *rawStream) {
			s.deltas(3, 3, 4)
			s.runs([2]int64{1, 0}, [2]int64{2, 2}) // residuals 0, 2, 4
			s.runs([2]int64{3, 1})
		}), provenance.Columns{Kind: provenance.AssocFlatten, In: []int64{3, 3, 4}, Pos: []int64{1, 4, 5}, Out: []int64{1, 2, 3}}},
		{"aggregate, Out run-coded", v3Bag(5, 0b001, 2, func(s *rawStream) {
			s.runs([2]int64{2, 9})
			s.uv(1)
			s.uv(0)
			s.deltas(4)
		}), provenance.Columns{Kind: provenance.AssocAgg, Out: []int64{9, 18}, In: []int64{4}, Offs: []int32{0, 1, 1}}},
	}
	for _, c := range controls {
		run, err := provenance.ReadRunLazy(c.data)
		if err != nil {
			t.Fatalf("control %s rejected: %v", c.name, err)
		}
		op, _ := run.Op(7)
		if got := op.Columns(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("control %s decodes to %+v, want %+v", c.name, got, c.want)
		}
		want, rest, err := provenance.RefReadRun(c.data)
		if err != nil || rest != 0 {
			t.Fatalf("control %s: reference decode: %v (%d bytes left)", c.name, err, rest)
		}
		requireSameRun(t, want, run)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"source, every column of n = 2³²−1 run-coded", v3Bag(1, 0b11, huge, func(s *rawStream) {
			s.runs([2]int64{huge, 1})
			s.runs([2]int64{huge, 1})
		})},
		{"unary, every column of n = 2³²−1 run-coded", v3Bag(2, 0b11, huge, func(s *rawStream) {
			s.runs([2]int64{huge, 1})
			s.runs([2]int64{huge, 1})
		})},
		{"binary, every column of n = 2³²−1 run-coded", v3Bag(3, 0b111, huge, func(s *rawStream) {
			s.runs([2]int64{huge, 1})
			s.runs([2]int64{huge, -1})
			s.runs([2]int64{huge, 1})
		})},
		{"binary, n = 2³²−1 with one Δ column of four bytes", v3Bag(3, 0b011, huge, func(s *rawStream) {
			s.runs([2]int64{huge, 1})
			s.runs([2]int64{huge, -1})
			four(s)
		})},
		{"runs summing to n + 1", v3Bag(2, 0b01, 4, func(s *rawStream) { s.runs([2]int64{2, 1}, [2]int64{3, 1}); four(s) })},
		{"runs summing to n − 1", v3Bag(2, 0b01, 4, func(s *rawStream) { s.runs([2]int64{2, 1}, [2]int64{1, 1}); four(s) })},
		{"a zero-length run", v3Bag(2, 0b01, 4, func(s *rawStream) { s.runs([2]int64{0, 1}, [2]int64{4, 1}); four(s) })},
		{"more runs than n", v3Bag(2, 0b01, 4, func(s *rawStream) {
			s.uv(5)
			for i := 0; i < 5; i++ {
				s.uv(1)
				s.uv(2)
			}
			four(s)
		})},
		{"a run count of 2³²", v3Bag(2, 0b01, 4, func(s *rawStream) { s.uv(1 << 32); four(s) })},
		{"flatten In run-coded", v3Bag(4, 0b001, 2, func(s *rawStream) { s.runs([2]int64{2, 3}); s.uv(1); s.uv(2); s.deltas(5, 6) })},
		{"v3 flatten Pos run-coded", v3Bag(4, 0b010, 2, func(s *rawStream) { s.deltas(3, 3); s.runs([2]int64{2, 1}); s.deltas(5, 6) })},
		{"v4 flatten, n = 2³²−1 with Pos and Out run-coded and In of four bytes", v4Bag(4, 0b110, huge, func(s *rawStream) {
			four(s)
			s.runs([2]int64{huge, 0})
			s.runs([2]int64{huge, 1})
		})},
		{"v4 flatten, every column run-coded", v4Bag(4, 0b111, 2, func(s *rawStream) {
			s.runs([2]int64{2, 3})
			s.runs([2]int64{2, 0})
			s.runs([2]int64{2, 1})
		})},
		{"aggregate lens run-coded", v3Bag(5, 0b010, 2, func(s *rawStream) { s.deltas(5, 6); s.runs([2]int64{2, 1}); s.deltas(1, 2) })},
		{"aggregate Ins run-coded", v3Bag(5, 0b100, 2, func(s *rawStream) { s.deltas(5, 6); s.uv(1); s.uv(1); s.runs([2]int64{2, 1}) })},
		{"unknown run bit 3", v3Bag(2, 0b01001, 4, func(s *rawStream) { s.runs([2]int64{4, 1}); four(s) })},
		{"unknown run bit 4", v3Bag(2, 0b10000, 4, func(s *rawStream) { four(s); four(s) })},
		{"run bits on an operator without a bag", v3Bag(0, 0b001, 0, func(*rawStream) {})},
		{"run bits in a v2 stream", func() []byte {
			data := v3Bag(2, 0b01, 4, func(s *rawStream) { s.runs([2]int64{4, 1}); four(s) })
			data[4] = 2
			return data
		}()},
	}
	for _, c := range cases {
		if _, err := provenance.ReadRunLazy(c.data); err == nil {
			t.Errorf("%s: ReadRunLazy accepted the stream", c.name)
		}
		if _, _, err := provenance.RefReadRun(c.data); err == nil {
			t.Errorf("%s: the stream reference accepted the stream", c.name)
		}
		_, err, allocated := readRunAllocating(c.data)
		if err == nil {
			t.Errorf("%s: ReadRun accepted the stream", c.name)
		}
		requireBoundedLoad(t, c.name, c.data, allocated)
	}
}

// TestCodecKeepsPositionsNotImplied: v4 stores a flatten's positions as
// residuals against the ones their input ids imply, so positions the engine
// never writes — a 0, gaps, an input id that comes back after another, values
// whose implied successor wraps past MaxInt64 — must come back as they were:
// the captured stream loads to the hand-built columns, through ReadRunLazy,
// ReadRun and the stream reference alike, and re-encodes byte for byte.
func TestCodecKeepsPositionsNotImplied(t *testing.T) {
	const maxPos, minPos = math.MaxInt64, math.MinInt64
	for _, c := range []struct {
		name    string
		in, pos []int64
	}{
		{"Pos 0", []int64{7, 7, 8}, []int64{0, 1, 0}},
		{"gaps", []int64{7, 7, 7, 8}, []int64{1, 3, 4, 9}},
		{"an input id repeated after another", []int64{7, 8, 7, 7}, []int64{1, 1, 2, 3}},
		{"Pos near MaxInt64", []int64{7, 7, 7, 7, 8}, []int64{maxPos - 1, maxPos, minPos, maxPos, maxPos}},
	} {
		t.Run(c.name, func(t *testing.T) {
			col := provenance.NewCollector()
			col.StartOperator(provenance.ChainInfo(6, engine.OpSource), 1) // captures no bag
			col.StartOperator(provenance.ChainInfo(7, engine.OpFlatten), 1)
			col.Morsel(7, 0, 100, len(c.in), engine.Assocs{In: c.in, Pos: c.pos})
			run, err := col.Finish()
			if err != nil {
				t.Fatal(err)
			}
			stream := writeTo(t, run)
			want := provenance.Columns{Kind: provenance.AssocFlatten, In: c.in, Pos: c.pos, Out: make([]int64, len(c.in))}
			for j := range want.Out {
				want.Out[j] = 100 + int64(j)
			}
			eager, err := provenance.ReadRun(bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			ref, rest, err := provenance.RefReadRun(stream)
			if err != nil || rest != 0 {
				t.Fatalf("reference decode: %v (%d bytes left)", err, rest)
			}
			for _, got := range []*provenance.Run{run, eager, ref} {
				op, _ := got.Op(7)
				if cols := op.Columns(); !reflect.DeepEqual(cols, want) {
					t.Fatalf("decodes to %+v, want %+v", cols, want)
				}
				if re := provenance.EncodeV4(got); !bytes.Equal(re, stream) {
					t.Fatalf("re-encodes to %d bytes, not the %d captured", len(re), len(stream))
				}
			}
		})
	}
}
