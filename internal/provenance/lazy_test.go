package provenance_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/provenance"
)

// goldenStreams loads every committed golden stream (v1 to v4) keyed by
// file name.
func goldenStreams(t *testing.T) map[string][]byte {
	t.Helper()
	streams := map[string][]byte{}
	for _, name := range []string{"example", "map-join", "ordering"} {
		for _, suffix := range []string{".golden", ".v2.golden", ".v3.golden", ".v4.golden"} {
			p := filepath.Join("testdata", name+suffix)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("missing golden stream: %v", err)
			}
			streams[name+suffix] = data
		}
	}
	return streams
}

// requireSameRun fails unless got is indistinguishable from want: same
// operators with the same static parts, equal association bags (columns
// DeepEqual, nil versus empty included, and every fact answered without
// them — OutOrdered is whether Out is sorted), and identical re-encodings in
// the v4 and v1 layouts.
func requireSameRun(t *testing.T, want, got *provenance.Run) {
	t.Helper()
	wops, gops := want.Operators(), got.Operators()
	if len(wops) != len(gops) {
		t.Fatalf("operator count %d, want %d", len(gops), len(wops))
	}
	// Runs of one stream measure it alike.
	sameStream := bytes.Equal(writeTo(t, want), writeTo(t, got))
	if sameStream && want.Sizes() != got.Sizes() {
		t.Fatalf("sizes %+v, want %+v", got.Sizes(), want.Sizes())
	}
	for i, wo := range wops {
		gop := gops[i]
		if wo.OID != gop.OID || wo.Type != gop.Type || wo.AssocKind() != gop.AssocKind() ||
			wo.AssocCount() != gop.AssocCount() || wo.ManipUndefined != gop.ManipUndefined {
			t.Fatalf("operator %d differs: %v/%v/%v vs %v/%v/%v", i,
				gop.OID, gop.Type, gop.AssocKind(), wo.OID, wo.Type, wo.AssocKind())
		}
		if !reflect.DeepEqual(wo.Inputs, gop.Inputs) || !reflect.DeepEqual(wo.Manipulated, gop.Manipulated) {
			t.Fatalf("operator %d static part differs", wo.OID)
		}
		if wo.OutOrdered() != gop.OutOrdered() || sameStream && wo.EncodedBytes() != gop.EncodedBytes() {
			t.Fatalf("operator %d: ordered %v, %d bytes, want %v, %d", wo.OID,
				gop.OutOrdered(), gop.EncodedBytes(), wo.OutOrdered(), wo.EncodedBytes())
		}
		if !reflect.DeepEqual(wo.Columns(), gop.Columns()) {
			t.Fatalf("operator %d association bags differ:\n got %+v\nwant %+v", wo.OID, gop.Columns(), wo.Columns())
		}
		if sorted := slices.IsSorted(gop.Columns().Out); gop.OutOrdered() != sorted {
			t.Fatalf("operator %d: OutOrdered %v, but the Out column sorted is %v", wo.OID, gop.OutOrdered(), sorted)
		}
	}
	if fromWant, fromGot := provenance.EncodeV4(want), provenance.EncodeV4(got); !bytes.Equal(fromWant, fromGot) {
		t.Errorf("re-encodings differ: %d vs %d bytes", len(fromGot), len(fromWant))
	}
	if !bytes.Equal(provenance.RefEncodeV1(want), provenance.RefEncodeV1(got)) {
		t.Errorf("v1 projections differ")
	}
}

// TestLazyEqualsEagerOnGoldens: every committed stream, loaded lazily and
// through ReadRun, must be indistinguishable from what the stream reference
// (reference_test.go) decodes from the same bytes.
func TestLazyEqualsEagerOnGoldens(t *testing.T) {
	for name, data := range goldenStreams(t) {
		t.Run(name, func(t *testing.T) {
			want, rest, err := provenance.RefReadRun(data)
			if err != nil || rest != 0 {
				t.Fatalf("reference decode: %v (%d bytes left)", err, rest)
			}
			lazyr, err := provenance.ReadRunLazy(data)
			if err != nil {
				t.Fatalf("ReadRunLazy: %v", err)
			}
			requireSameRun(t, want, lazyr)
			eager, err := provenance.ReadRun(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadRun: %v", err)
			}
			requireSameRun(t, want, eager)
			if got := eager.AssocBytesTotal(); got != 0 {
				t.Errorf("ReadRun left %d association bytes undecoded", got)
			}
			if eh, lh := eager.ContentHash(), lazyr.ContentHash(); eh != lh || eh != provenance.HashStream(data) {
				t.Errorf("ReadRun content hash %#x, ReadRunLazy %#x, want %#x", eh, lh, provenance.HashStream(data))
			}
		})
	}
}

// TestLoadedRunWritesItsStream: a run writes the stream it was loaded from,
// whatever its version — each frozen v1, v2 and v3 golden, and the v4 one,
// loaded lazily or through ReadRun, writes its file back byte for byte.
func TestLoadedRunWritesItsStream(t *testing.T) {
	for name, data := range goldenStreams(t) {
		lazyr, err := provenance.ReadRunLazy(data)
		if err != nil {
			t.Fatalf("%s: ReadRunLazy: %v", name, err)
		}
		eager, err := provenance.ReadRun(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadRun: %v", name, err)
		}
		for _, run := range []*provenance.Run{lazyr, eager} {
			var back bytes.Buffer
			if n, err := run.WriteTo(&back); err != nil || n != int64(len(data)) || !bytes.Equal(back.Bytes(), data) {
				t.Errorf("%s: wrote %d bytes (%v), want the %d of the file", name, n, err, len(data))
			}
		}
	}
}

// TestTrailingBytesRejected: neither codec version has a trailer, so a
// committed stream followed by one to four junk bytes must not load — its
// content hash would cover bytes no decoder looked at.
func TestTrailingBytesRejected(t *testing.T) {
	for name, data := range goldenStreams(t) {
		for extra := 1; extra <= 4; extra++ {
			junk := append(append([]byte(nil), data...), bytes.Repeat([]byte{0}, extra)...)
			if _, err := provenance.ReadRunLazy(junk); err == nil {
				t.Errorf("%s + %d trailing bytes: ReadRunLazy accepted", name, extra)
			}
			if _, err := provenance.ReadRun(bytes.NewReader(junk)); err == nil {
				t.Errorf("%s + %d trailing bytes: ReadRun accepted", name, extra)
			}
			junk[len(junk)-1] = 0xFF
			if _, err := provenance.ReadRunLazy(junk); err == nil {
				t.Errorf("%s + %d trailing bytes (0xFF last): ReadRunLazy accepted", name, extra)
			}
		}
	}
}

// TestLazyRejectsStrictPrefixes: the validating skip-scan must reject every
// truncation up front — the accessors are infallible, so nothing may load
// that could fail later.
func TestLazyRejectsStrictPrefixes(t *testing.T) {
	for name, data := range goldenStreams(t) {
		t.Run(name, func(t *testing.T) {
			for n := 0; n < len(data); n++ {
				if _, err := provenance.ReadRunLazy(data[:n]); err == nil {
					t.Fatalf("prefix of %d/%d bytes accepted", n, len(data))
				}
			}
		})
	}
}

// TestLoadAllocationIsBounded: whatever a stream declares, ReadRun allocates
// within its bound (allocPerByte per byte, fuzz_test.go) — over every strict
// prefix and every single-byte flip of every golden stream. A flipped stream
// the loader accepts, the stream reference accepts too, as the same run.
func TestLoadAllocationIsBounded(t *testing.T) {
	for name, data := range goldenStreams(t) {
		for n := 0; n < len(data); n++ {
			_, _, allocated := readRunAllocating(data[:n])
			requireBoundedLoad(t, fmt.Sprintf("%s, prefix of %d bytes", name, n), data[:n], allocated)
		}
		accepted := 0
		for i := range data {
			for _, flip := range []byte{0x01, 0x40, 0x80} {
				mut := append([]byte(nil), data...)
				mut[i] ^= flip
				got, err, allocated := readRunAllocating(mut)
				what := fmt.Sprintf("%s, byte %d ^ %#x", name, i, flip)
				requireBoundedLoad(t, what, mut, allocated)
				want, rest, refErr := provenance.RefReadRun(mut)
				if (err == nil) != (refErr == nil && rest == 0) {
					t.Fatalf("%s: verdicts differ: ReadRun %v, reference %v (%d bytes left)", what, err, refErr, rest)
				}
				if err == nil {
					accepted++
					requireSameRun(t, want, got)
				}
			}
		}
		if accepted == 0 {
			t.Errorf("%s: no flipped stream loads, so the bound held on rejections only", name)
		}
	}
	// A valid stream that names one long access path from every byte: a
	// dictionary entry is parsed once, not once per reference.
	s := new(rawStream).headerV2("op", strings.Repeat("a.", 99)+"a")
	s.uv(1)                                // one operator
	s.uv(7)                                // OID
	s.uv(0)                                // type "op"
	s.u8(0)                                // ManipUndefined
	s.uv(1)                                // one input:
	s.uv(0)                                // pred
	s.uv(0)                                // source name "op"
	s.u8(0)                                // AccessUndefined
	s.uv(2000)                             // accessed paths,
	s.Write(bytes.Repeat([]byte{1}, 2000)) // each the long one
	s.uv(0)                                // no schema
	s.uv(0)                                // no mappings
	s.u8(0)                                // no bag
	_, err, allocated := readRunAllocating(s.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	requireBoundedLoad(t, "2 000 references to one path", s.Bytes(), allocated)
}

// TestLazyRejectsCorruptHeaders: wrong magic and unknown versions error.
func TestLazyRejectsCorruptHeaders(t *testing.T) {
	data := goldenStreams(t)["example.v2.golden"]
	badMagic := append([]byte(nil), data...)
	badMagic[0] ^= 0xFF
	if _, err := provenance.ReadRunLazy(badMagic); err == nil {
		t.Error("corrupt magic accepted")
	}
	badVer := append([]byte(nil), data...)
	badVer[len(badVer)-1] = 0 // harmless; version bytes follow the magic
	badVer[4], badVer[5] = 0xFF, 0xFF
	if _, err := provenance.ReadRunLazy(badVer); err == nil {
		t.Error("unknown version accepted")
	}
}

// TestLazyDecodedBytesAccounting: nothing decodes at load, and a region is
// charged once, by whichever reader touches it first — Columns, a forward
// trace, a tracer's index — so touching everything through all of them
// accounts for every region exactly.
func TestLazyDecodedBytesAccounting(t *testing.T) {
	for _, name := range []string{"example.v2.golden", "example.v3.golden", "example.v4.golden"} {
		t.Run(name, func(t *testing.T) { checkDecodedBytesAccounting(t, goldenStreams(t)[name]) })
	}
}

func checkDecodedBytesAccounting(t *testing.T, data []byte) {
	run, err := provenance.ReadRunLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	total := run.AssocBytesTotal()
	if total <= 0 {
		t.Fatalf("AssocBytesTotal = %d, want > 0", total)
	}
	if got := run.AssocBytesDecoded(); got != 0 {
		t.Fatalf("decoded %d bytes before any access, want 0", got)
	}
	ops := run.Operators()
	for _, op := range ops { // none of these reads a column
		op.AssocKind()
		op.AssocCount()
		op.OutOrdered()
		op.EncodedBytes()
	}
	run.Sizes()
	if got := run.AssocBytesDecoded(); got != 0 {
		t.Fatalf("decoded %d bytes answering kind, count, order and sizes, want 0", got)
	}
	source := ops[0]
	ids := source.Columns().Out // touch one operator
	after := run.AssocBytesDecoded()
	if after <= 0 || after >= total {
		t.Fatalf("single-operator touch decoded %d of %d bytes, want strictly between", after, total)
	}
	if again := func() int64 { source.Columns(); return run.AssocBytesDecoded() }(); again != after {
		t.Fatalf("second touch re-charged decode: %d then %d", after, again)
	}
	// A forward trace reads the bags downstream of the source; a second one,
	// and a tracer indexing the same operators afterwards, find them decoded.
	var forward int64
	for i := 0; i < 2; i++ {
		if _, err := backtrace.TraceForward(run, source.OID, ids); err != nil {
			t.Fatal(err)
		}
		if got := run.AssocBytesDecoded(); i == 0 {
			forward = got
		} else if got != forward {
			t.Fatalf("second forward trace re-charged decode: %d then %d", forward, got)
		}
	}
	if forward <= after || forward > total {
		t.Fatalf("forward trace decoded %d bytes, want more than %d and at most %d", forward, after, total)
	}
	backtrace.NewTracer(run).BuildIndexes()
	for _, op := range ops {
		op.Columns()
	}
	if got := run.AssocBytesDecoded(); got != total {
		t.Fatalf("touching every bag through every reader decoded %d bytes, want total %d", got, total)
	}
}

// TestHashStream pins the stream fingerprint to its spec: FNV-1a folded over
// the length and 8-byte little-endian words, tail bytes individually.
func TestHashStream(t *testing.T) {
	spec := func(data []byte) uint64 {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := (uint64(offset64) ^ uint64(len(data))) * prime64
		for len(data) >= 8 {
			h = (h ^ binary.LittleEndian.Uint64(data[:8])) * prime64
			data = data[8:]
		}
		for _, b := range data {
			h = (h ^ uint64(b)) * prime64
		}
		return h
	}
	cases := [][]byte{
		nil,
		{},
		[]byte("p"),
		[]byte("pebble!"),
		[]byte("pebble!!"), // exactly one word
		[]byte("pebble sidecar hash vector"),
		bytes.Repeat([]byte{0}, 31),
		bytes.Repeat([]byte{0}, 32),
	}
	for _, c := range cases {
		if got, want := provenance.HashStream(c), spec(c); got != want {
			t.Errorf("HashStream(%q) = %#x, want %#x", c, got, want)
		}
	}
	// Length is part of the fingerprint: zero-extended streams differ.
	if provenance.HashStream(cases[6]) == provenance.HashStream(cases[7]) {
		t.Error("hash ignores length: 31 and 32 zero bytes collide")
	}
	// And a golden stream hashes consistently with its lazy load.
	data := goldenStreams(t)["example.v2.golden"]
	run, err := provenance.ReadRunLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	if h := run.ContentHash(); h != provenance.HashStream(data) {
		t.Errorf("ContentHash %#x != HashStream %#x", h, provenance.HashStream(data))
	}
}
