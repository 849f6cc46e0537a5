package provenance_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// fuzzSeeds returns genuine streams of every codec version — the example
// capture as v1, v2 and v3 (the reference encoders) and as v4 (WriteTo) — the
// v3 and v4 streams of runCodedRun, whose columns are run-coded wherever the
// codec allows it, and the committed v4 goldens.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	_, run, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(1),
		engine.Options{Partitions: 1})
	if err != nil {
		f.Fatal(err)
	}
	coded := runCodedRun(f)
	seeds := [][]byte{provenance.RefEncodeV1(run), provenance.RefEncodeV2(run), provenance.RefEncodeV3(run), writeTo(f, run),
		provenance.RefEncodeV3(coded), writeTo(f, coded)}
	for _, name := range []string{"example", "map-join", "ordering"} {
		data, err := os.ReadFile(filepath.Join("testdata", name+".v4.golden"))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// runCodedRun is a run of every layout whose identifier columns are
// arithmetic, so that Finish run-codes every column it may: all but one of a
// source, unary or binary bag's, the Pos and Out columns of a flatten — its
// positions skip every other number, so all but the first differ from the
// ones their input id implies, by residuals that are arithmetic — and the Out
// column of an aggregate. Two Out columns decrease throughout, one is sorted but starts
// with a negative delta (from 0 to its first value, a run of one), and one
// operator captured no bag.
func runCodedRun(tb testing.TB) *provenance.Run {
	tb.Helper()
	const n = 40
	seq := func(from, step int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = from + int64(i)*step
		}
		return s
	}
	c := provenance.NewCollector()
	types := []engine.OpType{engine.OpSource, engine.OpMap, engine.OpJoin, engine.OpFlatten,
		engine.OpAggregate, engine.OpDistinct, engine.OpDistinct, engine.OpFilter}
	for i, typ := range types {
		oid := i + 1
		c.StartOperator(engine.OpInfo{OID: oid, Type: typ}, 1)
		base := int64(oid * 1000)
		switch oid {
		case 1:
			c.Morsel(oid, 0, base, n, engine.Assocs{In: seq(1, 1)})
		case 2:
			c.Morsel(oid, 0, base, n, engine.Assocs{In: seq(1000, 1)})
		case 3:
			c.Morsel(oid, 0, base, n, engine.Assocs{In: seq(2000, 1), Right: seq(-1, 0)})
		case 4:
			c.Morsel(oid, 0, base, n, engine.Assocs{In: seq(3000, 0), Pos: seq(1, 2)})
		case 5:
			for j, out := range seq(base+n, -1) {
				c.Morsel(oid, 0, out, 1, engine.Assocs{Lists: [][]int64{{int64(4000 + 2*j), int64(4001 + 2*j)}}})
			}
		case 6:
			for j, out := range append([]int64{-base}, seq(base, 1)[1:]...) {
				c.Morsel(oid, 0, out, 1, engine.Assocs{Lists: [][]int64{{int64(5000 + j)}}})
			}
		case 7:
			for j, out := range seq(base, -2) {
				c.Morsel(oid, 0, out, 1, engine.Assocs{Lists: [][]int64{{int64(6000 + j)}}})
			}
		}
	}
	run, err := c.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// Loads are bounded by the stream: every association row a bag declares is
// backed by at least one byte of its region, every other record by a few, and
// a dictionary entry is parsed once however often it is named, so what
// ReadRun allocates — the decoded columns, the operators, the copy of the
// stream — is at most allocPerByte per stream byte plus allocSlack for the
// fixed costs of an empty run. The costliest byte is a one-byte path
// reference: a 24-byte slice element that append growth allocates about 3.6
// times over.
const allocPerByte, allocSlack = 128, 16 << 10

// readRunAllocating is ReadRun over data and the bytes it allocated.
func readRunAllocating(data []byte) (*provenance.Run, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := provenance.ReadRun(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return run, err, after.TotalAlloc - before.TotalAlloc
}

// requireBoundedLoad fails unless loading data allocated within the bound.
func requireBoundedLoad(t testing.TB, what string, data []byte, allocated uint64) {
	t.Helper()
	if bound := uint64(allocPerByte*len(data) + allocSlack); allocated > bound {
		t.Fatalf("%s: loading %d bytes allocated %d, above the bound of %d", what, len(data), allocated, bound)
	}
}

// FuzzReadRun is differential: the same arbitrary bytes go to the production
// load path (ReadRunLazy, then every bag decoded) and to the stream reference
// in reference_test.go, which shares no reading code with it. Neither may
// panic, and ReadRun may not allocate beyond the stream's bound; both must
// reach the same verdict — except that a stream the reference decodes with
// bytes left over must be rejected, the reference stops reading at the last
// operator — and a stream both accept must give the same run: equal
// operators, equal association bags, equal re-encodings. ReadRun, the eager
// entry point over the same path, is held to the same run.
func FuzzReadRun(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(append(append([]byte(nil), seeds[3]...), 0))
	f.Add([]byte("PBLP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		eager, eagerErr, allocated := readRunAllocating(data)
		requireBoundedLoad(t, "ReadRun", data, allocated)
		want, rest, refErr := provenance.RefReadRun(data)
		got, err := provenance.ReadRunLazy(data)
		if (err == nil) != (eagerErr == nil) {
			t.Fatalf("verdicts differ: ReadRunLazy %v, ReadRun %v", err, eagerErr)
		}
		if refErr == nil && rest > 0 {
			if err == nil {
				t.Fatalf("stream with %d bytes after its last operator accepted", rest)
			}
			return
		}
		if (refErr == nil) != (err == nil) {
			t.Fatalf("verdicts differ: reference %v, ReadRunLazy %v", refErr, err)
		}
		if err != nil {
			return
		}
		requireSameRun(t, want, got)
		requireSameRun(t, want, eager)
	})
}

// FuzzCodecVersions is the cross-version round-trip property: any run the
// decoder accepts (from any format) must survive re-encoding through the v4
// encoder unchanged — decode(EncodeV4(r)) describes the same run as r — and so
// must its v2 and v3 encodings, which re-encode to the same v4 bytes.
// Equality is checked through the reference v1 encoding, which is a pure
// function of the run's structure but for positions past 2³² − 1, and
// through the v4 bytes, which hold every position.
func FuzzCodecVersions(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := provenance.ReadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := provenance.RefEncodeV1(r)
		v4 := provenance.EncodeV4(r)
		for _, stream := range [][]byte{v4, provenance.RefEncodeV2(r), provenance.RefEncodeV3(r)} {
			back, err := provenance.ReadRun(bytes.NewReader(stream))
			if err != nil {
				t.Fatalf("re-encoding of an accepted run failed to decode: %v", err)
			}
			if got := provenance.RefEncodeV1(back); !bytes.Equal(got, want) {
				t.Fatalf("round trip changed the run: v1 projections differ (%d vs %d bytes)", len(got), len(want))
			}
			if got := provenance.EncodeV4(back); !bytes.Equal(got, v4) {
				t.Fatalf("the run re-encodes to %d bytes, want the %d of its v4 stream", len(got), len(v4))
			}
		}
	})
}
