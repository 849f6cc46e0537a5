package provenance_test

import (
	"bytes"
	"testing"

	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// fuzzSeeds returns genuine streams in both codec versions.
func fuzzSeeds(f *testing.F) (v1, v2 []byte) {
	f.Helper()
	_, run, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(1),
		engine.Options{Partitions: 1})
	if err != nil {
		f.Fatal(err)
	}
	var b2 bytes.Buffer
	if _, err := run.WriteTo(&b2); err != nil {
		f.Fatal(err)
	}
	return provenance.RefEncodeV1(run), b2.Bytes()
}

// FuzzReadRun is differential: the same arbitrary bytes go to the production
// load path (ReadRunLazy, then every bag decoded) and to the stream reference
// in reference_test.go, which shares no reading code with it. Neither may
// panic or over-allocate; both must reach the same verdict — except that a
// stream the reference decodes with bytes left over must be rejected, the
// reference stops reading at the last operator — and a stream both accept
// must give the same run: equal operators, equal association bags, equal
// re-encodings. ReadRun, the eager entry point over the same path, is held
// to the same run.
func FuzzReadRun(f *testing.F) {
	v1, v2 := fuzzSeeds(f)
	f.Add(v1)
	f.Add(v2)
	f.Add(append(append([]byte(nil), v2...), 0))
	f.Add([]byte("PBLP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, rest, refErr := provenance.RefReadRun(data)
		got, err := provenance.ReadRunLazy(data)
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
		eager, err := provenance.ReadRun(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadRunLazy accepted what ReadRun rejects: %v", err)
		}
		requireSameRun(t, want, eager)
	})
}

// FuzzCodecVersions is the cross-version round-trip property: any run the
// decoder accepts (from either format) must survive re-encoding through the
// columnar v2 codec unchanged — decode(encodeV2(r)) describes the same run
// as r. Equality is checked through the reference v1 encoding, which is a
// pure function of the run's structure.
func FuzzCodecVersions(f *testing.F) {
	v1, v2 := fuzzSeeds(f)
	f.Add(v1)
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := provenance.ReadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := provenance.RefEncodeV1(r)
		var enc bytes.Buffer
		if _, err := r.WriteTo(&enc); err != nil {
			t.Fatalf("accepted run failed to encode: %v", err)
		}
		back, err := provenance.ReadRun(&enc)
		if err != nil {
			t.Fatalf("v2 re-encoding of an accepted run failed to decode: %v", err)
		}
		if got := provenance.RefEncodeV1(back); !bytes.Equal(got, want) {
			t.Fatalf("v2 round trip changed the run: v1 projections differ (%d vs %d bytes)",
				len(got), len(want))
		}
	})
}
