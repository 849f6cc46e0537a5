package backtrace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// joinPipeline exercises binary associations (the one kind ExamplePipeline
// lacks): two selects joined on a shared key.
func joinPipeline() (*engine.Pipeline, map[string]*engine.Dataset) {
	p := engine.NewPipeline()
	l := p.Source("l")
	sl := p.Select(l, engine.Column("k", "k"), engine.Column("a", "a"))
	r := p.Source("r")
	sr := p.Select(r, engine.Column("k2", "k"), engine.Column("b", "b"))
	p.Join(sl, sr, engine.Col("k"), engine.Col("k2"))
	gen := engine.NewIDGen(1)
	mk := func(name string, field string, n int) *engine.Dataset {
		var vals []nested.Value
		for i := 0; i < n; i++ {
			vals = append(vals, nested.Item(
				nested.F("k", nested.Int(int64(i%4))),
				nested.F(field, nested.Int(int64(i))),
			))
		}
		return engine.NewDataset(name, vals, 2, gen)
	}
	return p, map[string]*engine.Dataset{"l": mk("l", "a", 10), "r": mk("r", "b", 8)}
}

// sidecarFixture captures a pipeline, serializes it, reloads it lazily, and
// writes its index sidecar.
type sidecarFixture struct {
	stream  []byte
	sidecar []byte
	sink    int
	// question addresses every result row in full.
	question *backtrace.Structure
}

func makeFixture(t testing.TB, pipe *engine.Pipeline, inputs map[string]*engine.Dataset) *sidecarFixture {
	t.Helper()
	res, run, err := provenance.Capture(pipe, inputs, engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := run.WriteTo(&stream); err != nil {
		t.Fatal(err)
	}
	lazyRun, err := provenance.ReadRunLazy(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sidecar bytes.Buffer
	if _, err := backtrace.NewTracer(lazyRun).WriteIndexes(&sidecar); err != nil {
		t.Fatal(err)
	}
	q := backtrace.NewStructure()
	for _, row := range res.Output.Rows() {
		q.Add(row.ID, core.TreeFromValue(row.Value))
	}
	return &sidecarFixture{
		stream:   stream.Bytes(),
		sidecar:  sidecar.Bytes(),
		sink:     pipe.Sink().ID(),
		question: q,
	}
}

func (f *sidecarFixture) lazyTracer(t testing.TB) *backtrace.Tracer {
	t.Helper()
	run, err := provenance.ReadRunLazy(f.stream)
	if err != nil {
		t.Fatal(err)
	}
	return backtrace.NewTracer(run)
}

// render stringifies a trace result deterministically.
func render(r *backtrace.Result) string {
	var oids []int
	for oid := range r.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	var sb strings.Builder
	for _, oid := range oids {
		fmt.Fprintf(&sb, "source %d\n%s", oid, r.BySource[oid].String())
	}
	return sb.String()
}

func (f *sidecarFixture) traceVia(t testing.TB, tr *backtrace.Tracer) string {
	t.Helper()
	traced, err := tr.Trace(f.sink, f.question.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return render(traced)
}

func fixtures(t testing.TB) map[string]*sidecarFixture {
	jp, ji := joinPipeline()
	return map[string]*sidecarFixture{
		"example": makeFixture(t, workload.ExamplePipeline(), workload.ExampleInput(2)),
		"join":    makeFixture(t, jp, ji),
	}
}

// TestSidecarRoundTrip: loading a persisted sidecar must answer every trace
// exactly like a rebuilt tracer, and re-serializing the loaded indexes must
// reproduce the sidecar byte for byte (the regions decode lazily, so this
// also proves decode∘encode is the identity).
func TestSidecarRoundTrip(t *testing.T) {
	for name, f := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			rebuilt := f.traceVia(t, f.lazyTracer(t))

			tr := f.lazyTracer(t)
			if err := tr.LoadIndexes(f.sidecar); err != nil {
				t.Fatalf("LoadIndexes: %v", err)
			}
			if got := f.traceVia(t, tr); got != rebuilt {
				t.Errorf("sidecar trace differs from rebuild:\n%s\nwant\n%s", got, rebuilt)
			}

			var again bytes.Buffer
			if _, err := tr.WriteIndexes(&again); err != nil {
				t.Fatalf("re-write: %v", err)
			}
			if !bytes.Equal(again.Bytes(), f.sidecar) {
				t.Errorf("re-serialized sidecar differs: %d vs %d bytes", again.Len(), len(f.sidecar))
			}
		})
	}
}

// TestSidecarEveryByteFlipRejected: the header pins magic, version, and run
// hash; the checksum covers every payload byte. So any single-byte
// corruption must be rejected — and the tracer must still answer correctly
// by rebuilding.
func TestSidecarEveryByteFlipRejected(t *testing.T) {
	f := fixtures(t)["example"]
	rebuilt := f.traceVia(t, f.lazyTracer(t))
	for i := range f.sidecar {
		mut := append([]byte(nil), f.sidecar...)
		mut[i] ^= 0x40
		tr := f.lazyTracer(t)
		err := tr.LoadIndexes(mut)
		if err == nil {
			t.Fatalf("byte %d flipped: LoadIndexes accepted a corrupt sidecar", i)
		}
		if !errors.Is(err, backtrace.ErrSidecarCorrupt) && !errors.Is(err, backtrace.ErrSidecarStale) {
			t.Fatalf("byte %d flipped: error %v is neither corrupt nor stale", i, err)
		}
		if i < 64 { // spot-check the fallback on a sample, full traces are not free
			if got := f.traceVia(t, tr); got != rebuilt {
				t.Fatalf("byte %d flipped: rejected sidecar left tracer wrong", i)
			}
		}
	}
}

// TestSidecarTruncations: every strict prefix must be rejected.
func TestSidecarTruncations(t *testing.T) {
	f := fixtures(t)["join"]
	for n := 0; n < len(f.sidecar); n++ {
		err := f.lazyTracer(t).LoadIndexes(f.sidecar[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(f.sidecar))
		}
		if !errors.Is(err, backtrace.ErrSidecarCorrupt) && !errors.Is(err, backtrace.ErrSidecarStale) {
			t.Fatalf("prefix of %d bytes: error %v is neither corrupt nor stale", n, err)
		}
	}
}

// TestSidecarOverlongVarintRejected: the load-time scan and the column decode
// read through one cursor, so what the decode would refuse the scan refuses.
// A genuine sidecar whose last value is re-encoded as a 12-byte varint, with
// the payload checksum recomputed, used to pass LoadIndexes and fail only in
// the operator's decode, which silently rebuilt: right answer, but nobody was
// told the sidecar was bad and the index build was paid unseen.
func TestSidecarOverlongVarintRejected(t *testing.T) {
	const headerLen = 4 + 2 + 8 + 8
	for name, f := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			payload := f.sidecar[headerLen:]
			last := len(payload) - 1
			if payload[last] >= 0x80 || payload[last-1] >= 0x80 {
				t.Fatalf("fixture's last varint is not a single byte: % x", payload[last-1:])
			}
			mut := append([]byte(nil), f.sidecar[:headerLen+last]...)
			mut = append(mut, payload[last]|0x80)
			mut = append(mut, bytes.Repeat([]byte{0x80}, 10)...)
			mut = append(mut, 0x00)
			binary.LittleEndian.PutUint64(mut[14:22], provenance.HashStream(mut[headerLen:]))

			tr := f.lazyTracer(t)
			if err := tr.LoadIndexes(mut); !errors.Is(err, backtrace.ErrSidecarCorrupt) {
				t.Fatalf("LoadIndexes on an overlong last varint: got %v, want ErrSidecarCorrupt", err)
			}
			if got, want := f.traceVia(t, tr), f.traceVia(t, f.lazyTracer(t)); got != want {
				t.Errorf("rejected sidecar left the tracer wrong:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestSidecarWrongRun: a valid sidecar of a different run must be detected
// as stale via the run content hash.
func TestSidecarWrongRun(t *testing.T) {
	fs := fixtures(t)
	err := fs["example"].lazyTracer(t).LoadIndexes(fs["join"].sidecar)
	if !errors.Is(err, backtrace.ErrSidecarStale) {
		t.Fatalf("foreign sidecar: got %v, want ErrSidecarStale", err)
	}
}

// TestSidecarNeedsContentHash: in-memory captures have no content hash, so
// they can neither write nor validate sidecars.
func TestSidecarNeedsContentHash(t *testing.T) {
	_, run, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(2),
		engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backtrace.NewTracer(run).WriteIndexes(&bytes.Buffer{}); err == nil {
		t.Error("WriteIndexes on an in-memory run must fail")
	}
	f := fixtures(t)["example"]
	if err := backtrace.NewTracer(run).LoadIndexes(f.sidecar); !errors.Is(err, backtrace.ErrSidecarStale) {
		t.Errorf("LoadIndexes on an in-memory run: got %v, want ErrSidecarStale", err)
	}
}

// TestSidecarPrebuiltIndexWins: operators whose index was already built keep
// it — LoadIndexes only fills the gaps.
func TestSidecarPrebuiltIndexWins(t *testing.T) {
	f := fixtures(t)["example"]
	rebuilt := f.traceVia(t, f.lazyTracer(t))
	tr := f.lazyTracer(t)
	tr.BuildIndexes() // everything pre-built
	if err := tr.LoadIndexes(f.sidecar); err != nil {
		t.Fatalf("LoadIndexes after BuildIndexes: %v", err)
	}
	if got := f.traceVia(t, tr); got != rebuilt {
		t.Errorf("sidecar over pre-built indexes changed answers:\n%s\nwant\n%s", got, rebuilt)
	}
}

// FuzzSidecar: arbitrary bytes must never panic the loader, and whenever a
// load is accepted the tracer must answer exactly like a rebuild — the
// fallback contract (a sidecar can accelerate answers, never change them).
func FuzzSidecar(f *testing.F) {
	fx := fixtures(f)["join"]
	rebuilt := fx.traceVia(f, fx.lazyTracer(f))
	f.Add(fx.sidecar)
	f.Add(fx.sidecar[:len(fx.sidecar)/2])
	f.Add([]byte("PBLI"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fx.lazyTracer(t)
		if err := tr.LoadIndexes(data); err != nil {
			return
		}
		traced, err := tr.Trace(fx.sink, fx.question.Clone())
		if err != nil {
			t.Fatalf("accepted sidecar, then trace failed: %v", err)
		}
		if got := render(traced); got != rebuilt {
			t.Fatalf("accepted sidecar changed answers:\n%s\nwant\n%s", got, rebuilt)
		}
	})
}
