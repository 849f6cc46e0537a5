package backtrace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
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

// sidecarHeaderLen is magic + version + runHash + payloadHash.
const sidecarHeaderLen = 4 + 2 + 8 + 8

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

// shuffledRun returns a copy of run with the association rows of every
// operator but the sources in a seeded random order: the run no engine
// writes, whose Out columns are out of order. A run's columns are shared and
// read-only, so the copy is made the way any run is — its rows replayed, one
// at a time in the permuted order, through a provenance.Collector.
func shuffledRun(t testing.TB, run *provenance.Run, seed int64) *provenance.Run {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col := provenance.NewCollector()
	for _, op := range run.Operators() {
		col.StartOperator(engine.OpInfo{OID: op.OID, Type: op.Type, Inputs: op.Inputs,
			Manipulated: op.Manipulated, ManipUndefined: op.ManipUndefined}, 1)
		sink := col.Partition(op.OID, 0)
		c := op.Columns()
		rows := make([]int, len(c.Out))
		for i := range rows {
			rows[i] = i
		}
		if c.Kind != provenance.AssocSource {
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		for _, r := range rows {
			switch c.Kind {
			case provenance.AssocSource:
				sink.SourceRows(c.Out[r], c.In[r:r+1])
			case provenance.AssocUnary:
				sink.Unary(c.In[r], c.Out[r])
			case provenance.AssocBinary:
				sink.BinaryRange(c.In[r:r+1], c.Right[r:r+1], c.Out[r])
			case provenance.AssocFlatten:
				sink.FlattenRange(c.In[r:r+1], []int{int(c.Pos[r])}, c.Out[r])
			case provenance.AssocAgg:
				sink.Agg(slices.Clone(c.In[c.Offs[r]:c.Offs[r+1]]), c.Out[r])
			}
		}
	}
	shuffled, err := col.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return shuffled
}

// makeFixture captures the pipeline; shuffled, the association rows are put
// out of order before the run is encoded, so its sidecar keeps regions.
func makeFixture(t testing.TB, pipe *engine.Pipeline, inputs map[string]*engine.Dataset, shuffled bool) *sidecarFixture {
	t.Helper()
	res, run, err := provenance.Capture(pipe, inputs, engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if shuffled {
		run = shuffledRun(t, run, 7)
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

// flagsOnlyLen is the size of a sidecar that keeps no region: header,
// operator count, and per operator its id, kind and in-run flag.
func flagsOnlyLen(t testing.TB, stream []byte) int {
	t.Helper()
	run, err := provenance.ReadRunLazy(stream)
	if err != nil {
		t.Fatal(err)
	}
	ops := run.Operators()
	n := sidecarHeaderLen + len(binary.AppendUvarint(nil, uint64(len(ops))))
	for _, op := range ops {
		n += len(binary.AppendUvarint(nil, uint64(op.OID))) + 2
	}
	return n
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

// fixtures are two engine runs, whose sidecars are flags only, and the same
// two with their association rows shuffled, whose sidecars keep a region for
// every operator kind: unary, flatten and aggregate (example), binary (join).
func fixtures(t testing.TB) map[string]*sidecarFixture {
	out := map[string]*sidecarFixture{}
	for name, shuffled := range map[string]bool{"": false, " shuffled": true} {
		jp, ji := joinPipeline()
		out["example"+name] = makeFixture(t, workload.ExamplePipeline(), workload.ExampleInput(2), shuffled)
		out["join"+name] = makeFixture(t, jp, ji, shuffled)
	}
	return out
}

// TestSidecarRegionsOnlyOutOfOrder: the sidecar of an engine run is its
// header and three bytes per operator; that of a shuffled run is larger.
func TestSidecarRegionsOnlyOutOfOrder(t *testing.T) {
	for name, f := range fixtures(t) {
		flags := flagsOnlyLen(t, f.stream)
		if shuffled := strings.HasSuffix(name, " shuffled"); !shuffled && len(f.sidecar) != flags {
			t.Errorf("%s: sidecar of an engine run is %d bytes, want the %d of flags alone", name, len(f.sidecar), flags)
		} else if shuffled && len(f.sidecar) <= flags {
			t.Errorf("%s: sidecar of a shuffled run is %d bytes: no region kept", name, len(f.sidecar))
		}
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
	fxs := fixtures(t)
	for _, name := range []string{"example", "example shuffled", "join shuffled"} {
		f := fxs[name]
		rebuilt := f.traceVia(t, f.lazyTracer(t))
		for i := range f.sidecar {
			mut := append([]byte(nil), f.sidecar...)
			mut[i] ^= 0x40
			tr := f.lazyTracer(t)
			err := tr.LoadIndexes(mut)
			if err == nil {
				t.Fatalf("%s: byte %d flipped: LoadIndexes accepted a corrupt sidecar", name, i)
			}
			if !errors.Is(err, backtrace.ErrSidecarCorrupt) && !errors.Is(err, backtrace.ErrSidecarStale) {
				t.Fatalf("%s: byte %d flipped: error %v is neither corrupt nor stale", name, i, err)
			}
			if i < 64 { // spot-check the fallback on a sample, full traces are not free
				if got := f.traceVia(t, tr); got != rebuilt {
					t.Fatalf("%s: byte %d flipped: rejected sidecar left tracer wrong", name, i)
				}
			}
		}
	}
}

// TestSidecarTruncations: every strict prefix must be rejected.
func TestSidecarTruncations(t *testing.T) {
	fxs := fixtures(t)
	for _, name := range []string{"join", "join shuffled", "example shuffled"} {
		f := fxs[name]
		for n := 0; n < len(f.sidecar); n++ {
			err := f.lazyTracer(t).LoadIndexes(f.sidecar[:n])
			if err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes accepted", name, n, len(f.sidecar))
			}
			if !errors.Is(err, backtrace.ErrSidecarCorrupt) && !errors.Is(err, backtrace.ErrSidecarStale) {
				t.Fatalf("%s: prefix of %d bytes: error %v is neither corrupt nor stale", name, n, err)
			}
		}
	}
}

// rechecksummed returns header + payload with the payload checksum made
// right, so that what rejects the sidecar is the payload's structure.
func rechecksummed(header, payload []byte) []byte {
	mut := append(append([]byte(nil), header[:sidecarHeaderLen]...), payload...)
	binary.LittleEndian.PutUint64(mut[14:22], provenance.HashStream(payload))
	return mut
}

// TestSidecarTrailingBytesRejected: the payload ends with its last operator.
func TestSidecarTrailingBytesRejected(t *testing.T) {
	for name, f := range fixtures(t) {
		mut := rechecksummed(f.sidecar, append(append([]byte(nil), f.sidecar[sidecarHeaderLen:]...), 0))
		if err := f.lazyTracer(t).LoadIndexes(mut); !errors.Is(err, backtrace.ErrSidecarCorrupt) {
			t.Errorf("%s: a byte after the last operator: got %v, want ErrSidecarCorrupt", name, err)
		}
	}
}

// TestSidecarV1Rejected: testdata/example_v1.idx is the sidecar the previous
// format wrote for the example fixture's run, stored beside it as the codec
// v2 stream of that day (testdata/example_v2.pbl) — every operator's index
// spelled out beside the columns that already hold it. The version check
// turns it away from the run it names, so that its reader rebuilds, and the
// rebuild answers as today's stream of the same capture does.
func TestSidecarV1Rejected(t *testing.T) {
	v1, err := os.ReadFile("testdata/example_v1.idx")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := os.ReadFile("testdata/example_v2.pbl")
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(v1[6:14]); got != provenance.HashStream(stream) {
		t.Fatalf("the v1 sidecar names run %016x, its stream is %016x", got, provenance.HashStream(stream))
	}
	f := fixtures(t)["example"]
	archived := &sidecarFixture{stream: stream, sink: f.sink, question: f.question}
	tr := archived.lazyTracer(t)
	if err := tr.LoadIndexes(v1); !errors.Is(err, backtrace.ErrSidecarCorrupt) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("LoadIndexes on a v1 sidecar: got %v, want ErrSidecarCorrupt naming version 1", err)
	}
	if got, want := archived.traceVia(t, tr), f.traceVia(t, f.lazyTracer(t)); got != want {
		t.Errorf("rejected v1 sidecar left the tracer wrong:\n%s\nwant\n%s", got, want)
	}
	if len(f.sidecar) >= len(v1) {
		t.Errorf("v2 sidecar is %d bytes, the v1 one was %d", len(f.sidecar), len(v1))
	}
}

// TestSidecarOverlongVarintRejected: the load-time scan and the column decode
// read through one cursor, so what the decode would refuse the scan refuses.
// A genuine sidecar with one varint re-encoded in 12 bytes — the last value of
// the last region, or where there is no region the first operator id — and
// the payload checksum recomputed, used to pass LoadIndexes and fail only in
// the operator's decode, which silently rebuilt: right answer, but nobody was
// told the sidecar was bad and the index build was paid unseen.
func TestSidecarOverlongVarintRejected(t *testing.T) {
	for name, f := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			payload := f.sidecar[sidecarHeaderLen:]
			at := 1 // the first operator's id, after a one-byte operator count
			if strings.HasSuffix(name, " shuffled") {
				at = len(payload) - 1
			}
			if payload[at] >= 0x80 || payload[at-1] >= 0x80 {
				t.Fatalf("fixture's varint at %d is not a single byte: % x", at, payload[at-1:at+1])
			}
			mut := append([]byte(nil), payload[:at]...)
			mut = append(mut, payload[at]|0x80)
			mut = append(mut, bytes.Repeat([]byte{0x80}, 10)...)
			mut = append(mut, 0x00)
			mut = append(mut, payload[at+1:]...)

			tr := f.lazyTracer(t)
			if err := tr.LoadIndexes(rechecksummed(f.sidecar, mut)); !errors.Is(err, backtrace.ErrSidecarCorrupt) {
				t.Fatalf("LoadIndexes on an overlong varint: got %v, want ErrSidecarCorrupt", err)
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

// TestCapturedRunHashesItsStream: a capture is the lazy view of the stream
// Finish encoded, so it carries that stream's content hash from the start —
// the hash of the bytes WriteTo writes — and writes the very sidecar a
// reload of that stream writes.
func TestCapturedRunHashesItsStream(t *testing.T) {
	_, run, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(2),
		engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stream, sidecar bytes.Buffer
	if _, err := run.WriteTo(&stream); err != nil {
		t.Fatal(err)
	}
	if h := run.ContentHash(); h != provenance.HashStream(stream.Bytes()) {
		t.Errorf("content hash %016x, want HashStream of the written stream %016x", h, provenance.HashStream(stream.Bytes()))
	}
	f := fixtures(t)["example"]
	if _, err := backtrace.NewTracer(run).WriteIndexes(&sidecar); err != nil || !bytes.Equal(sidecar.Bytes(), f.sidecar) {
		t.Errorf("WriteIndexes on the capture: %v, %d bytes, want the %d of the reloaded run's sidecar", err, sidecar.Len(), len(f.sidecar))
	}
	if err := backtrace.NewTracer(run).LoadIndexes(f.sidecar); err != nil {
		t.Errorf("LoadIndexes of the reload's sidecar on the capture: %v", err)
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
	fxs := fixtures(f)
	fx := fxs["join shuffled"]
	rebuilt := fx.traceVia(f, fx.lazyTracer(f))
	v1, err := os.ReadFile("testdata/example_v1.idx")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fx.sidecar)             // a region per joined operator
	f.Add(fxs["join"].sidecar)    // an engine run's: flags only, and for another run
	f.Add(fxs["example"].sidecar) // the same, more operators
	f.Add(v1)
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
