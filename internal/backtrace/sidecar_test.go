package backtrace_test

import (
	"bytes"
	"encoding/binary"
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

// sidecarFixture is a captured run's stream, the sidecar WriteIndexes writes
// for its lazy load, and a question about every result row.
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
// out of order before the run is encoded.
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

func (f *sidecarFixture) lazyRun(t testing.TB) *provenance.Run {
	t.Helper()
	run, err := provenance.ReadRunLazy(f.stream)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func (f *sidecarFixture) lazyTracer(t testing.TB) *backtrace.Tracer {
	return backtrace.NewTracer(f.lazyRun(t))
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

// fixtures are two engine runs and the same two with their association rows
// shuffled, together of every operator kind: unary, flatten and aggregate
// (example), binary (join).
func fixtures(t testing.TB) map[string]*sidecarFixture {
	out := map[string]*sidecarFixture{}
	for name, shuffled := range map[string]bool{"": false, " shuffled": true} {
		jp, ji := joinPipeline()
		out["example"+name] = makeFixture(t, workload.ExamplePipeline(), workload.ExampleInput(2), shuffled)
		out["join"+name] = makeFixture(t, jp, ji, shuffled)
	}
	return out
}

// TestSidecarIsFlags: the sidecar of any run, in order or shuffled out of
// it, is its header and per operator its id, kind and in-run flag — 1 where
// the Out column is in order, 0 with nothing after it where it is not — and
// LoadIndexes accepts it and leaves the answers as they were.
func TestSidecarIsFlags(t *testing.T) {
	for name, f := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			// One-byte operator count and ids: each operator is three bytes.
			ops := f.lazyRun(t).Operators()
			if want := sidecarHeaderLen + 1 + 3*len(ops); len(ops) >= 0x80 || len(f.sidecar) != want {
				t.Fatalf("sidecar of %d operators is %d bytes, want the %d of flags alone", len(ops), len(f.sidecar), want)
			}
			zeros := 0
			for i, op := range ops {
				entry := f.sidecar[sidecarHeaderLen+1+3*i:][:3]
				want := []byte{byte(op.OID), byte(op.AssocKind()), 1}
				if !op.OutOrdered() {
					want[2] = 0
					zeros++
				}
				if !bytes.Equal(entry, want) {
					t.Errorf("operator %d is % x in the sidecar, want % x", op.OID, entry, want)
				}
			}
			if shuffled := strings.HasSuffix(name, " shuffled"); shuffled != (zeros > 0) {
				t.Errorf("%d operators flagged out of order", zeros)
			}
		})
	}
}

// TestSidecarRoundTrip: the loader accepts the sidecar of its own run, the
// tracer then answers every trace exactly like a fresh one, and writing the
// sidecar again reproduces it byte for byte.
func TestSidecarRoundTrip(t *testing.T) {
	for name, f := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			tr := f.lazyTracer(t)
			if err := tr.LoadIndexes(f.sidecar); err != nil {
				t.Fatalf("LoadIndexes: %v", err)
			}
			if got, want := f.traceVia(t, tr), f.traceVia(t, f.lazyTracer(t)); got != want {
				t.Errorf("answers after LoadIndexes differ:\n%s\nwant\n%s", got, want)
			}
			var again bytes.Buffer
			if _, err := tr.WriteIndexes(&again); err != nil {
				t.Fatalf("re-write: %v", err)
			}
			if !bytes.Equal(again.Bytes(), f.sidecar) {
				t.Errorf("re-written sidecar differs: %d vs %d bytes", again.Len(), len(f.sidecar))
			}
		})
	}
}

// rejects loads data as f's sidecar, fails the test if it is accepted, and
// checks that the tracer answers as a fresh one after the rejection.
func rejects(t *testing.T, what string, f *sidecarFixture, data []byte, checkAnswers bool) {
	t.Helper()
	tr := f.lazyTracer(t)
	if err := tr.LoadIndexes(data); err == nil {
		t.Fatalf("%s: LoadIndexes accepted it", what)
	}
	if checkAnswers {
		if got, want := f.traceVia(t, tr), f.traceVia(t, f.lazyTracer(t)); got != want {
			t.Fatalf("%s: rejected sidecar left the tracer wrong:\n%s\nwant\n%s", what, got, want)
		}
	}
}

// TestSidecarEveryByteFlipRejected: the header pins magic, version and run
// hash, and the checksum covers every payload byte, so no single corrupted
// byte is accepted; the tracer still answers right after the rejection.
func TestSidecarEveryByteFlipRejected(t *testing.T) {
	fxs := fixtures(t)
	for _, name := range []string{"example", "example shuffled", "join shuffled"} {
		f := fxs[name]
		for i := range f.sidecar {
			mut := append([]byte(nil), f.sidecar...)
			mut[i] ^= 0x40
			rejects(t, fmt.Sprintf("%s, byte %d flipped", name, i), f, mut, i < 64)
		}
	}
}

// TestSidecarTruncations: every strict prefix is rejected.
func TestSidecarTruncations(t *testing.T) {
	fxs := fixtures(t)
	for _, name := range []string{"join", "join shuffled", "example shuffled"} {
		f := fxs[name]
		for n := 0; n < len(f.sidecar); n++ {
			rejects(t, fmt.Sprintf("%s, prefix of %d/%d bytes", name, n, len(f.sidecar)), f, f.sidecar[:n], false)
		}
	}
}

// rechecksummed returns header + payload with the payload checksum made
// right, so that what rejects the sidecar is the payload itself.
func rechecksummed(header, payload []byte) []byte {
	mut := append(append([]byte(nil), header[:sidecarHeaderLen]...), payload...)
	binary.LittleEndian.PutUint64(mut[14:22], provenance.HashStream(payload))
	return mut
}

// TestSidecarTrailingBytesRejected: the payload ends with its last operator.
func TestSidecarTrailingBytesRejected(t *testing.T) {
	for name, f := range fixtures(t) {
		payload := append(slices.Clone(f.sidecar[sidecarHeaderLen:]), 0)
		rejects(t, name+", a byte after the last operator", f, rechecksummed(f.sidecar, payload), false)
	}
}

// TestSidecarV1Rejected: testdata/example_v1.idx is the sidecar the previous
// format wrote for the example fixture's run, stored beside it as the codec
// v2 stream of that day (testdata/example_v2.pbl) — every operator's index
// spelled out beside the columns that already hold it. The loader turns it
// away from the run it names, and that run answers as today's stream of the
// same capture does.
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
	rejects(t, "the version-1 sidecar of the archived stream", archived, v1, true)
	if got, want := archived.traceVia(t, archived.lazyTracer(t)), f.traceVia(t, f.lazyTracer(t)); got != want {
		t.Errorf("the archived v2 stream answers otherwise than today's:\n%s\nwant\n%s", got, want)
	}
	if len(f.sidecar) >= len(v1) {
		t.Errorf("v2 sidecar is %d bytes, the v1 one was %d", len(f.sidecar), len(v1))
	}
}

// TestSidecarOverlongVarintRejected: a genuine sidecar with the first
// operator's id re-encoded as a 12-byte varint, under a recomputed payload
// checksum, is rejected, and the tracer still answers right.
func TestSidecarOverlongVarintRejected(t *testing.T) {
	for name, f := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			payload := f.sidecar[sidecarHeaderLen:]
			const at = 1 // the first operator's id, after a one-byte operator count
			if payload[at] >= 0x80 || payload[at-1] >= 0x80 {
				t.Fatalf("fixture's varint at %d is not a single byte: % x", at, payload[at-1:at+1])
			}
			mut := append(slices.Clone(payload[:at]), payload[at]|0x80)
			mut = append(append(mut, bytes.Repeat([]byte{0x80}, 10)...), 0x00)
			mut = append(mut, payload[at+1:]...)
			rejects(t, "an overlong varint", f, rechecksummed(f.sidecar, mut), true)
		})
	}
}

// TestSidecarWrongRun: a valid sidecar of another run is rejected.
func TestSidecarWrongRun(t *testing.T) {
	fxs := fixtures(t)
	rejects(t, "the join's sidecar on the example", fxs["example"], fxs["join"].sidecar, true)
}

// TestSidecarPrebuiltIndexWins: LoadIndexes installs nothing, so indexes
// already built stay and the answers do not move.
func TestSidecarPrebuiltIndexWins(t *testing.T) {
	f := fixtures(t)["example"]
	tr := f.lazyTracer(t)
	tr.BuildIndexes()
	if err := tr.LoadIndexes(f.sidecar); err != nil {
		t.Fatalf("LoadIndexes after BuildIndexes: %v", err)
	}
	if got, want := f.traceVia(t, tr), f.traceVia(t, f.lazyTracer(t)); got != want {
		t.Errorf("sidecar over pre-built indexes changed answers:\n%s\nwant\n%s", got, want)
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

// FuzzSidecar: arbitrary bytes never panic the loader, it accepts exactly
// the sidecar WriteIndexes writes for its run, and a tracer it accepted for
// answers like any other.
func FuzzSidecar(f *testing.F) {
	fxs := fixtures(f)
	fx := fxs["join shuffled"]
	rebuilt := fx.traceVia(f, fx.lazyTracer(f))
	v1, err := os.ReadFile("testdata/example_v1.idx")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fx.sidecar)             // its own: an in-run flag 0 for each shuffled operator
	f.Add(fxs["join"].sidecar)    // an engine run's: every flag 1, and for another run
	f.Add(fxs["example"].sidecar) // the same, more operators
	f.Add(v1)
	f.Add(fx.sidecar[:len(fx.sidecar)/2])
	f.Add([]byte("PBLI"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fx.lazyTracer(t)
		if err := tr.LoadIndexes(data); err != nil {
			return
		}
		if !bytes.Equal(data, fx.sidecar) {
			t.Fatalf("accepted % x, which is not the run's sidecar", data)
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
