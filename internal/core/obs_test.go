package core_test

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"pebble/internal/core"
	"pebble/internal/obs"
	"pebble/internal/workload"
)

// captureRendered runs the example workload under capture with a fresh
// recorder at the given worker count — Finish encodes the provenance —
// writes the stream, and returns the timing-free stats rendering.
func captureRendered(t *testing.T, workers int) string {
	t.Helper()
	rec := obs.NewRecorder()
	s := core.NewSession(
		core.WithPartitions(4),
		core.WithWorkers(workers),
		core.WithRecorder(rec),
	)
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cap.Provenance.WriteTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot().Render(false)
}

// TestCounterTotalsDeterministicAcrossWorkers is the observability
// determinism regression: every counter total (rows, expression evals,
// hashed keys, association rows, encoded provenance bytes) must be
// byte-identical for Workers 1, 2, and NumCPU. Timings are wall-clock and
// excluded via Render(false).
func TestCounterTotalsDeterministicAcrossWorkers(t *testing.T) {
	want := captureRendered(t, 1)
	for _, w := range []int{2, runtime.NumCPU()} {
		if got := captureRendered(t, w); got != want {
			t.Errorf("counter totals differ between Workers=1 and Workers=%d:\n--- w=1\n%s\n--- w=%d\n%s", w, want, w, got)
		}
	}
	// The render must carry real data, not an empty table.
	if !strings.Contains(want, "aggregate") || !strings.Contains(want, "prov_bytes") {
		t.Fatalf("unexpected stats rendering:\n%s", want)
	}
}

// TestCapturedStatsWithAndWithoutRecorder covers both Stats paths: the full
// recorder snapshot and the reduced synthesis from engine row counts.
func TestCapturedStatsWithAndWithoutRecorder(t *testing.T) {
	rec := obs.NewRecorder()
	withRec, err := core.NewSession(core.WithPartitions(2), core.WithRecorder(rec)).
		Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	st := withRec.Stats()
	if len(st.Ops) == 0 || st.Total(obs.RowsIn) == 0 {
		t.Fatalf("recorder-backed stats empty: %+v", st)
	}
	if st.SpanTotal(obs.SpanSchedule) <= 0 {
		t.Error("schedule span missing from recorder-backed stats")
	}
	// The capture encodes the run once, at Finish, so prov_bytes is the
	// operators' share of the stream right away, and a WriteTo, which writes
	// the held stream, does not change it.
	var stream strings.Builder
	n, err := withRec.Provenance.WriteTo(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Total(obs.ProvBytes); got <= 0 || got >= n {
		t.Errorf("prov_bytes = %d after Capture of a %d-byte stream, want the operators' share of it", got, n)
	}
	if got, want := withRec.Stats().Total(obs.ProvBytes), st.Total(obs.ProvBytes); got != want {
		t.Errorf("prov_bytes = %d after WriteTo, %d before", got, want)
	}

	plain, err := core.NewSession(core.WithPartitions(2)).
		Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	syn := plain.Stats()
	if len(syn.Ops) != len(st.Ops) {
		t.Fatalf("synthesised stats cover %d ops, recorder %d", len(syn.Ops), len(st.Ops))
	}
	for i, op := range syn.Ops {
		if op.Counter(obs.RowsOut) != st.Ops[i].Counter(obs.RowsOut) {
			t.Errorf("op %d rows_out: synthesised %d != recorded %d",
				op.OID, op.Counter(obs.RowsOut), st.Ops[i].Counter(obs.RowsOut))
		}
		if op.Counter(obs.ProvBytes) != st.Ops[i].Counter(obs.ProvBytes) {
			t.Errorf("op %d prov_bytes: synthesised %d != recorded %d",
				op.OID, op.Counter(obs.ProvBytes), st.Ops[i].Counter(obs.ProvBytes))
		}
	}
}

// TestTraceAtIntermediateOperator traces from a non-sink operator through
// the typed OpByID/TraceAt path.
func TestTraceAtIntermediateOperator(t *testing.T) {
	s := core.NewSession(core.WithPartitions(2))
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	// Full query through the sink first, as reference.
	ref, err := cap.QueryAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Items()) == 0 {
		t.Fatal("reference query traced nothing")
	}
	// The same sink resolved explicitly.
	sink, ok := cap.Provenance.OpByID(cap.Provenance.Operators()[len(cap.Provenance.Operators())-1].ID())
	if !ok {
		t.Fatal("OpByID failed for an operator listed by Operators()")
	}
	q, err := cap.TraceAt(sink, ref.Matched)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items()) != len(ref.Items()) {
		t.Errorf("TraceAt(sink) traced %d items, QueryAll %d", len(q.Items()), len(ref.Items()))
	}
	if _, err := cap.TraceAt(nil, ref.Matched); err == nil {
		t.Error("TraceAt(nil) should fail")
	}
}

// TestSessionNewDatasetInheritance pins the partition-precedence contract:
// explicit positive parts > session partitions > engine default.
func TestSessionNewDatasetInheritance(t *testing.T) {
	vals := workload.ExampleTweets()
	s := core.NewSession(core.WithPartitions(3))
	if got := len(s.NewDataset("x", vals, 0).Partitions); got != 3 {
		t.Errorf("parts=0 under a 3-partition session: %d partitions, want 3", got)
	}
	if got := len(s.NewDataset("x", vals, 2).Partitions); got != 2 {
		t.Errorf("explicit parts=2: %d partitions, want 2", got)
	}
	def := core.NewSession()
	// The engine clamps to len(values) when there are fewer rows than
	// partitions; the example data has 5 tweets.
	if got := len(def.NewDataset("x", vals, 0).Partitions); got != len(vals) {
		t.Errorf("default session parts=0: %d partitions, want %d (clamped)", got, len(vals))
	}
}
