package backtrace_test

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

var backtraceSink int

// BenchmarkBacktrace measures the backtracing walk alone — indexes built,
// pattern matched, no answer rendered — on the shapes that stress it at the
// client-path benchmark's trace_repeat sizes: T2 (three flattens merging
// positions back), T3 (an aggregation fanning one result item out to its
// group), T5 (31 k matched items fanning in through a join to a few hundred)
// and D1 (a join over narrow records, nothing merges). It is the layer the
// client-path benchmark reports as backtrace.trace_s.
func BenchmarkBacktrace(b *testing.B) {
	scale := workload.Scale{SimGB: 1, TweetsPerGB: 2500, RecordsPerGB: 16000}
	if testing.Short() {
		scale = workload.DefaultScale(1)
	}
	for _, name := range []string{"T2", "T3", "T5", "D1"} {
		b.Run(name, func(b *testing.B) {
			sc, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p := sc.Build()
			res, run, err := provenance.Capture(p, sc.Input(scale, 16), engine.Options{Partitions: 16})
			if err != nil {
				b.Fatal(err)
			}
			matched := sc.Pattern.Match(res.Output)
			tr := backtrace.NewTracer(run)
			if _, err := tr.Trace(p.Sink().ID(), matched); err != nil { // readies the indexes
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				traced, err := tr.Trace(p.Sink().ID(), matched)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range traced.BySource {
					backtraceSink += s.Len()
				}
			}
			if backtraceSink == 0 {
				b.Fatal("nothing traced")
			}
		})
	}
}

// capturedAt captures a scenario at a client-path benchmark size (the default
// scale under -short) and returns the run with its encoded stream.
func capturedAt(b *testing.B, name string, scale workload.Scale) (*provenance.Run, []byte) {
	b.Helper()
	if testing.Short() {
		scale = workload.DefaultScale(1)
	}
	sc, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	_, run, err := provenance.Capture(sc.Build(), sc.Input(scale, 16), engine.Options{Partitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := run.WriteTo(&stream); err != nil {
		b.Fatal(err)
	}
	return run, stream.Bytes()
}

// captureSizes are the twitter_capture / dblp_capture input sizes of the
// client-path benchmark (bench/workloads.go, preset "full").
var captureSizes = workload.Scale{SimGB: 1, TweetsPerGB: 8000, RecordsPerGB: 60000}

// BenchmarkPersist measures what a capture job does between the end of the
// capture (Finish has encoded and loaded the run) and the two artifacts:
// write the run's stream, write the sidecar. T5 and D5 carry the largest
// association bags of the two capture workloads. The artifact sizes are
// reported beside the time: the sidecar of an engine run is flags only.
func BenchmarkPersist(b *testing.B) {
	for _, name := range []string{"T5", "D5"} {
		b.Run(name, func(b *testing.B) {
			run, _ := capturedAt(b, name, captureSizes)
			var pbl, idx bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pbl.Reset()
				idx.Reset()
				if _, err := run.WriteTo(&pbl); err != nil {
					b.Fatal(err)
				}
				if _, err := backtrace.NewTracer(run).WriteIndexes(&idx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pbl.Len()), "pbl-bytes")
			b.ReportMetric(float64(idx.Len()), "idx-bytes")
		})
	}
}

// BenchmarkFirstLookup measures what the first trace through an operator pays
// before it can join identifiers: the lazy load of the stream, the first
// index of the run's largest operator — T5's join, D3's second flatten — and
// a thousand lookups spread over its output.
func BenchmarkFirstLookup(b *testing.B) {
	for name, scale := range map[string]workload.Scale{
		"T5": captureSizes,
		"D3": {SimGB: 1, RecordsPerGB: 12000},
	} {
		b.Run(name, func(b *testing.B) {
			run, stream := capturedAt(b, name, scale)
			var largest *provenance.Operator
			for _, op := range run.Operators() {
				if op.Type() != engine.OpSource && (largest == nil || op.AssocCount() > largest.AssocCount()) {
					largest = op
				}
			}
			outs := largest.Columns().Out
			ids := make([]int64, 1000)
			for i := range ids {
				ids[i] = outs[i*len(outs)/len(ids)]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lazy, err := provenance.ReadRunLazy(stream)
				if err != nil {
					b.Fatal(err)
				}
				op, _ := lazy.Op(largest.OID)
				if found := backtrace.Lookups(backtrace.NewTracer(lazy), op, ids); found != len(ids) {
					b.Fatalf("%d of %d output identifiers found", found, len(ids))
				}
			}
			b.ReportMetric(float64(largest.AssocCount()), "rows")
		})
	}
}

// TestBacktraceBenchSmoke re-executes this test binary with one iteration of
// every benchmark above so a broken benchmark fails the test gate (same
// pattern as the root TestBenchSmoke).
func TestBacktraceBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is slow; skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(exe, "-test.run=^$", "-test.bench=Benchmark(Backtrace|Persist|FirstLookup)$", "-test.benchtime=1x", "-test.short", "-test.timeout=5m").CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"PASS", "BenchmarkBacktrace/T2", "BenchmarkBacktrace/T3", "BenchmarkBacktrace/T5", "BenchmarkBacktrace/D1",
		"BenchmarkPersist/T5", "BenchmarkPersist/D5", "BenchmarkFirstLookup/T5", "BenchmarkFirstLookup/D3"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("benchmark output misses %q:\n%s", want, out)
		}
	}
}
