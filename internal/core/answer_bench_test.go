package core_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"pebble/internal/core"
	"pebble/internal/workload"
)

var answerSink int

// BenchmarkTraceAnswer measures how a finished trace becomes its answer —
// QueryResult.Answer, the call the daemon's trace job makes: the traced
// identifiers resolved to source rows once, then the report and the JSON
// rendered concurrently — on a wide nested result (T3: tweets), a narrow one
// with many items (D1: DBLP records), the largest answer of the client-path
// benchmark (T4: every tweet with a hashtag, a different tree for each set of
// positions) and one whose items share two trees (T5). It is the layer the
// client-path benchmark reports as core.result_encode_s.
func BenchmarkTraceAnswer(b *testing.B) {
	for _, name := range []string{"T3", "D1", "T4", "T5"} {
		b.Run(name, func(b *testing.B) {
			sc, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			s := core.Session{Partitions: 16}
			cap, err := s.Capture(sc.Build(), sc.Input(workload.DefaultScale(8), 16))
			if err != nil {
				b.Fatal(err)
			}
			q, err := cap.Query(sc.Pattern)
			if err != nil {
				b.Fatal(err)
			}
			if len(q.Items()) == 0 {
				b.Fatal("nothing traced")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, js, err := q.Answer()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(js) + len(report)))
				answerSink += len(js) + len(report)
			}
		})
	}
}

// TestTraceAnswerBenchSmoke re-executes this test binary with one benchmark
// iteration so a broken benchmark fails the test gate (same pattern as the
// root TestBenchSmoke).
func TestTraceAnswerBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is slow; skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(exe, "-test.run=^$", "-test.bench=BenchmarkTraceAnswer", "-test.benchtime=1x", "-test.timeout=5m").CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"PASS", "BenchmarkTraceAnswer/T3", "BenchmarkTraceAnswer/D1", "BenchmarkTraceAnswer/T4", "BenchmarkTraceAnswer/T5"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("benchmark output misses %q:\n%s", want, out)
		}
	}
}
