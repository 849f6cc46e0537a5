package provenance

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"pebble/internal/engine"
)

// BenchmarkCaptureSink measures the hand-over of a run's morsels to the
// collector: per morsel one registry lookup and the columns kept as they are,
// whatever the rows. Finish, which lays them out, is outside the timed region
// (BenchmarkCollectorFinish measures it).
func BenchmarkCaptureSink(b *testing.B) {
	const ops, parts, rows = 4, 8, 2000
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	c := NewCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for oid := 1; oid <= ops; oid++ {
			c.StartOperator(engine.OpInfo{OID: oid, Type: engine.OpMap}, parts)
			for p := 0; p < parts; p++ {
				c.Morsel(oid, p, int64(oid*1000000+p*10000), rows, engine.Assocs{In: ids})
			}
		}
		b.StopTimer()
		c.Finish() // drain, so the next hand-over starts empty
		b.StartTimer()
	}
}

// TestCodecBenchSmoke re-executes this test binary with one benchmark
// iteration so broken benchmarks fail the test gate instead of waiting for
// the next manual benchmark run (same pattern as the root TestBenchSmoke).
func TestCodecBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is slow; skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe,
		"-test.run=^$", "-test.bench=BenchmarkCaptureSink|BenchmarkCodec|BenchmarkCollectorFinish",
		"-test.benchtime=1x", "-test.short", "-test.timeout=5m")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark run failed: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "PASS") || strings.Contains(s, "--- FAIL") {
		t.Fatalf("benchmark run did not pass:\n%s", s)
	}
	for _, name := range []string{
		"BenchmarkCaptureSink",
		"BenchmarkCodec/T5/v2/encode",
		"BenchmarkCodec/T5/v3/scan",
		"BenchmarkCodec/D4/v3/decode",
		"BenchmarkCodec/T2/v4/decode",
		"BenchmarkCollectorFinish",
	} {
		if !strings.Contains(s, name) {
			t.Errorf("benchmark %s produced no output", name)
		}
	}
}
