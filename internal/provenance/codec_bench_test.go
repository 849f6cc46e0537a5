package provenance

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"pebble/internal/engine"
)

// BenchmarkCaptureSink compares the two ways an executor can talk to the
// capture sink: resolving the (operator, partition) shard on every row — the
// registry-lookup-per-append pattern the morsel handles replaced — versus
// resolving it once per morsel and appending through the handle. The row
// loop is identical; only the lookup hoisting differs.
func BenchmarkCaptureSink(b *testing.B) {
	const ops, parts, rows = 4, 8, 2000
	run := func(b *testing.B, fill func(c *Collector)) {
		b.Helper()
		c := NewCollector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(c)
			b.StopTimer()
			c.Finish() // drain, so the next fill starts empty
			b.StartTimer()
		}
	}
	appendRows := func(ps engine.PartitionSink, oid, p int) {
		for i := 0; i < rows; i++ {
			id := int64(oid*1000000 + p*10000 + i)
			ps.Unary(id, id+1)
		}
	}
	b.Run("per-row", func(b *testing.B) {
		run(b, func(c *Collector) {
			for oid := 1; oid <= ops; oid++ {
				c.StartOperator(engine.OpInfo{OID: oid, Type: engine.OpMap}, parts)
				for p := 0; p < parts; p++ {
					for i := 0; i < rows; i++ {
						id := int64(oid*1000000 + p*10000 + i)
						c.Partition(oid, p).Unary(id, id+1)
					}
				}
			}
		})
	})
	b.Run("morsel", func(b *testing.B) {
		run(b, func(c *Collector) {
			for oid := 1; oid <= ops; oid++ {
				c.StartOperator(engine.OpInfo{OID: oid, Type: engine.OpMap}, parts)
				for p := 0; p < parts; p++ {
					appendRows(c.Partition(oid, p), oid, p)
				}
			}
		})
	})
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
		"BenchmarkCaptureSink/per-row",
		"BenchmarkCaptureSink/morsel",
		"BenchmarkCodec/T5/v2/encode",
		"BenchmarkCodec/T5/v3/scan",
		"BenchmarkCodec/D4/v3/decode",
		"BenchmarkCollectorFinish",
	} {
		if !strings.Contains(s, name) {
			t.Errorf("benchmark %s produced no output", name)
		}
	}
}
