package provenance

import (
	"bytes"
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
			c.Finish() // drain so shards recycle instead of growing
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

// benchRun builds a deterministic synthetic run with every association kind.
func benchRun() *Run {
	c := NewCollector()
	fillCollector(c, 10, 16, 2000)
	return c.Finish()
}

// BenchmarkCodecV1vsV2 measures the codec over the same run: encode through
// WriteTo (v2, the only encoder), decode of the v2 stream and of the frozen
// v1 layout (stream from the test-only reference encoder) through ReadRun,
// each reporting its stream size.
func BenchmarkCodecV1vsV2(b *testing.B) {
	run := benchRun()
	var v2 bytes.Buffer
	if _, err := run.WriteTo(&v2); err != nil {
		b.Fatal(err)
	}
	b.Run("encode/v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if _, err := run.WriteTo(&w); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(v2.Len()), "bytes")
	})
	for _, v := range []struct {
		name   string
		stream []byte
	}{{"v1", RefEncodeV1(run)}, {"v2", v2.Bytes()}} {
		b.Run("decode/"+v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadRun(bytes.NewReader(v.stream)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(v.stream)), "bytes")
		})
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
		"-test.run=^$", "-test.bench=BenchmarkCaptureSink|BenchmarkCodecV1vsV2|BenchmarkCollectorFinish",
		"-test.benchtime=1x", "-test.timeout=5m")
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
		"BenchmarkCodecV1vsV2/encode/v2",
		"BenchmarkCodecV1vsV2/decode/v1",
		"BenchmarkCodecV1vsV2/decode/v2",
		"BenchmarkCollectorFinish",
	} {
		if !strings.Contains(s, name) {
			t.Errorf("benchmark %s produced no output", name)
		}
	}
}
