package core_test

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pebble/internal/core"
	"pebble/internal/obs"
	"pebble/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// renderExampleStats captures the example workload with a fresh recorder,
// serialises the provenance through the observed codec, and returns the
// timing-free stats rendering — every column of which is deterministic.
func renderExampleStats(t *testing.T) string {
	t.Helper()
	rec := obs.NewRecorder()
	s := core.NewSession(core.WithPartitions(2), core.WithRecorder(rec))
	cap, err := s.Capture(workload.ExamplePipeline(), workload.ExampleInput(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cap.Provenance.WriteTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	return cap.Stats().Render(false)
}

// TestRenderStatsGolden pins the timing-free Stats rendering byte for byte:
// the whole observability chain — engine counter hooks, codec byte
// accounting, shard merge, formatting — must produce identical bytes on
// every run. Run with -update-golden after an
// intentional format or instrumentation change.
func TestRenderStatsGolden(t *testing.T) {
	got := renderExampleStats(t)

	golden := filepath.Join("testdata", "stats_report.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("stats rendering drifted from golden file %s\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	for i := 0; i < 5; i++ {
		if again := renderExampleStats(t); again != got {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
}
