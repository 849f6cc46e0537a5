package experiments_test

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pebble/internal/core"
	"pebble/internal/experiments"
	"pebble/internal/obs"
	"pebble/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestRenderAnnotationsGolden pins the rendered annotation report byte for
// byte: the whole chain — example data, annotation counting, formatting —
// must be stable across runs, Go versions, and map-iteration orders. Run
// with -update-golden to regenerate after an intentional format change.
func TestRenderAnnotationsGolden(t *testing.T) {
	got := experiments.RenderAnnotations(
		"Sec 2 — annotations on the Tab. 1 tweets (paper: 35 vs 5)",
		experiments.AnnotationComparison(workload.ExampleTweets()))

	golden := filepath.Join("testdata", "annotations_example.golden")
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
		t.Errorf("rendered report drifted from golden file %s\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	// Byte-stability across repeated in-process runs (a map-order leak shows
	// up as run-to-run jitter long before it shows up in review).
	for i := 0; i < 5; i++ {
		again := experiments.RenderAnnotations(
			"Sec 2 — annotations on the Tab. 1 tweets (paper: 35 vs 5)",
			experiments.AnnotationComparison(workload.ExampleTweets()))
		if again != got {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
}

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
// the whole observability chain — engine counter hooks, collector footprint
// accounting, codec byte accounting, shard merge, formatting — must produce
// identical bytes on every run. Run with -update-golden after an
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
