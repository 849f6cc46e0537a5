package provenance_test

import (
	"bytes"
	"fmt"
	"testing"

	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// eachCapture captures the ten scenarios and the 240 corpus seeds at the given
// worker count and hands each run to f.
func eachCapture(t *testing.T, workers int, f func(name string, run *provenance.Run)) {
	t.Helper()
	for _, sc := range workload.AllScenarios() {
		_, run, err := provenance.Capture(sc.Build(), sc.Input(workload.DefaultScale(1), 4),
			engine.Options{Partitions: 4, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		f(sc.Name, run)
	}
	for seed := int64(1); seed <= 240; seed++ {
		spec := corpus.Generate(seed)
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, run, err := provenance.Capture(p, spec.Inputs(3), spec.ExecOptions(engine.Options{Partitions: 3, Workers: workers}))
		if err != nil {
			continue // the plan fails at run time: nothing was captured
		}
		f(fmt.Sprintf("seed %d", seed), run)
	}
}

// TestLoadPathsGiveTheCapturedColumns: a bag has one form, so however a run
// comes to be — merged by the collector, ReadRun or ReadRunLazy over the v2
// stream, or the frozen v1 stream — every operator holds DeepEqual columns
// (nil versus empty included), answers kind, count, order and sizes alike, and
// re-encodes to the same bytes in both layouts; the stream reference, which
// gathers its own row structs, agrees.
func TestLoadPathsGiveTheCapturedColumns(t *testing.T) {
	runs, kinds := 0, map[provenance.AssocKind]bool{}
	for _, workers := range []int{1, 2, 4} {
		eachCapture(t, workers, func(name string, run *provenance.Run) {
			runs++
			for _, op := range run.Operators() {
				kinds[op.AssocKind()] = true
			}
			var v2 bytes.Buffer
			if _, err := run.WriteTo(&v2); err != nil {
				t.Fatal(err)
			}
			for _, stream := range [][]byte{v2.Bytes(), provenance.RefEncodeV1(run)} {
				eager, err := provenance.ReadRun(bytes.NewReader(stream))
				if err != nil {
					t.Fatalf("%s workers %d: ReadRun: %v", name, workers, err)
				}
				lazy, err := provenance.ReadRunLazy(stream)
				if err != nil {
					t.Fatalf("%s workers %d: ReadRunLazy: %v", name, workers, err)
				}
				ref, rest, err := provenance.RefReadRun(stream)
				if err != nil || rest != 0 {
					t.Fatalf("%s workers %d: reference decode: %v (%d bytes left)", name, workers, err, rest)
				}
				for _, got := range []*provenance.Run{eager, lazy, ref} {
					requireSameRun(t, run, got)
				}
			}
		})
	}
	if runs < 3*200 {
		t.Errorf("only %d runs captured", runs)
	}
	for k := provenance.AssocNone; k <= provenance.AssocAgg; k++ {
		if !kinds[k] {
			t.Errorf("no captured operator has association kind %d", k)
		}
	}
}
