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
// comes to be — merged by the collector, ReadRun or ReadRunLazy over the v4
// stream Finish encoded, or its archived v3, v2 or v1 stream — every
// operator holds DeepEqual columns (nil versus empty included), answers
// kind, count, order (whether Out is sorted, for a run-coded Out as for a
// Δ-coded one) and sizes alike, and re-encodes to the same bytes in the v4
// and v1 layouts, so an archived stream re-encodes to the v4 bytes of its
// capture; the stream reference, which gathers its own row structs, agrees.
// The v4 bytes of a capture are the same at every worker count.
func TestLoadPathsGiveTheCapturedColumns(t *testing.T) {
	runs, kinds := 0, map[provenance.AssocKind]bool{}
	streams := map[string][]byte{} // v4 bytes at the first worker count
	for _, workers := range []int{1, 2, 4} {
		eachCapture(t, workers, func(name string, run *provenance.Run) {
			runs++
			for _, op := range run.Operators() {
				kinds[op.AssocKind()] = true
			}
			v4 := writeTo(t, run)
			if first, ok := streams[name]; !ok {
				streams[name] = v4
			} else if !bytes.Equal(first, v4) {
				t.Fatalf("%s: v4 stream at workers %d differs from workers 1 (%d vs %d bytes)", name, workers, len(v4), len(first))
			}
			checkLoadPaths(t, fmt.Sprintf("%s workers %d", name, workers), run, v4)
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
	run := runCodedRun(t)
	v4 := writeTo(t, run)
	// Nine of its 40-row columns may be run-coded, each saving 30 bytes or
	// more; v3 could not run-code the flatten's positions.
	if v2, v3 := provenance.RefEncodeV2(run), provenance.RefEncodeV3(run); len(v2)-len(v4) < 9*30 || len(v3)-len(v4) < 30 {
		t.Errorf("the run-coded run's v4 stream is %d bytes, its v3 stream %d and its v2 stream %d: not every column that may be was run-coded", len(v4), len(v3), len(v2))
	}
	checkLoadPaths(t, "run-coded", run, v4)
}

// checkLoadPaths requires the encoder over the captured run's decoded bags to
// reproduce the v4 stream Finish encoded from its shards, then loads that
// stream, its v3, v2 and v1 streams every way there is and requires each load
// to be the captured run.
func checkLoadPaths(t *testing.T, name string, run *provenance.Run, v4 []byte) {
	t.Helper()
	if re := provenance.EncodeV4(run); !bytes.Equal(re, v4) {
		t.Fatalf("%s: the captured bags re-encode to %d bytes, not the %d Finish encoded", name, len(re), len(v4))
	}
	for _, stream := range [][]byte{v4, provenance.RefEncodeV3(run), provenance.RefEncodeV2(run), provenance.RefEncodeV1(run)} {
		eager, err := provenance.ReadRun(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: ReadRun: %v", name, err)
		}
		lazy, err := provenance.ReadRunLazy(stream)
		if err != nil {
			t.Fatalf("%s: ReadRunLazy: %v", name, err)
		}
		ref, rest, err := provenance.RefReadRun(stream)
		if err != nil || rest != 0 {
			t.Fatalf("%s: reference decode: %v (%d bytes left)", name, err, rest)
		}
		for _, got := range []*provenance.Run{eager, lazy, ref} {
			requireSameRun(t, run, got)
		}
	}
}
