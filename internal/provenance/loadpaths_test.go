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
// comes to be — merged by the collector, ReadRun or ReadRunLazy over the v3
// stream Finish encoded, the archived v2 stream or the frozen v1 stream —
// every operator holds DeepEqual columns (nil versus empty included),
// answers kind, count, order (whether Out is sorted, for a run-coded Out as
// for a Δ-coded one) and sizes alike, and re-encodes to the same bytes in the
// v3 and v1 layouts, so an archived stream re-encodes to the v3 bytes of its
// capture; the stream reference, which gathers its own row structs, agrees.
// The v3 bytes of a capture are the same at every worker count.
func TestLoadPathsGiveTheCapturedColumns(t *testing.T) {
	runs, kinds := 0, map[provenance.AssocKind]bool{}
	streams := map[string][]byte{} // v3 bytes at the first worker count
	for _, workers := range []int{1, 2, 4} {
		eachCapture(t, workers, func(name string, run *provenance.Run) {
			runs++
			for _, op := range run.Operators() {
				kinds[op.AssocKind()] = true
			}
			v3 := writeTo(t, run)
			if first, ok := streams[name]; !ok {
				streams[name] = v3
			} else if !bytes.Equal(first, v3) {
				t.Fatalf("%s: v3 stream at workers %d differs from workers 1 (%d vs %d bytes)", name, workers, len(v3), len(first))
			}
			checkLoadPaths(t, fmt.Sprintf("%s workers %d", name, workers), run, v3)
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
	v3 := writeTo(t, run)
	// Eight of its 40-row columns may be run-coded, each saving 30 bytes or more.
	if v2 := provenance.RefEncodeV2(run); len(v2)-len(v3) < 8*30 {
		t.Errorf("the run-coded run's v3 stream is %d bytes, its v2 stream %d: not every column that may be was run-coded", len(v3), len(v2))
	}
	checkLoadPaths(t, "run-coded", run, v3)
}

// checkLoadPaths requires the encoder over the captured run's decoded bags to
// reproduce the v3 stream Finish encoded from its shards, then loads that
// stream, its v2 and its v1 stream every way there is and requires each load
// to be the captured run.
func checkLoadPaths(t *testing.T, name string, run *provenance.Run, v3 []byte) {
	t.Helper()
	if re := provenance.EncodeV3(run); !bytes.Equal(re, v3) {
		t.Fatalf("%s: the captured bags re-encode to %d bytes, not the %d Finish encoded", name, len(re), len(v3))
	}
	for _, stream := range [][]byte{v3, provenance.RefEncodeV2(run), provenance.RefEncodeV1(run)} {
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
