package lazy_test

import (
	"sort"
	"testing"

	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/lazy"
	"pebble/internal/workload"
)

// origIDsOf translates a traced structure to sorted raw-input identifiers.
func origIDsOf(items []int64, trans map[int64]int64) []int64 {
	out := make([]int64, 0, len(items))
	for _, id := range items {
		out = append(out, trans[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLazyMatchesEager: the lazy (PROVision-style) query must return the
// same input items as the eager/holistic query, per source, modulo the fresh
// identifiers every rerun assigns.
func TestLazyMatchesEager(t *testing.T) {
	scale := workload.DefaultScale(1)
	for _, name := range []string{"T3", "T5", "D1"} {
		sc, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs := sc.Input(scale, 4)
		opts := engine.Options{Partitions: 4}

		// Eager: capture once, query from the captured provenance.
		session := core.Session{Partitions: 4}
		cap, err := session.Capture(sc.Build(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		eager, err := cap.Query(sc.Pattern)
		if err != nil {
			t.Fatal(err)
		}

		// Lazy: no prior capture; rerun per input at query time.
		lz, stats, err := lazy.Query(sc.Build, inputs, sc.Pattern, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantReruns := 0
		for _, op := range sc.Build().Ops() {
			if op.Type() == engine.OpSource {
				wantReruns++
			}
		}
		if stats.Reruns != wantReruns {
			t.Errorf("%s: reruns = %d, want %d", name, stats.Reruns, wantReruns)
		}
		if stats.Elapsed <= 0 {
			t.Errorf("%s: elapsed not recorded", name)
		}

		// Compare per-source raw-input id sets.
		for oid, ls := range lz.BySource {
			eagerStruct := eager.Traced.Structure(oid)
			eagerOp, _ := cap.Provenance.Op(oid)
			eagerTrans := eagerOp.OrigIDs()
			lazyIDs := origIDsOf(ls.IDs(), lz.OrigIDs[oid])
			eagerIDs := origIDsOf(eagerStruct.IDs(), eagerTrans)
			if len(lazyIDs) != len(eagerIDs) {
				t.Fatalf("%s source %d: lazy %d items, eager %d", name, oid, len(lazyIDs), len(eagerIDs))
			}
			for i := range lazyIDs {
				if lazyIDs[i] != eagerIDs[i] {
					t.Errorf("%s source %d: item %d differs (%d vs %d)", name, oid, i, lazyIDs[i], eagerIDs[i])
				}
			}
		}
	}
}

// TestLazyRerunsScaleWithInputs: multi-input pipelines pay one rerun per
// input dataset — the structural reason the paper's Fig. 9 shows 4–7×
// slowdowns on T3, T5, D3.
func TestLazyRerunsScaleWithInputs(t *testing.T) {
	scale := workload.DefaultScale(1)
	single, _ := workload.ByName("T1") // one read
	double, _ := workload.ByName("T3") // two reads
	_, s1, err := lazy.Query(single.Build, single.Input(scale, 2), single.Pattern, engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := lazy.Query(double.Build, double.Input(scale, 2), double.Pattern, engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Reruns != 1 || s2.Reruns != 2 {
		t.Errorf("reruns = %d and %d, want 1 and 2", s1.Reruns, s2.Reruns)
	}
}
