package lineage_test

import (
	"reflect"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/lineage"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

func captureBoth(t *testing.T) (*engine.Result, *lineage.Run, *engine.Result, *provenance.Run) {
	t.Helper()
	lres, lrun, err := lineage.Capture(workload.ExamplePipeline(), workload.ExampleInput(2),
		engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	sres, srun, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(2),
		engine.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	return lres, lrun, sres, srun
}

func lpRowID(t *testing.T, res *engine.Result) int64 {
	t.Helper()
	for _, r := range res.Output.Rows() {
		u, _ := r.Value.Get("user")
		id, _ := u.Get("id_str")
		if s, _ := id.AsString(); s == "lp" {
			return r.ID
		}
	}
	t.Fatal("lp row missing")
	return 0
}

// TestLineageReturnsWholeTweets reproduces the paper's Sec. 2 observation:
// lineage solutions return all input tweets containing user lp (the
// light-grey items of Tab. 1), masking the two tweets causing the duplicate.
func TestLineageReturnsWholeTweets(t *testing.T) {
	lres, lrun, _, _ := captureBoth(t)
	traced, err := lrun.Trace(9, []int64{lpRowID(t, lres)})
	if err != nil {
		t.Fatal(err)
	}
	// Upper branch: lp authored 3 tweets with retweet_cnt 0; lower branch:
	// lp mentioned once.
	if got := len(traced[1]); got != 3 {
		t.Errorf("upper-branch lineage items = %d, want 3", got)
	}
	if got := len(traced[4]); got != 1 {
		t.Errorf("lower-branch lineage items = %d, want 1", got)
	}
	for oid, ids := range traced {
		src := lres.Sources[oid]
		for _, id := range ids {
			if _, ok := src.FindByID(id); !ok {
				t.Errorf("lineage id %d missing in source %d", id, oid)
			}
		}
	}
}

// TestLineageIsSupersetOfStructural: the whole-item lineage of a query must
// contain every item structural provenance identifies as contributing —
// lineage is coarser, never smaller. Both captures run over one input, so
// their ids are one id space and containment is checked id by id, per
// source operator.
func TestLineageIsSupersetOfStructural(t *testing.T) {
	scale := workload.DefaultScale(1)
	for _, name := range []string{"T1", "T5", "D1", "D4"} {
		sc, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pipe := sc.Build()
		inputs := sc.Input(scale, 4)
		res, srun, err := provenance.Capture(pipe, inputs, engine.Options{Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		b := sc.Pattern.Match(res.Output)
		if b.Len() == 0 {
			t.Fatalf("%s: no matches", name)
		}
		straced, err := backtrace.Trace(srun, pipe.Sink().ID(), b)
		if err != nil {
			t.Fatal(err)
		}
		lres, lrun, err := lineage.Capture(pipe, inputs, engine.Options{Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		var outIDs []int64
		for _, it := range sc.Pattern.Match(lres.Output).Items {
			outIDs = append(outIDs, it.ID)
		}
		if !reflect.DeepEqual(outIDs, b.IDs()) {
			t.Fatalf("%s: the lineage run's matches %v are not the structural run's %v", name, outIDs, b.IDs())
		}
		ltraced, err := lrun.Trace(pipe.Sink().ID(), outIDs)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for oid, s := range straced.BySource {
			ids := s.IDs()
			checked += len(ids)
			lin := make(map[int64]bool, len(ltraced[oid]))
			for _, id := range ltraced[oid] {
				lin[id] = true
			}
			for _, id := range ids {
				if !lin[id] {
					t.Errorf("%s: source %d: structural trace reached id %d, which Titian's lineage does not", name, oid, id)
					break
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: the structural trace reached no input item", name)
		}
	}
}

// TestLineageSizeVsStructural: lineage is the dark bar of Fig. 8 — the ids
// Titian stores are the structural capture's id columns. Traced from every
// sink row of T2 as a whole (an empty tree asks about no attribute), Titian's
// id join and the structural backtrace reach the same input items.
func TestLineageSizeVsStructural(t *testing.T) {
	sc, _ := workload.ByName("T2")
	inputs := sc.Input(workload.DefaultScale(2), 4)
	_, lrun, err := lineage.Capture(sc.Build(), inputs, engine.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, srun, err := provenance.Capture(sc.Build(), inputs, engine.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := srun.Op(sc.Build().Sink().ID())
	rows := sink.Columns().Out
	if len(rows) == 0 {
		t.Fatal("no sink rows")
	}
	tr := backtrace.NewTracer(srun)
	for _, id := range rows {
		want, err := lrun.Trace(sink.OID, []int64{id})
		if err != nil {
			t.Fatal(err)
		}
		b := backtrace.NewStructure()
		b.Add(id, backtrace.NewTree())
		got, err := tr.Trace(sink.OID, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(want) != len(got.BySource) {
			t.Fatalf("sink row %d: structural trace reaches %d sources, Titian %d", id, len(got.BySource), len(want))
		}
		for oid, ids := range want {
			if !reflect.DeepEqual(got.Structure(oid).IDs(), ids) {
				t.Fatalf("sink row %d, source %d: structural trace reaches %v, Titian %v", id, oid, got.Structure(oid).IDs(), ids)
			}
		}
	}
}

func TestLineageTraceErrors(t *testing.T) {
	_, lrun, _, _ := captureBoth(t)
	if _, err := lrun.Trace(42, []int64{1}); err == nil {
		t.Error("unknown operator should error")
	}
	empty, err := lrun.Trace(9, nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty trace: %v, %v", empty, err)
	}
}

func TestLineageDeterministicOrder(t *testing.T) {
	lres, lrun, _, _ := captureBoth(t)
	a, _ := lrun.Trace(9, []int64{lpRowID(t, lres)})
	b, _ := lrun.Trace(9, []int64{lpRowID(t, lres)})
	for oid := range a {
		if len(a[oid]) != len(b[oid]) {
			t.Fatal("nondeterministic trace")
		}
		for i := range a[oid] {
			if a[oid][i] != b[oid][i] {
				t.Error("trace ids not sorted deterministically")
			}
		}
	}
}
