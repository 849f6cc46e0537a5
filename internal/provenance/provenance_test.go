package provenance_test

import (
	"testing"

	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

func captureExample(t *testing.T, parts int) (*engine.Result, *provenance.Run) {
	t.Helper()
	res, run, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(parts),
		engine.Options{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return res, run
}

func TestCaptureExamplePipeline(t *testing.T) {
	res, run := captureExample(t, 2)
	ops := run.Operators()
	if len(ops) != 9 {
		t.Fatalf("captured %d operators, want 9", len(ops))
	}
	// Execution order is preserved.
	for i, op := range ops {
		if op.OID != i+1 {
			t.Errorf("operator order: position %d has OID %d", i, op.OID)
		}
	}
	// Tab. 6 layouts per operator type.
	layouts := map[engine.OpType]provenance.AssocKind{
		engine.OpSource: provenance.AssocSource, engine.OpFilter: provenance.AssocUnary,
		engine.OpSelect: provenance.AssocUnary, engine.OpMap: provenance.AssocUnary,
		engine.OpJoin: provenance.AssocBinary, engine.OpUnion: provenance.AssocBinary,
		engine.OpFlatten: provenance.AssocFlatten, engine.OpAggregate: provenance.AssocAgg,
	}
	for _, op := range ops {
		if c := op.Columns(); op.AssocKind() != layouts[op.Type] || c.Kind != op.AssocKind() || len(c.Out) != op.AssocCount() {
			t.Errorf("%s %d: layout %d with %d rows (columns say %d, %d), want layout %d", op.Type, op.OID,
				op.AssocKind(), op.AssocCount(), c.Kind, len(c.Out), layouts[op.Type])
		}
	}
	// The two reads annotate 5 tweets each.
	src1, _ := run.Op(1)
	src4, _ := run.Op(4)
	if n1, n4 := len(src1.OrigIDs()), len(src4.OrigIDs()); n1 != 5 || n4 != 5 {
		t.Errorf("source annotations: %d and %d, want 5 and 5", n1, n4)
	}
	// Filter keeps 4 of 5; flatten explodes 5 mentions; union merges 4+5;
	// aggregation groups into 3 users.
	counts := map[int]int{2: 4, 5: 5, 7: 9, 9: 3}
	for oid, want := range counts {
		op, ok := run.Op(oid)
		if !ok {
			t.Fatalf("operator %d missing", oid)
		}
		if got := op.AssocCount(); got != want {
			t.Errorf("operator %d associations = %d, want %d", oid, got, want)
		}
	}
	// Every output row of the sink has an aggregation association.
	agg, _ := run.Op(9)
	outIDs := map[int64]bool{}
	for _, id := range agg.Columns().Out {
		outIDs[id] = true
	}
	for _, r := range res.Output.Rows() {
		if !outIDs[r.ID] {
			t.Errorf("result row %d has no provenance association", r.ID)
		}
	}
}

func TestAssociationChainIsClosed(t *testing.T) {
	// Every input identifier recorded by an operator must be an output
	// identifier of its predecessor — the join invariant Alg. 3 relies on.
	_, run := captureExample(t, 3)
	outs := map[int]map[int64]bool{} // oid -> produced ids
	for _, op := range run.Operators() {
		ids := map[int64]bool{}
		for _, id := range op.Columns().Out {
			ids[id] = true
		}
		outs[op.OID] = ids
	}
	for _, op := range run.Operators() {
		if len(op.Inputs) == 0 || op.Type == engine.OpSource {
			continue
		}
		check := func(id int64, inputIdx int) {
			if id == -1 {
				return // absent union side
			}
			pred := op.Inputs[inputIdx].Pred
			if !outs[pred][id] {
				t.Errorf("operator %d consumes id %d not produced by predecessor %d", op.OID, id, pred)
			}
		}
		c := op.Columns()
		for _, id := range c.In {
			check(id, 0)
		}
		for _, id := range c.Right {
			check(id, 1)
		}
	}
}

func TestSizesSplitLineageVsStructural(t *testing.T) {
	_, run := captureExample(t, 2)
	total := run.Sizes()
	if total.LineageBytes <= 0 {
		t.Error("lineage bytes must be positive")
	}
	if total.StructuralExtra <= 0 {
		t.Error("structural extra must be positive (paths + flatten positions)")
	}
	if total.Total() != total.LineageBytes+total.StructuralExtra {
		t.Error("Total() inconsistent")
	}
	// The structural extra is small relative to lineage for id-heavy
	// pipelines; here paths dominate because the data is tiny, so just check
	// the flatten contribution is accounted.
	fl, _ := run.Op(5)
	s := fl.Sizes()
	if s.StructuralExtra < int64(len(fl.Columns().Pos))*8 {
		t.Errorf("flatten structural extra %d misses position storage", s.StructuralExtra)
	}
	// Aggregation lineage grows with group sizes.
	agg, _ := run.Op(9)
	as := agg.Sizes()
	ids := len(agg.Columns().In) + len(agg.Columns().Out)
	if as.LineageBytes != int64(ids)*8 {
		t.Errorf("aggregation lineage bytes = %d, want %d", as.LineageBytes, ids*8)
	}
}

func TestCollectorReuseAfterFinish(t *testing.T) {
	c := provenance.NewCollector()
	opts := engine.Options{Partitions: 1, Sink: c}
	if _, err := engine.Run(workload.ExamplePipeline(), workload.ExampleInput(1), opts); err != nil {
		t.Fatal(err)
	}
	first, err := c.Finish()
	if err != nil || len(first.Operators()) != 9 {
		t.Fatalf("first run: %v, %d ops", err, len(first.Operators()))
	}
	// Reuse for a second run.
	if _, err := engine.Run(workload.ExamplePipeline(), workload.ExampleInput(1), opts); err != nil {
		t.Fatal(err)
	}
	second, err := c.Finish()
	if err != nil || len(second.Operators()) != 9 {
		t.Fatalf("collector not reusable after Finish: %v, %d ops", err, len(second.Operators()))
	}
	// Finished runs are independent.
	if &first.Operators()[0] == &second.Operators()[0] {
		t.Error("runs share state")
	}
}

func TestRunStringAndLookup(t *testing.T) {
	_, run := captureExample(t, 1)
	if _, ok := run.Op(42); ok {
		t.Error("lookup of unknown operator should fail")
	}
	if s := run.String(); len(s) == 0 {
		t.Error("String() empty")
	}
}
