package provenance_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pebble/internal/engine"
	"pebble/internal/obs"
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

// TestSizesSplitTheStream: Fig. 8's split is measured on the stream. On the
// ten scenarios and the golden pipelines, at Workers 1 and NumCPU, the three
// shares sum exactly to the stream's length; the lineage share is the
// association regions less the flatten Pos columns, each as long as the
// reference counts it from the columns (RefPosBytes); the encoder's prov_bytes
// is every operator's EncodedBytes and totals lineage plus structural extra;
// and both loads of the stream report the same split. A committed v2 stream
// splits too; a v1 stream, which has no columnar layout, reports zeros.
func TestSizesSplitTheStream(t *testing.T) {
	check := func(name string, run *provenance.Run, st *obs.Stats) {
		t.Helper()
		s, stream := run.Sizes(), writeTo(t, run)
		if s.LineageBytes <= 0 || s.StructuralExtra <= 0 || s.Framing <= 0 ||
			s.LineageBytes+s.StructuralExtra+s.Framing != int64(len(stream)) {
			t.Errorf("%s: sizes %+v do not split the %d-byte stream", name, s, len(stream))
		}
		pos := int64(0)
		for _, op := range run.Operators() {
			if c := op.Columns(); c.Kind == provenance.AssocFlatten {
				pos += int64(provenance.RefPosBytes(c))
			}
			if rec, _ := st.Op(op.OID); rec.Counter(obs.ProvBytes) != op.EncodedBytes() {
				t.Errorf("%s: operator %d encoded %d bytes, loaded %d", name, op.OID, rec.Counter(obs.ProvBytes), op.EncodedBytes())
			}
		}
		if s.LineageBytes != run.AssocBytesTotal()-pos {
			t.Errorf("%s: lineage %d B, want the %d B of association regions less %d B of Pos", name, s.LineageBytes, run.AssocBytesTotal(), pos)
		}
		if got := st.Total(obs.ProvBytes); got != s.LineageBytes+s.StructuralExtra {
			t.Errorf("%s: prov_bytes %d, lineage + structural extra %d", name, got, s.LineageBytes+s.StructuralExtra)
		}
		eager, err := provenance.ReadRun(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := provenance.ReadRunLazy(stream)
		if err != nil {
			t.Fatal(err)
		}
		if eager.Sizes() != s || lazy.Sizes() != s {
			t.Errorf("%s: captured %+v, reloaded %+v and %+v", name, s, eager.Sizes(), lazy.Sizes())
		}
	}
	capture := func(name string, build func() *engine.Pipeline, inputs map[string]*engine.Dataset, parts int) {
		for _, workers := range []int{1, runtime.NumCPU()} {
			rec := obs.NewRecorder()
			_, run, err := provenance.Capture(build(), inputs, engine.Options{Partitions: parts, Workers: workers, Recorder: rec})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(fmt.Sprintf("%s workers %d", name, workers), run, rec.Snapshot())
		}
	}
	for _, sc := range workload.AllScenarios() {
		capture(sc.Name, sc.Build, sc.Input(workload.DefaultScale(1), 4), 4)
	}
	for _, g := range goldenPipelines {
		capture(g.name, g.build, workload.ExampleInput(g.parts), g.parts)
		for suffix, split := range map[string]bool{".golden": false, ".v2.golden": true} {
			data, err := os.ReadFile(filepath.Join("testdata", g.name+suffix))
			if err != nil {
				t.Fatal(err)
			}
			run, err := provenance.ReadRunLazy(data)
			if err != nil {
				t.Fatal(err)
			}
			s := run.Sizes()
			if split && s.LineageBytes+s.StructuralExtra+s.Framing != int64(len(data)) || !split && s != (provenance.Sizes{}) {
				t.Errorf("%s%s: sizes %+v of a %d-byte stream", g.name, suffix, s, len(data))
			}
		}
	}
}

// TestImpliedPositionsCostNothing: the engine numbers the elements of each
// input row 1, 2, …, so every position a capture holds is the one its input
// id implies, and v4 codes each flatten's Pos column as one run whatever its
// length: at most 8 bytes a bag on T2, T4 and D3 (three flattens each), where
// v3 spent a byte or more a row. The stream's own split agrees.
func TestImpliedPositionsCostNothing(t *testing.T) {
	scale := workload.Scale{SimGB: 1, TweetsPerGB: 2000, RecordsPerGB: 6000, Seed: 42}
	for _, name := range []string{"T2", "T4", "D3"} {
		sc, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, run, err := provenance.Capture(sc.Build(), sc.Input(scale, 4), engine.Options{Partitions: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bags, pos := 0, 0
		for _, op := range run.Operators() {
			if c := op.Columns(); c.Kind == provenance.AssocFlatten {
				n := provenance.RefPosBytes(c)
				if n > 8 {
					t.Errorf("%s: flatten %d codes the positions of %d rows in %d bytes, want at most 8", name, op.OID, len(c.Pos), n)
				}
				bags, pos = bags+1, pos+n
			}
		}
		s := run.Sizes()
		if share := run.AssocBytesTotal() - s.LineageBytes; bags < 3 || share != int64(pos) {
			t.Errorf("%s: %d flatten bags, %d bytes of positions in the stream, want 3 or more and %d", name, bags, share, pos)
		}
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
