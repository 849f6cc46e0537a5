// Package invariants property-tests the whole stack on randomly generated
// pipelines: the paper's central correctness claim — the contributing data
// returned by backtracing suffices to reproduce the queried result items —
// plus structural invariants of the captured provenance.
//
// The pipeline/dataset generator lives in internal/corpus (shared with the
// differential oracle, the fuzz targets, and the cmd/oracle soak runner);
// this suite consumes generated specs and checks eager capture in depth.
package invariants

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/provenance"
)

// buildSpec generates the corpus spec for a seed and builds its pipeline.
func buildSpec(t *testing.T, seed int64) (*corpus.Spec, *engine.Pipeline) {
	t.Helper()
	spec := corpus.Generate(seed)
	pipe, err := spec.Build()
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	return spec, pipe
}

// TestSufficiencyInvariant is the paper's central correctness property: for
// a random pipeline and a random queried result item, re-running the
// pipeline on only the contributing input items reproduces the queried item.
// Specs with joins exercise the multi-dataset case: every source dataset is
// reduced to its contributing rows independently.
func TestSufficiencyInvariant(t *testing.T) {
	const trials = 60
	checked := 0
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		spec, pipe := buildSpec(t, seed)
		if !spec.AggOutputsReachSink() {
			// When a projection drops an aggregate's output, queries address
			// only the grouping key and Alg. 4 deliberately marks no group
			// member relevant (Ex. 6.6) — sufficiency is not promised there.
			continue
		}
		checked++
		r := rand.New(rand.NewSource(seed))
		inputs := spec.Inputs(3)
		res, run, err := provenance.Capture(pipe, inputs, spec.ExecOptions(engine.Options{Partitions: 3}))
		if err != nil {
			t.Fatalf("trial %d: capture: %v\nplan:\n%s", trial, err, pipe)
		}
		rows := res.Output.Rows()
		if len(rows) == 0 {
			continue // pipeline filtered everything; nothing to check
		}
		row := rows[r.Intn(len(rows))]
		b := backtrace.NewStructure()
		b.Add(row.ID, core.TreeFromValue(row.Value))
		traced, err := backtrace.Trace(run, pipe.Sink().ID(), b)
		if err != nil {
			t.Fatalf("trial %d: trace: %v\nplan:\n%s", trial, err, pipe)
		}
		// Collect the contributing raw-input ids per source dataset.
		keep := map[string]map[int64]bool{}
		total := 0
		for oid, s := range traced.BySource {
			op, ok := run.Op(oid)
			if !ok {
				t.Fatalf("trial %d: traced unknown source %d", trial, oid)
			}
			name := op.Inputs[0].SourceName
			if keep[name] == nil {
				keep[name] = map[int64]bool{}
			}
			toOrig := op.OrigIDs()
			for _, it := range s.Items {
				orig, ok := toOrig[it.ID]
				if !ok {
					t.Fatalf("trial %d: traced id %d missing in source %d", trial, it.ID, oid)
				}
				keep[name][orig] = true
				total++
			}
		}
		if total == 0 {
			t.Errorf("trial %d: queried item has no provenance\nplan:\n%s", trial, pipe)
			continue
		}
		// Re-run on the reduced inputs: every dataset keeps only its
		// contributing rows (an untraced dataset keeps none).
		gen2 := engine.NewIDGen(1)
		reducedInputs := map[string]*engine.Dataset{}
		for _, name := range sortedNames(inputs) {
			var reduced []nested.Value
			for _, ir := range inputs[name].Rows() {
				if keep[name][ir.ID] {
					reduced = append(reduced, ir.Value)
				}
			}
			reducedInputs[name] = engine.NewDataset(name, reduced, 3, gen2)
		}
		res2, err := engine.Run(pipe, reducedInputs, spec.ExecOptions(engine.Options{Partitions: 3}))
		if err != nil {
			t.Fatalf("trial %d: reduced run: %v", trial, err)
		}
		// Collection element order depends on how rows land in partitions,
		// which the reduced run redistributes; compare order-insensitively.
		want := normalize(row.Value)
		found := false
		for _, r2 := range res2.Output.Rows() {
			if nested.Equal(normalize(r2.Value), want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trial %d: reduced input does not reproduce the queried item\nitem: %s\nplan:\n%s",
				trial, row.Value, pipe)
		}
	}
	if checked < trials/2 {
		t.Fatalf("only %d/%d trials were eligible; the generator shape drifted", checked, trials)
	}
}

func sortedNames(inputs map[string]*engine.Dataset) []string {
	out := make([]string, 0, len(inputs))
	for name := range inputs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// normalize sorts every (transitively) contained collection so values can be
// compared independently of partition-induced element order.
func normalize(v nested.Value) nested.Value {
	switch v.Kind() {
	case nested.KindItem:
		fields := make([]nested.Field, v.NumFields())
		for i, f := range v.Fields() {
			fields[i] = nested.F(f.Name, normalize(f.Value))
		}
		return nested.Item(fields...)
	case nested.KindBag, nested.KindSet:
		elems := make([]nested.Value, len(v.Elems()))
		for i, e := range v.Elems() {
			elems[i] = normalize(e)
		}
		return nested.Bag(elems...).SortElems()
	default:
		return v
	}
}

// TestAssociationClosureInvariant checks on random pipelines that every
// input identifier recorded by an operator was produced by its predecessor
// and every result row has an association.
func TestAssociationClosureInvariant(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		spec, pipe := buildSpec(t, int64(5000+trial))
		res, run, err := provenance.Capture(pipe, spec.Inputs(2), spec.ExecOptions(engine.Options{Partitions: 2}))
		if err != nil {
			t.Fatalf("trial %d: %v\nplan:\n%s", trial, err, pipe)
		}
		produced := map[int]map[int64]bool{}
		for _, op := range run.Operators() {
			ids := map[int64]bool{}
			for _, id := range op.Columns().Out {
				ids[id] = true
			}
			produced[op.OID] = ids
		}
		for _, op := range run.Operators() {
			if op.Type == engine.OpSource {
				continue
			}
			check := func(id int64, inputIdx int) {
				if id == -1 {
					return
				}
				if !produced[op.Inputs[inputIdx].Pred][id] {
					t.Errorf("trial %d: op %d consumes unknown id %d\nplan:\n%s", trial, op.OID, id, pipe)
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
		sinkIDs := produced[pipe.Sink().ID()]
		for _, row := range res.Output.Rows() {
			if !sinkIDs[row.ID] {
				t.Errorf("trial %d: result row %d lacks an association", trial, row.ID)
			}
		}
	}
}

// TestDeterminismInvariant: the engine's output (values and order) is
// deterministic across runs and independent of capture.
func TestDeterminismInvariant(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		spec, pipe := buildSpec(t, int64(9000+trial))
		runOnce := func(capture bool) []nested.Value {
			inputs := spec.Inputs(3)
			var res *engine.Result
			var err error
			if capture {
				res, _, err = provenance.Capture(pipe, inputs, spec.ExecOptions(engine.Options{Partitions: 3}))
			} else {
				res, err = engine.Run(pipe, inputs, spec.ExecOptions(engine.Options{Partitions: 3}))
			}
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return res.Output.Values()
		}
		a, b, c := runOnce(false), runOnce(false), runOnce(true)
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("trial %d: nondeterministic row counts %d/%d/%d\nplan:\n%s",
				trial, len(a), len(b), len(c), pipe)
		}
		for i := range a {
			if !nested.Equal(a[i], b[i]) {
				t.Errorf("trial %d: row %d differs across runs", trial, i)
			}
			if !nested.Equal(a[i], c[i]) {
				t.Errorf("trial %d: row %d differs with capture enabled", trial, i)
			}
		}
	}
}

// TestBacktraceTotalCoverage: tracing the full result covers a superset of
// each single-item trace.
func TestBacktraceTotalCoverage(t *testing.T) {
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		spec, pipe := buildSpec(t, int64(7000+trial))
		res, run, err := provenance.Capture(pipe, spec.Inputs(2), spec.ExecOptions(engine.Options{Partitions: 2}))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rows := res.Output.Rows()
		if len(rows) == 0 {
			continue
		}
		all := backtrace.NewStructure()
		for _, row := range rows {
			all.Add(row.ID, core.TreeFromValue(row.Value))
		}
		allTraced, err := backtrace.Trace(run, pipe.Sink().ID(), all)
		if err != nil {
			t.Fatal(err)
		}
		allIDs := map[string]bool{}
		for oid, s := range allTraced.BySource {
			for _, id := range s.IDs() {
				allIDs[fmt.Sprintf("%d/%d", oid, id)] = true
			}
		}
		one := backtrace.NewStructure()
		one.Add(rows[0].ID, core.TreeFromValue(rows[0].Value))
		oneTraced, err := backtrace.Trace(run, pipe.Sink().ID(), one)
		if err != nil {
			t.Fatal(err)
		}
		for oid, s := range oneTraced.BySource {
			for _, id := range s.IDs() {
				if !allIDs[fmt.Sprintf("%d/%d", oid, id)] {
					t.Errorf("trial %d: single-item trace found %d/%d missing from full trace", trial, oid, id)
				}
			}
		}
	}
}

// TestOptimizerPreservesResultsAndProvenance: for random pipelines, the
// optimized plan produces the same result multiset, and tracing a random
// result item reaches the same raw input items.
func TestOptimizerPreservesResultsAndProvenance(t *testing.T) {
	const trials = 40
	optimizedAtLeastOnce := false
	for trial := 0; trial < trials; trial++ {
		seed := int64(3000 + trial)
		spec, pipe := buildSpec(t, seed)
		r := rand.New(rand.NewSource(seed))
		opt, rules, err := engine.Optimize(pipe)
		if err != nil {
			t.Fatalf("trial %d: optimize: %v\nplan:\n%s", trial, err, pipe)
		}
		if len(rules) > 0 {
			optimizedAtLeastOnce = true
		}
		runOne := func(p *engine.Pipeline) (*engine.Result, *provenance.Run) {
			res, run, err := provenance.Capture(p, spec.Inputs(3), spec.ExecOptions(engine.Options{Partitions: 3}))
			if err != nil {
				t.Fatalf("trial %d: %v\nplan:\n%s", trial, err, p)
			}
			return res, run
		}
		origRes, origRun := runOne(pipe)
		optRes, optRun := runOne(opt)
		// Result multisets match.
		a := normalizeAll(origRes.Output.Values())
		b := normalizeAll(optRes.Output.Values())
		if len(a) != len(b) {
			t.Fatalf("trial %d: row counts %d vs %d\nrules: %v\noriginal:\n%s\noptimized:\n%s",
				trial, len(a), len(b), rules, pipe, opt)
		}
		for i := range a {
			if !nested.Equal(a[i], b[i]) {
				t.Fatalf("trial %d: row %d differs after optimization\nrules: %v", trial, i, rules)
			}
		}
		// Provenance of a random item matches (as raw-input id sets).
		if origRes.Output.Len() == 0 {
			continue
		}
		pick := r.Intn(origRes.Output.Len())
		origIDs := traceOrigIDs(t, pipe, origRes, origRun, pick)
		// Find a matching optimized row: duplicates of one value can carry
		// different provenance (e.g. two identical aux rows joining the same
		// left row), so among the value-equal candidates one must trace to
		// the same raw-input id set.
		want := normalize(origRes.Output.Rows()[pick].Value)
		candidates := 0
		matched := false
		for i, row := range optRes.Output.Rows() {
			if !nested.Equal(normalize(row.Value), want) {
				continue
			}
			candidates++
			if sameIDSet(origIDs, traceOrigIDs(t, opt, optRes, optRun, i)) {
				matched = true
				break
			}
		}
		if candidates == 0 {
			t.Fatalf("trial %d: optimized result misses row %s", trial, want)
		}
		if !matched {
			t.Errorf("trial %d: no optimized duplicate of the queried row traces to the same inputs (rules %v)\nplan:\n%s",
				trial, rules, pipe)
		}
	}
	if !optimizedAtLeastOnce {
		t.Error("no random pipeline triggered any optimization rule — generator too weak")
	}
}

func sameIDSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

func normalizeAll(vals []nested.Value) []nested.Value {
	out := make([]nested.Value, len(vals))
	for i, v := range vals {
		out[i] = normalize(v)
	}
	sortValues(out)
	return out
}

func sortValues(vals []nested.Value) {
	sort.Slice(vals, func(i, j int) bool { return nested.Compare(vals[i], vals[j]) < 0 })
}

// traceOrigIDs full-traces one result row to its raw-input id set.
func traceOrigIDs(t *testing.T, pipe *engine.Pipeline, res *engine.Result, run *provenance.Run, rowIdx int) map[int64]bool {
	t.Helper()
	row := res.Output.Rows()[rowIdx]
	b := backtrace.NewStructure()
	b.Add(row.ID, core.TreeFromValue(row.Value))
	traced, err := backtrace.Trace(run, pipe.Sink().ID(), b)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]bool{}
	for oid, s := range traced.BySource {
		op, _ := run.Op(oid)
		toOrig := op.OrigIDs()
		for _, it := range s.Items {
			out[toOrig[it.ID]] = true
		}
	}
	return out
}
