package treepattern_test

import (
	"testing"

	"pebble/internal/engine"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

// scenarioOutput is one scenario's result dataset with the pattern its
// trace asks.
type scenarioOutput struct {
	name    string
	pattern *treepattern.Pattern
	output  *engine.Dataset
}

// scenarioOutputs runs the ten scenarios as the client-path benchmark
// generates their inputs — one tweets dataset, one DBLP dataset and a
// separate DBLP dataset for D3, 16 partitions — at the given sizes.
func scenarioOutputs(tb testing.TB, tweets, records, d3Records int) []scenarioOutput {
	tb.Helper()
	const parts = engine.DefaultPartitions
	tw := workload.TwitterInput(workload.Scale{SimGB: 1, TweetsPerGB: tweets, Seed: 42}, parts)
	db := workload.DBLPInput(workload.Scale{SimGB: 1, RecordsPerGB: records, Seed: 42}, parts)
	db3 := workload.DBLPInput(workload.Scale{SimGB: 1, RecordsPerGB: d3Records, Seed: 42}, parts)
	var out []scenarioOutput
	for _, sc := range workload.AllScenarios() {
		in := db
		switch {
		case sc.Dataset == "twitter":
			in = tw
		case sc.Name == "D3":
			in = db3
		}
		res, err := engine.Run(sc.Build(), in, engine.Options{Partitions: parts})
		if err != nil {
			tb.Fatalf("%s: %v", sc.Name, err)
		}
		out = append(out, scenarioOutput{name: sc.Name, pattern: sc.Pattern, output: res.Output})
	}
	return out
}

// named returns the output of the scenario called name.
func named(tb testing.TB, outs []scenarioOutput, name string) scenarioOutput {
	tb.Helper()
	for _, so := range outs {
		if so.name == name {
			return so
		}
	}
	tb.Fatalf("no scenario %s", name)
	return scenarioOutput{}
}

// pointTraces is how many times a trace_repeat round asks D2's point
// question (its pattern matches one result item) beside one trace of every
// other scenario.
const pointTraces = 20

var matchSink int

// BenchmarkMatchSweep times the matching of one trace_repeat round of the
// client-path benchmark at its sizes (2 500 tweets, 16 000 DBLP records,
// 8 000 for D3): the ten scenario patterns, D2's twenty times ("sweep"), and
// one D2 point match on its own ("D2-point"). It is the library side of
// daemon.pattern_match; allocations per op are what the matcher costs the
// collector.
func BenchmarkMatchSweep(b *testing.B) {
	outs := scenarioOutputs(b, 2500, 16000, 8000)
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, so := range outs {
				reps := 1
				if so.name == "D2" {
					reps = pointTraces
				}
				for r := 0; r < reps; r++ {
					matchSink += so.pattern.Match(so.output).Len()
				}
			}
		}
	})
	d2 := named(b, outs, "D2")
	b.Run("D2-point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matchSink += d2.pattern.Match(d2.output).Len()
		}
	})
}

// TestMatchAllocatesPerBinding holds the matcher to allocating per binding,
// not per visited node. A descendant pattern that walks every field of every
// row and binds nothing allocates the same on N rows as on 2N; D2's point
// question, which binds one of them, stays within a fixed budget; and T5,
// whose pattern binds most rows, stays within a budget per matched row.
// The CI check job runs it without the race detector.
func TestMatchAllocatesPerBinding(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scenario outputs twice")
	}
	small := scenarioOutputs(t, 200, 2000, 2000)
	large := scenarioOutputs(t, 400, 4000, 4000)
	allocs := func(p *treepattern.Pattern, d *engine.Dataset) float64 {
		p.Compile()
		return testing.AllocsPerRun(20, func() { matchSink += p.Match(d).Len() })
	}
	d2, d2x2 := named(t, small, "D2"), named(t, large, "D2")
	none := treepattern.New(treepattern.Desc("no_such_attribute"))
	if n, n2 := allocs(none, d2.output), allocs(none, d2x2.output); n != n2 {
		t.Errorf("no-bind descendant walk: %.0f allocations on %d rows, %.0f on %d", n, d2.output.Len(), n2, d2x2.output.Len())
	}
	if got := d2.pattern.Match(d2x2.output).Len(); got != 1 {
		t.Fatalf("D2's point pattern matched %d items, want 1", got)
	}
	const pointBudget = 128
	for _, d := range []*engine.Dataset{d2.output, d2x2.output} {
		if n := allocs(d2.pattern, d); n > pointBudget {
			t.Errorf("D2 point match on %d rows: %.0f allocations, budget %d", d.Len(), n, pointBudget)
		}
	}

	t5 := named(t, small, "T5")
	matched := t5.pattern.Match(t5.output).Len()
	if matched < 100 {
		t.Fatalf("T5 matched %d rows; the per-row budget needs many", matched)
	}
	// Beyond the walk, a matched row costs no allocation of its own: its
	// bindings and paths reuse the goroutine's buffers and its Item sits in a
	// chunk. What is left — the growth of each partition's item slice, a
	// chunk, a tree per distinct signature — comes to 0.55 per row at this
	// size; one allocation more per matched row exceeds the budget.
	const perRow = 1.0
	if n := (allocs(t5.pattern, t5.output) - allocs(none, t5.output)) / float64(matched); n > perRow {
		t.Errorf("T5: %.2f allocations per matched row (%d rows), budget %.1f", n, matched, perRow)
	}
}
