// Benchmarks regenerating the paper's tables and figures (Sec. 7.3), one
// benchmark family per figure. The families that compare capture modes or
// query strategies run their sides in pairs (paired) and report each side's
// time as a ratio to the base side; Fig. 8 reports the bytes of the captured
// stream, split by provenance.Sizes. The tests beside the families pin each
// figure's deterministic shape. `make figures` runs the paired families;
// EXPERIMENTS.md records one such run.
package pebble_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"pebble"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/lazy"
	"pebble/internal/lineage"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// benchGB is the simulated dataset size used by the benchmarks; small enough
// for `go test -bench=.` to finish quickly, large enough to dominate setup.
const benchGB = 5

var inputsCache = map[string]map[string]*engine.Dataset{}

// benchInputs generates (and caches) a scenario's input datasets at gb
// simulated GB.
func benchInputs(sc workload.Scenario, gb int) map[string]*engine.Dataset {
	key := fmt.Sprint(sc.Dataset, gb)
	if _, ok := inputsCache[key]; !ok {
		inputsCache[key] = sc.Input(workload.DefaultScale(gb), 4)
	}
	return inputsCache[key]
}

// side is one side of a paired benchmark: its name and one run of it.
type side struct {
	name string
	run  func() error
}

// paired runs every side once per iteration, rotating which side goes first,
// each from a collected heap, so drift and garbage fall on all sides alike.
// Per side after the first, the base, it reports the per-iteration ratio of
// its time to the base's as median ("pebble/spark") and quartiles
// ("pebble/spark-q1", "-q3"); a ratio whose quartiles straddle 1 is
// unresolved at that many pairs (-benchtime Nx). ns/op is all sides together.
func paired(b *testing.B, sides ...side) {
	ratios, took := make([][]float64, len(sides)), make([]time.Duration, len(sides))
	for i := 0; i < b.N; i++ {
		for k := range sides {
			s := (i + k) % len(sides)
			runtime.GC()
			start := time.Now()
			if err := sides[s].run(); err != nil {
				b.Fatal(err)
			}
			took[s] = time.Since(start)
		}
		for s := 1; s < len(sides); s++ {
			ratios[s] = append(ratios[s], float64(took[s])/float64(took[0]))
		}
	}
	for s := 1; s < len(sides); s++ {
		r, unit := ratios[s], sides[s].name+"/"+sides[0].name
		slices.Sort(r)
		b.ReportMetric(quantile(r, 0.5), unit)
		b.ReportMetric(quantile(r, 0.25), unit+"-q1")
		b.ReportMetric(quantile(r, 0.75), unit+"-q3")
	}
}

// quantile interpolates the q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	x := q * float64(len(sorted)-1)
	i := int(x)
	if i+1 == len(sorted) {
		return sorted[i]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

// modes returns build over inputs in the three capture modes as paired
// sides: no capture (spark), Titian-style lineage (titian) and structural
// provenance (pebble).
func modes(build func() *engine.Pipeline, inputs map[string]*engine.Dataset) []side {
	opts := engine.Options{Partitions: 4}
	return []side{
		{"spark", func() error { _, err := engine.Run(build(), inputs, opts); return err }},
		{"titian", func() error { _, _, err := lineage.Capture(build(), inputs, opts); return err }},
		{"pebble", func() error { _, _, err := provenance.Capture(build(), inputs, opts); return err }},
	}
}

func benchCaptureOverhead(b *testing.B, scenarios []workload.Scenario) {
	for _, sc := range scenarios {
		for _, gb := range []int{1, benchGB} {
			m := modes(sc.Build, benchInputs(sc, gb))
			b.Run(fmt.Sprintf("%s/gb=%d", sc.Name, gb), func(b *testing.B) { paired(b, m[0], m[2]) })
		}
	}
}

// BenchmarkFig6CaptureOverheadTwitter regenerates Fig. 6: execution time of
// T1–T5 with structural provenance capture (pebble) over without (spark), at
// 1 and benchGB simulated GB.
func BenchmarkFig6CaptureOverheadTwitter(b *testing.B) {
	benchCaptureOverhead(b, workload.TwitterScenarios())
}

// BenchmarkFig7CaptureOverheadDBLP regenerates Fig. 7 for D1–D5.
func BenchmarkFig7CaptureOverheadDBLP(b *testing.B) {
	benchCaptureOverhead(b, workload.DBLPScenarios())
}

// captureSame runs build over inputs without capture, with Titian-style
// lineage and with structural provenance, fails unless all three yield the
// same non-empty output rows (capture observes the computation, it never
// changes it), and returns both captured runs.
func captureSame(t *testing.T, name string, build func() *engine.Pipeline, inputs map[string]*engine.Dataset) (*lineage.Run, *provenance.Run) {
	t.Helper()
	opts := engine.Options{Partitions: 2}
	base, err := engine.Run(build(), inputs, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lres, lrun, err := lineage.Capture(build(), inputs, opts)
	if err != nil {
		t.Fatalf("%s: lineage: %v", name, err)
	}
	pres, prun, err := provenance.Capture(build(), inputs, opts)
	if err != nil {
		t.Fatalf("%s: structural: %v", name, err)
	}
	want := base.Output.Values()
	if len(want) == 0 {
		t.Errorf("%s: empty output", name)
	}
	for _, got := range []*engine.Result{lres, pres} {
		if !slices.EqualFunc(got.Output.Values(), want, nested.Equal) {
			t.Errorf("%s: captured output (%d rows) differs from the plain run (%d rows)", name, got.Output.Len(), len(want))
		}
	}
	return lrun, prun
}

// TestCaptureOverheadRow checks one point of Fig. 6, T2 at one simulated GB:
// both measured sides compute the same rows, and the pebble side holds the
// provenance of every operator of the pipeline.
func TestCaptureOverheadRow(t *testing.T) {
	sc, err := workload.ByName("T2")
	if err != nil {
		t.Fatal(err)
	}
	_, run := captureSame(t, sc.Name, sc.Build, sc.Input(smallScale(1), 2))
	if got, want := len(run.Operators()), len(sc.Build().Ops()); got != want {
		t.Errorf("captured %d operators, the pipeline has %d", got, want)
	}
}

// TestFig6And7Sweeps checks that each figure sweeps its five scenarios, T1–T5
// and D1–D5, and that capture leaves every scenario's result unchanged.
func TestFig6And7Sweeps(t *testing.T) {
	for prefix, scenarios := range map[string][]workload.Scenario{"T": workload.TwitterScenarios(), "D": workload.DBLPScenarios()} {
		if len(scenarios) != 5 {
			t.Fatalf("%s scenarios = %d, want 5", prefix, len(scenarios))
		}
		for i, sc := range scenarios {
			if want := fmt.Sprintf("%s%d", prefix, i+1); sc.Name != want {
				t.Errorf("scenario %d is %s, want %s", i, sc.Name, want)
			}
			captureSame(t, sc.Name, sc.Build, sc.Input(smallScale(1), 2))
		}
	}
}

func benchSizes(b *testing.B, scenarios []workload.Scenario) {
	for _, sc := range scenarios {
		b.Run(sc.Name, func(b *testing.B) {
			var s provenance.Sizes
			for i := 0; i < b.N; i++ {
				_, run, err := provenance.Capture(sc.Build(), benchInputs(sc, benchGB), engine.Options{Partitions: 4})
				if err != nil {
					b.Fatal(err)
				}
				s = run.Sizes()
			}
			b.ReportMetric(float64(s.LineageBytes), "lineage_B")
			b.ReportMetric(float64(s.StructuralExtra), "structural_extra_B")
			b.ReportMetric(float64(s.Framing), "framing_B")
		})
	}
}

// BenchmarkFig8aProvenanceSizeTwitter regenerates Fig. 8(a): the bytes of
// the captured stream for T1–T5, split into the lineage share, the
// structural extra and the framing (reported as benchmark metrics).
func BenchmarkFig8aProvenanceSizeTwitter(b *testing.B) {
	benchSizes(b, workload.TwitterScenarios())
}

// BenchmarkFig8bProvenanceSizeDBLP regenerates Fig. 8(b) for D1–D5.
func BenchmarkFig8bProvenanceSizeDBLP(b *testing.B) {
	benchSizes(b, workload.DBLPScenarios())
}

// smallScale is the simulated size of the figure-shape tests: 100 tweets and
// 300 DBLP records per simulated GB.
func smallScale(gb int) workload.Scale {
	return workload.Scale{SimGB: gb, TweetsPerGB: 100, RecordsPerGB: 300, Seed: 42}
}

// TestFig8Sizes pins the shape of Fig. 8 at one scale on measured bytes:
// every scenario's stream has a lineage share and a structural extra, and
// DBLP, with more items per simulated GB than Twitter, captures more
// provenance in total (the MB-vs-GB y-axis contrast of the figure).
func TestFig8Sizes(t *testing.T) {
	total := func(scenarios []workload.Scenario) int64 {
		var sum int64
		for _, sc := range scenarios {
			_, run := captureSame(t, sc.Name, sc.Build, sc.Input(smallScale(1), 2))
			s := run.Sizes()
			if s.LineageBytes <= 0 || s.StructuralExtra <= 0 {
				t.Errorf("%s: sizes missing: %+v", sc.Name, s)
			}
			sum += s.LineageBytes + s.StructuralExtra
		}
		return sum
	}
	if tw, db := total(workload.TwitterScenarios()), total(workload.DBLPScenarios()); db <= tw {
		t.Errorf("DBLP provenance (%d) should exceed Twitter provenance (%d)", db, tw)
	}
}

func benchQueries(b *testing.B, scenarios []workload.Scenario) {
	for _, sc := range scenarios {
		b.Run(sc.Name, func(b *testing.B) {
			inputs, pipe, opts := benchInputs(sc, benchGB), sc.Build(), engine.Options{Partitions: 4}
			res, run, err := provenance.Capture(pipe, inputs, opts)
			if err != nil {
				b.Fatal(err)
			}
			paired(b, side{"eager", func() error {
				_, err := backtrace.Trace(run, pipe.Sink().ID(), sc.Pattern.Match(res.Output))
				return err
			}}, side{"lazy", func() error { _, _, err := lazy.Query(sc.Build, inputs, sc.Pattern, opts); return err }})
		})
	}
}

// BenchmarkFig9aQueryTwitter regenerates Fig. 9(a): structural provenance
// query time for T1–T5, fully lazy (PROVision-style re-execution per input)
// over eager (holistic: match + backtrace over captured provenance).
func BenchmarkFig9aQueryTwitter(b *testing.B) {
	benchQueries(b, workload.TwitterScenarios())
}

// BenchmarkFig9bQueryDBLP regenerates Fig. 9(b) for D1–D5.
func BenchmarkFig9bQueryDBLP(b *testing.B) {
	benchQueries(b, workload.DBLPScenarios())
}

// TestFig9QueryTimes checks Fig. 9's ordering on T3: the eager/holistic query
// is always faster than lazy (Sec. 7.3.3), because lazy pays one full capture
// re-execution per input dataset and T3 has two.
func TestFig9QueryTimes(t *testing.T) {
	sc, err := workload.ByName("T3")
	if err != nil {
		t.Fatal(err)
	}
	// Large enough that the lazy re-executions dominate the measurement
	// noise; the median of three smooths scheduler spikes.
	inputs := sc.Input(smallScale(8), 2)
	opts := engine.Options{Partitions: 2}
	pipe := sc.Build()
	res, run, err := provenance.Capture(pipe, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	eager := medianOf3(t, func() error {
		traced, err := backtrace.Trace(run, pipe.Sink().ID(), sc.Pattern.Match(res.Output))
		if err != nil {
			return err
		}
		items = 0
		for _, s := range traced.BySource {
			items += s.Len()
		}
		return nil
	})
	lazyT := medianOf3(t, func() error {
		_, _, err := lazy.Query(sc.Build, inputs, sc.Pattern, opts)
		return err
	})
	if eager <= 0 || lazyT <= 0 || items <= 0 {
		t.Errorf("query measurement incomplete: eager %v, lazy %v, %d items", eager, lazyT, items)
	}
	if lazyT <= eager {
		t.Errorf("lazy (%v) should exceed eager (%v)", lazyT, eager)
	}
}

// medianOf3 runs fn three times and returns the median wall time.
func medianOf3(t *testing.T, fn func() error) time.Duration {
	t.Helper()
	var d [3]time.Duration
	for i := range d {
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		d[i] = time.Since(start)
	}
	slices.Sort(d[:])
	return d[1]
}

// flatDBLPInputs renders the DBLP articles and inproceedings as flat
// single-string records, the RDD-of-strings representation of Sec. 7.3.4.
func flatDBLPInputs(scale workload.Scale, parts int) map[string]*engine.Dataset {
	gen := engine.NewIDGen(1)
	var artLines, inLines []nested.Value
	for _, r := range workload.GenerateDBLP(scale) {
		line := nested.Item(nested.F("line", nested.StringVal(r.String())))
		rt, _ := r.Get("record_type")
		switch s, _ := rt.AsString(); s {
		case "article":
			artLines = append(artLines, line)
		case "inproceedings":
			inLines = append(inLines, line)
		}
	}
	return map[string]*engine.Dataset{
		"articles.flat":      engine.NewDataset("articles.flat", artLines, parts, gen),
		"inproceedings.flat": engine.NewDataset("inproceedings.flat", inLines, parts, gen),
	}
}

// flatPipeline builds the Sec. 7.3.4 comparison pipeline: filter lines
// containing "2015" on both flat inputs, then union.
func flatPipeline() *engine.Pipeline {
	p := engine.NewPipeline()
	arts := p.Source("articles.flat")
	fa := p.Filter(arts, engine.Contains(engine.Col("line"), engine.LitString("2015")))
	ins := p.Source("inproceedings.flat")
	fi := p.Filter(ins, engine.Contains(engine.Col("line"), engine.LitString("2015")))
	p.Union(fa, fi)
	return p
}

func TestFlatWorkloadShape(t *testing.T) {
	inputs := flatDBLPInputs(smallScale(1), 2)
	if inputs["articles.flat"].Len() == 0 || inputs["inproceedings.flat"].Len() == 0 {
		t.Fatal("flat inputs empty")
	}
	for _, r := range inputs["articles.flat"].Rows()[:3] {
		line, ok := r.Value.Get("line")
		if !ok || line.Kind().String() != "string" {
			t.Fatalf("flat record is not a single string: %s", r.Value)
		}
	}
	if err := flatPipeline().Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTitianComparison regenerates Sec. 7.3.4: the flat-data workload
// (filter "2015", union of articles and inproceedings) with Titian-style
// lineage capture and with Pebble's structural capture, over no capture.
func BenchmarkTitianComparison(b *testing.B) {
	paired(b, modes(flatPipeline, flatDBLPInputs(workload.DefaultScale(benchGB), 4))...)
}

// TestTitianComparisonRows checks the Sec. 7.3.4 comparison on the flat
// workload by content: base, Titian and Pebble compute the same rows, and
// traced from every sink row as a whole (an empty tree), Titian's id join
// and Pebble's backtrace reach the same input items.
func TestTitianComparisonRows(t *testing.T) {
	titian, pebble := captureSame(t, "flat", flatPipeline, flatDBLPInputs(smallScale(2), 2))
	sink, _ := pebble.Op(flatPipeline().Sink().ID())
	for _, id := range sink.Columns().Out {
		b := backtrace.NewStructure()
		b.Add(id, backtrace.NewTree())
		got, err := backtrace.Trace(pebble, sink.OID, b)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := titian.Trace(sink.OID, []int64{id}); err != nil || len(want) == 0 || !reflect.DeepEqual(got.ContributingIDs(), want) {
			t.Fatalf("sink row %d: pebble traces %v, titian %v (%v)", id, got.ContributingIDs(), want, err)
		}
	}
}

// BenchmarkPerOperatorOverhead regenerates the per-operator analysis of
// Sec. 7.3.1: each operator in isolation, with capture over without.
func BenchmarkPerOperatorOverhead(b *testing.B) {
	inputs := workload.TwitterInput(workload.DefaultScale(benchGB), 4)
	for _, m := range microPipelines() {
		sides := modes(m.build, inputs)
		b.Run(m.name, func(b *testing.B) { paired(b, sides[0], sides[2]) })
	}
}

// microPipeline is a one-operator pipeline for per-operator measurements.
type microPipeline struct {
	name  string
	build func() *engine.Pipeline
}

// microPipelines returns one micro pipeline per supported operator over the
// Twitter input.
func microPipelines() []microPipeline {
	return []microPipeline{
		{"filter", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Filter(p.Source("tweets.json"), engine.Eq(engine.Col("retweet_cnt"), engine.LitInt(0)))
			return p
		}},
		{"select", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Select(p.Source("tweets.json"),
				engine.Column("text", "text"), engine.Column("id", "user.id_str"))
			return p
		}},
		{"map", func() *engine.Pipeline {
			p := engine.NewPipeline()
			identity := func(v nested.Value) (nested.Value, error) { return v, nil }
			p.Map(p.Source("tweets.json"), engine.MapFunc{Name: "id", Fn: identity})
			return p
		}},
		{"flatten", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Flatten(p.Source("tweets.json"), "user_mentions", "m_user")
			return p
		}},
		{"union", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Union(p.Source("tweets.json"), p.Source("tweets.json"))
			return p
		}},
		{"join", func() *engine.Pipeline {
			p := engine.NewPipeline()
			l := p.Select(p.Source("tweets.json"), engine.Column("lid", "user.id_str"), engine.Column("ltext", "text"))
			r := p.Select(p.Source("tweets.json"), engine.Column("rid", "user.id_str"))
			p.Join(l, r, engine.Col("lid"), engine.Col("rid"))
			return p
		}},
		{"aggregate", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Aggregate(p.Source("tweets.json"),
				[]engine.GroupKey{engine.KeyAs("lang", "lang")},
				[]engine.AggSpec{engine.Agg(engine.AggCollectList, "text", "texts")})
			return p
		}},
	}
}

// TestPerOperatorRows checks that the per-operator analysis covers the seven
// operators of Sec. 7.3.1 and that capture leaves each one's result unchanged.
func TestPerOperatorRows(t *testing.T) {
	inputs := workload.TwitterInput(smallScale(1), 2)
	var names []string
	for _, m := range microPipelines() {
		names = append(names, m.name)
		captureSame(t, m.name, m.build, inputs)
	}
	if want := []string{"filter", "select", "map", "flatten", "union", "join", "aggregate"}; !slices.Equal(names, want) {
		t.Errorf("operators = %v, want %v", names, want)
	}
}

// BenchmarkBacktraceRunningExample measures the core query path on the
// paper's running example (Fig. 2's backtrace), isolating the backtracing
// algorithms from workload noise.
func BenchmarkBacktraceRunningExample(b *testing.B) {
	res, run, err := provenance.Capture(workload.ExamplePipeline(), workload.ExampleInput(2),
		engine.Options{Partitions: 2})
	if err != nil {
		b.Fatal(err)
	}
	pattern := fig4Pattern()
	bs := pattern.Match(res.Output)
	if bs.Len() != 1 {
		b.Fatalf("pattern matched %d items", bs.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backtrace.Trace(run, 9, bs.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// fig4Pattern builds the Fig. 4 tree pattern through the public API.
func fig4Pattern() *pebble.Pattern {
	return pebble.NewPattern(
		pebble.Desc("id_str").WithEq(pebble.String("lp")),
		pebble.Child("tweets",
			pebble.Child("text").WithEq(pebble.String("Hello World")).WithCount(2, 2),
		),
	)
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationCaptureMode isolates what each capture level costs on the
// running-example pipeline (T3) over no capture: Titian-style lineage (ids
// only) and full structural provenance (ids + positions + schema paths).
func BenchmarkAblationCaptureMode(b *testing.B) {
	sc, err := workload.ByName("T3")
	if err != nil {
		b.Fatal(err)
	}
	paired(b, modes(sc.Build, benchInputs(sc, benchGB))...)
}

// BenchmarkAblationTracerReuse quantifies the query-side optimisation of a
// shared Tracer (cached association indexes) against rebuilding the indexes
// on every query — the paper's "optimize provenance querying" future work.
func BenchmarkAblationTracerReuse(b *testing.B) {
	sc, err := workload.ByName("T1")
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(sc, benchGB)
	pipe := sc.Build()
	res, run, err := provenance.Capture(pipe, inputs, engine.Options{Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	bs := sc.Pattern.Match(res.Output)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := backtrace.NewTracer(run).Trace(pipe.Sink().ID(), bs.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		tr := backtrace.NewTracer(run)
		if _, err := tr.Trace(pipe.Sink().ID(), bs.Clone()); err != nil {
			b.Fatal(err) // build the indexes once
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Trace(pipe.Sink().ID(), bs.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Concurrent queries against one shared tracer: with per-operator index
	// builds they no longer serialize on a tracer-wide lock.
	b.Run("parallel", func(b *testing.B) {
		tr := backtrace.NewTracer(run)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := tr.Trace(pipe.Sink().ID(), bs.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	// Fresh tracer per iteration, queried concurrently — exercises the
	// concurrent first-build path (sync.Once per operator).
	b.Run("parallel-fresh", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := backtrace.NewTracer(run).Trace(pipe.Sink().ID(), bs.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkAblationPartitions shows how the engine and its capture scale
// with the partition count (the paper's cluster scales over worker cores).
func BenchmarkAblationPartitions(b *testing.B) {
	sc, err := workload.ByName("T2")
	if err != nil {
		b.Fatal(err)
	}
	for _, parts := range []int{1, 2, 4, 8} {
		inputs := sc.Input(workload.DefaultScale(benchGB), parts)
		b.Run(fmt.Sprintf("parts=%d/capture", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := provenance.Capture(sc.Build(), inputs, engine.Options{Partitions: parts}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingWorkers measures wall time of capture as the physical
// worker count grows while the logical partitioning stays fixed — the
// logical/physical split of schedule.go. NumCPU is swept too unless it is
// already one of the fixed counts.
func BenchmarkScalingWorkers(b *testing.B) {
	sc, err := workload.ByName("T2")
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(sc, benchGB)
	for _, workers := range workerCounts(runtime.NumCPU()) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := engine.Options{Partitions: engine.DefaultPartitions, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, _, err := provenance.Capture(sc.Build(), inputs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// workerCounts is the sweep of BenchmarkScalingWorkers: 1, 2 and 4 workers,
// plus numCPU unless it is already one of them.
func workerCounts(numCPU int) []int {
	counts := []int{1, 2, 4}
	if !slices.Contains(counts, numCPU) {
		counts = append(counts, numCPU)
	}
	return counts
}

// TestScalingWorkerCounts checks that the sweep always includes NumCPU and
// never runs a count twice (Go would report the copy as workers=2#01).
func TestScalingWorkerCounts(t *testing.T) {
	for cpu := 1; cpu <= 16; cpu++ {
		counts := workerCounts(cpu)
		distinct := slices.Clone(counts)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		if !slices.Contains(counts, cpu) || len(distinct) != len(counts) {
			t.Errorf("NumCPU %d sweeps %v", cpu, counts)
		}
	}
}

// BenchmarkProvenanceCodec measures persistence of a captured run.
func BenchmarkProvenanceCodec(b *testing.B) {
	sc, err := workload.ByName("T3")
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(sc, benchGB)
	_, run, err := provenance.Capture(sc.Build(), inputs, engine.Options{Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if _, err := run.WriteTo(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := provenance.ReadRun(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(buf.Len()), "bytes")
}
