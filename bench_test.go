// Benchmarks regenerating the paper's tables and figures (Sec. 7.3), one
// benchmark family per figure. Compare the /spark vs /pebble (or /eager vs
// /lazy, /titian vs /pebble) timings of the same scenario to read off the
// relative overheads the paper plots; Fig. 8's sizes are emitted as
// benchmark metrics. cmd/benchrunner prints the same experiments as
// paper-style tables, including the 100–500 GB sweeps.
package pebble_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pebble"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/experiments"
	"pebble/internal/lazy"
	"pebble/internal/lineage"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// benchGB is the simulated dataset size used by the benchmarks; small enough
// for `go test -bench=.` to finish quickly, large enough to dominate setup.
const benchGB = 5

var (
	inputsMu    sync.Mutex
	inputsCache = map[string]map[string]*engine.Dataset{}
)

// benchInputs generates (and caches) the input datasets for a scenario.
func benchInputs(b *testing.B, sc workload.Scenario) map[string]*engine.Dataset {
	b.Helper()
	inputsMu.Lock()
	defer inputsMu.Unlock()
	if in, ok := inputsCache[sc.Dataset]; ok {
		return in
	}
	in := sc.Input(workload.DefaultScale(benchGB), 4)
	inputsCache[sc.Dataset] = in
	return in
}

func benchRun(b *testing.B, sc workload.Scenario, capture bool) {
	b.Helper()
	inputs := benchInputs(b, sc)
	opts := engine.Options{Partitions: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if capture {
			_, _, err = provenance.Capture(sc.Build(), inputs, opts)
		} else {
			_, err = engine.Run(sc.Build(), inputs, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchCaptureOverhead(b *testing.B, scenarios []workload.Scenario) {
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.Name+"/spark", func(b *testing.B) { benchRun(b, sc, false) })
		b.Run(sc.Name+"/pebble", func(b *testing.B) { benchRun(b, sc, true) })
	}
}

// BenchmarkFig6CaptureOverheadTwitter regenerates Fig. 6: execution time of
// T1–T5 without (spark) and with (pebble) structural provenance capture.
func BenchmarkFig6CaptureOverheadTwitter(b *testing.B) {
	benchCaptureOverhead(b, workload.TwitterScenarios())
}

// BenchmarkFig7CaptureOverheadDBLP regenerates Fig. 7 for D1–D5.
func BenchmarkFig7CaptureOverheadDBLP(b *testing.B) {
	benchCaptureOverhead(b, workload.DBLPScenarios())
}

func benchSizes(b *testing.B, scenarios []workload.Scenario) {
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			inputs := benchInputs(b, sc)
			var sizes provenance.Sizes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, run, err := provenance.Capture(sc.Build(), inputs, engine.Options{Partitions: 4})
				if err != nil {
					b.Fatal(err)
				}
				sizes = run.Sizes()
			}
			b.ReportMetric(float64(sizes.LineageBytes)/1024, "lineage_KB")
			b.ReportMetric(float64(sizes.StructuralExtra)/1024, "structural_extra_KB")
		})
	}
}

// BenchmarkFig8aProvenanceSizeTwitter regenerates Fig. 8(a): the size of the
// captured provenance for T1–T5, split into the lineage share and the
// structural extra (reported as benchmark metrics).
func BenchmarkFig8aProvenanceSizeTwitter(b *testing.B) {
	benchSizes(b, workload.TwitterScenarios())
}

// BenchmarkFig8bProvenanceSizeDBLP regenerates Fig. 8(b) for D1–D5.
func BenchmarkFig8bProvenanceSizeDBLP(b *testing.B) {
	benchSizes(b, workload.DBLPScenarios())
}

func benchQueries(b *testing.B, scenarios []workload.Scenario) {
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.Name+"/eager", func(b *testing.B) {
			inputs := benchInputs(b, sc)
			pipe := sc.Build()
			res, run, err := provenance.Capture(pipe, inputs, engine.Options{Partitions: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs := sc.Pattern.Match(res.Output)
				if _, err := backtrace.Trace(run, pipe.Sink().ID(), bs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sc.Name+"/lazy", func(b *testing.B) {
			inputs := benchInputs(b, sc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := lazy.Query(sc.Build, inputs, sc.Pattern, engine.Options{Partitions: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9aQueryTwitter regenerates Fig. 9(a): structural provenance
// query time for T1–T5, eager (holistic: match + backtrace over captured
// provenance) vs fully lazy (PROVision-style re-execution per input).
func BenchmarkFig9aQueryTwitter(b *testing.B) {
	benchQueries(b, workload.TwitterScenarios())
}

// BenchmarkFig9bQueryDBLP regenerates Fig. 9(b) for D1–D5.
func BenchmarkFig9bQueryDBLP(b *testing.B) {
	benchQueries(b, workload.DBLPScenarios())
}

// BenchmarkTitianComparison regenerates Sec. 7.3.4: the flat-data workload
// (filter "2015", union of articles and inproceedings) without capture, with
// Titian-style lineage capture, and with Pebble's structural capture.
func BenchmarkTitianComparison(b *testing.B) {
	scale := workload.DefaultScale(benchGB)
	inputs := experiments.FlatDBLPInputs(scale, 4)
	build := experiments.FlatPipeline
	opts := engine.Options{Partitions: 4}
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(build(), inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("titian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := lineage.Capture(build(), inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pebble", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := provenance.Capture(build(), inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPerOperatorOverhead regenerates the per-operator analysis of
// Sec. 7.3.1: each operator in isolation, without and with capture.
func BenchmarkPerOperatorOverhead(b *testing.B) {
	scale := workload.DefaultScale(benchGB)
	inputs := workload.TwitterInput(scale, 4)
	opts := engine.Options{Partitions: 4}
	for _, m := range experiments.MicroPipelines() {
		m := m
		b.Run(m.Name+"/spark", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(m.Build(), inputs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(m.Name+"/pebble", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := provenance.Capture(m.Build(), inputs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
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
// running-example pipeline (T3): no capture, Titian-style lineage (ids
// only), and full structural provenance (ids + positions + schema paths).
func BenchmarkAblationCaptureMode(b *testing.B) {
	sc, err := workload.ByName("T3")
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(b, sc)
	opts := engine.Options{Partitions: 4}
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(sc.Build(), inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lineage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := lineage.Capture(sc.Build(), inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("structural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := provenance.Capture(sc.Build(), inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTracerReuse quantifies the query-side optimisation of a
// shared Tracer (cached association indexes) against rebuilding the indexes
// on every query — the paper's "optimize provenance querying" future work.
func BenchmarkAblationTracerReuse(b *testing.B) {
	sc, err := workload.ByName("T1")
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(b, sc)
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
		parts := parts
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
// logical/physical split of schedule.go. cmd/benchrunner -exp scaling prints
// the same sweep as a table.
func BenchmarkScalingWorkers(b *testing.B) {
	sc, err := workload.ByName("T2")
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(b, sc)
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		workers := workers
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

// BenchmarkProvenanceCodec measures persistence of a captured run.
func BenchmarkProvenanceCodec(b *testing.B) {
	sc, err := workload.ByName("T3")
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(b, sc)
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
