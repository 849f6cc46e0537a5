package engine_test

import (
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// sweepInputs generates the inputs of a scenario sweep the way the client
// benchmark does (bench/workloads.go): one tweets dataset for T1–T5, one DBLP
// dataset for D1–D5 and a smaller one for D3, at DefaultPartitions.
func sweepInputs(scs []workload.Scenario, tweets, records, d3Records int) map[string]map[string]*engine.Dataset {
	scale := func(tw, rec int) workload.Scale {
		return workload.Scale{SimGB: 1, TweetsPerGB: tw, RecordsPerGB: rec, Seed: 42}
	}
	sized := map[string]map[string]*engine.Dataset{}
	inputs := make(map[string]map[string]*engine.Dataset, len(scs))
	for _, sc := range scs {
		key, gen := "dblp", func() map[string]*engine.Dataset {
			return workload.DBLPInput(scale(0, records), engine.DefaultPartitions)
		}
		switch {
		case sc.Dataset == "twitter":
			key, gen = "twitter", func() map[string]*engine.Dataset {
				return workload.TwitterInput(scale(tweets, 0), engine.DefaultPartitions)
			}
		case sc.Name == "D3":
			key, gen = "dblp3", func() map[string]*engine.Dataset {
				return workload.DBLPInput(scale(0, d3Records), engine.DefaultPartitions)
			}
		}
		if sized[key] == nil {
			sized[key] = gen()
		}
		inputs[sc.Name] = sized[key]
	}
	return inputs
}

// eachSweep runs body as a sub-benchmark per scenario sweep — T1–T5 and D1–D5
// at the twitter_capture and dblp_capture sizes (-short: a twentieth) — under
// the benchmark's collector policy (bench/README.md: a full collection before
// the timed operation, the collector off inside it).
func eachSweep(b *testing.B, body func(b *testing.B, scs []workload.Scenario, inputs map[string]map[string]*engine.Dataset)) {
	tweets, records, d3Records := 8000, 60000, 12000
	if testing.Short() {
		tweets, records, d3Records = 400, 3000, 600
	}
	for _, sweep := range []struct {
		name string
		scs  []workload.Scenario
	}{{"twitter", workload.TwitterScenarios()}, {"dblp", workload.DBLPScenarios()}} {
		b.Run(sweep.name, func(b *testing.B) {
			inputs := sweepInputs(sweep.scs, tweets, records, d3Records)
			b.ReportAllocs()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			body(b, sweep.scs, inputs)
		})
	}
}

// reportScenarios reports every scenario's share of a sweep, as the metric
// "<scenario>-ms" per sweep: one scenario that takes half the sweep shows
// without a profiler.
func reportScenarios(b *testing.B, scs []workload.Scenario, took []time.Duration) {
	for k, sc := range scs {
		b.ReportMetric(float64(took[k].Microseconds())/1000/float64(b.N), sc.Name+"-ms")
	}
}

// BenchmarkEngineSweep is engine.plain_run_s and engine.run_alloc_mb without
// the daemon: one plain run of every scenario, and each scenario's time.
// `make bench-engine`.
func BenchmarkEngineSweep(b *testing.B) {
	eachSweep(b, func(b *testing.B, scs []workload.Scenario, inputs map[string]map[string]*engine.Dataset) {
		took := make([]time.Duration, len(scs))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			for k, sc := range scs {
				start := time.Now()
				if _, err := engine.Run(sc.Build(), inputs[sc.Name], engine.Options{}); err != nil {
					b.Fatal(err)
				}
				took[k] += time.Since(start)
			}
		}
		reportScenarios(b, scs, took)
	})
}

// BenchmarkCaptureSweep is the capture side of the same sweep: every scenario
// run under a provenance.Collector, the run merged, encoded and loaded lazily
// (Finish) and written (WriteTo) — what a capture job adds to the plain run
// before its artifact exists. rows is the association rows the sweep
// captured; B/row is what one of them costs in allocation: the sweep's bytes
// less those of a plain sweep (provenance.capture_alloc_mb, with the encode),
// per row; each scenario's capture time is reported beside them. `make
// bench-capture`.
func BenchmarkCaptureSweep(b *testing.B) {
	eachSweep(b, func(b *testing.B, scs []workload.Scenario, inputs map[string]map[string]*engine.Dataset) {
		var rows int
		var allocated uint64 // by the capture sweeps, less the plain ones
		took := make([]time.Duration, len(scs))
		sweepBytes := func(timed bool, run func(sc workload.Scenario)) uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if timed {
				b.StartTimer()
			}
			for k, sc := range scs {
				start := time.Now()
				run(sc)
				if timed {
					took[k] += time.Since(start)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		b.ResetTimer()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			allocated += sweepBytes(true, func(sc workload.Scenario) {
				_, run, err := provenance.Capture(sc.Build(), inputs[sc.Name], engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := run.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
				for _, op := range run.Operators() {
					rows += op.AssocCount()
				}
			})
			allocated -= sweepBytes(false, func(sc workload.Scenario) {
				if _, err := engine.Run(sc.Build(), inputs[sc.Name], engine.Options{}); err != nil {
					b.Fatal(err)
				}
			})
		}
		b.ReportMetric(float64(rows)/float64(b.N), "rows")
		b.ReportMetric(float64(allocated)/float64(rows), "B/row")
		reportScenarios(b, scs, took)
	})
}

// TestScenariosStayLean is the allocation guard of whole runs: T2 and T4 at
// 2 000 tweets, T5 at 2 000 and at 8 000 tweets, D1 and D5 at 6 000 records,
// on one worker with every join shuffled (T2 and T4 have none), each measured
// per input row against two budgets, plus 15 %. T5's hot join bucket holds
// 296 738 matches at 8 000 tweets, which the join cuts into 18 chunks
// (join_vector.go), and 21 465 in 2 chunks at 2 000.
//
//   - Bytes: what the run allocated once unary chains stopped materialising
//     their inner operators (T2 / T4: 1 393 / 4 090; 9 230 / 14 200 before),
//     once the shuffle wrote each row to its bucket once and derived shapes
//     were shared (T5 / D1 / D5: 4 961 / 383 / 1 208; 5 285 / 447 / 1 918
//     before), and once a Value fell from 64 to 32 bytes (T2 / T4 / T5 /
//     T5@8000 / D1 / D5: 749 / 2 399 / 2 636 / 7 035 / 252 / 717; 1 394 /
//     4 090 / 4 974 / 13 622 / 386 / 1 211 before). Materialising one inner
//     flatten again, writing keyed rows twice, deriving a shape per row or a
//     field more in Value costs more than the margin.
//   - Allocations: a handful per morsel and per operator; a join chunk is a
//     morsel, with its arena (T5 at 8 000 tweets: 0.186; 0.183 at one morsel
//     per bucket). One more allocation per row,
//     however small, adds at least 1 — which the byte budget, at a few
//     percent of a row's bytes, would miss.
func TestScenariosStayLean(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops the stage scratch at random under the race detector")
	}
	const tweets, records = 2000, 6000
	// A collection between the warm-up and the measured run would empty the
	// stage scratch pool, and a move to another P would miss it: either has
	// the run allocate its scratch again.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scs := map[string]workload.Scenario{}
	for _, sc := range append(workload.TwitterScenarios(), workload.DBLPScenarios()...) {
		scs[sc.Name] = sc
	}
	for _, row := range []struct {
		name          string  // the scenario, then "@" and its input rows where not the default
		bytes, allocs float64 // per input row, before the margin
	}{
		{"T2", 749, 0.168},
		{"T4", 2399, 0.483},
		{"T5", 2636, 0.597},
		{"T5@8000", 7035, 0.186},
		{"D1", 252, 0.297},
		{"D5", 717, 1.282},
	} {
		t.Run(row.name, func(t *testing.T) {
			scenario, n, _ := strings.Cut(row.name, "@")
			sc := scs[scenario]
			rows, in := tweets, func(n int) map[string]*engine.Dataset {
				return workload.TwitterInput(workload.Scale{SimGB: 1, TweetsPerGB: n, Seed: 42}, engine.DefaultPartitions)
			}
			if sc.Dataset == "dblp" {
				rows, in = records, func(n int) map[string]*engine.Dataset {
					return workload.DBLPInput(workload.Scale{SimGB: 1, RecordsPerGB: n, Seed: 42}, engine.DefaultPartitions)
				}
			}
			if n != "" {
				rows, _ = strconv.Atoi(n)
			}
			inputs := in(rows)
			run := func() {
				if _, err := engine.Run(sc.Build(), inputs, engine.Options{Workers: 1, BroadcastJoinThreshold: -1}); err != nil {
					t.Fatal(err)
				}
			}
			run() // stage scratch warm, as in a daemon past its first job
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(rows)
			t.Logf("per input row: %.0f bytes (limit %.0f), %.3f allocations (limit %.3f)", bytes, row.bytes*1.15, allocs, row.allocs*1.15)
			if bytes > row.bytes*1.15 {
				t.Errorf("%.0f bytes per input row, over %.0f: an inner operator of a stage is materialised again, the shuffle writes rows twice, a shape is derived per row or a Value grew", bytes, row.bytes*1.15)
			}
			if allocs > row.allocs*1.15 {
				t.Errorf("%.3f allocations per input row, over %.3f: something allocates per row", allocs, row.allocs*1.15)
			}
		})
	}
}

// TestCaptureBytesPerAssocRow is the allocation guard of capture: what a
// provenance.Capture of T2 (2 000 tweets) and D1 (6 000 records) allocates
// beyond the plain run, per association row, on one worker with every join
// shuffled, against a budget plus 15 %. The capture's bytes are the
// association columns the engine writes, the collector's record of the
// morsels handed over, and Finish: the merged bag, the stream and its lazy
// load. The budgets are what capture allocated once the sink kept the
// engine's columns as they were handed over (T2 / D1: 36.4 / 23.0); copying
// every id into the collector's own columns, as before, cost 58.3 / 39.8.
func TestCaptureBytesPerAssocRow(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops the stage scratch at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range []struct {
		name   string
		inputs map[string]*engine.Dataset
		bytes  float64 // per association row, before the margin
	}{
		{"T2", workload.TwitterInput(workload.Scale{SimGB: 1, TweetsPerGB: 2000, Seed: 42}, engine.DefaultPartitions), 36.4},
		{"D1", workload.DBLPInput(workload.Scale{SimGB: 1, RecordsPerGB: 6000, Seed: 42}, engine.DefaultPartitions), 23.0},
	} {
		t.Run(row.name, func(t *testing.T) {
			sc, err := workload.ByName(row.name)
			if err != nil {
				t.Fatal(err)
			}
			opts := engine.Options{Workers: 1, BroadcastJoinThreshold: -1}
			allocated := func(run func()) uint64 {
				run() // stage scratch warm, as in a daemon past its first job
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			plain := allocated(func() {
				if _, err := engine.Run(sc.Build(), row.inputs, opts); err != nil {
					t.Fatal(err)
				}
			})
			var rows int
			captured := allocated(func() {
				_, run, err := provenance.Capture(sc.Build(), row.inputs, opts)
				if err != nil {
					t.Fatal(err)
				}
				rows = 0
				for _, op := range run.Operators() {
					rows += op.AssocCount()
				}
			})
			bytes := (float64(captured) - float64(plain)) / float64(rows)
			t.Logf("%d association rows, %.1f bytes each beyond the plain run (limit %.1f)", rows, bytes, row.bytes*1.15)
			if bytes > row.bytes*1.15 {
				t.Errorf("%.1f bytes per association row, over %.1f: the association ids are copied again between the engine and the stream", bytes, row.bytes*1.15)
			}
		})
	}
}
