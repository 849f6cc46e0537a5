package engine_test

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

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

// BenchmarkEngineSweep is engine.plain_run_s and engine.run_alloc_mb without
// the daemon: one plain run of every scenario. `make bench-engine`.
func BenchmarkEngineSweep(b *testing.B) {
	eachSweep(b, func(b *testing.B, scs []workload.Scenario, inputs map[string]map[string]*engine.Dataset) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			for _, sc := range scs {
				if _, err := engine.Run(sc.Build(), inputs[sc.Name], engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCaptureSweep is the capture side of the same sweep: every scenario
// run under a provenance.Collector, the run merged (Finish) and encoded
// (WriteTo) — what a capture job adds to the plain run before its artifact
// exists. rows is the association rows the sweep captured; B/row is what one
// of them costs in allocation: the sweep's bytes less those of a plain sweep
// (provenance.capture_alloc_mb, with the encode), per row. `make bench-capture`.
func BenchmarkCaptureSweep(b *testing.B) {
	eachSweep(b, func(b *testing.B, scs []workload.Scenario, inputs map[string]map[string]*engine.Dataset) {
		var rows int
		var allocated uint64 // by the capture sweeps, less the plain ones
		sweepBytes := func(timed bool, run func(sc workload.Scenario)) uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if timed {
				b.StartTimer()
			}
			for _, sc := range scs {
				run(sc)
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
	})
}

// TestStagedRunsStayLean is the allocation guard of the stage executor: T2
// (three flattens into a select) and T4 (two staged branches into a union)
// at 2 000 tweets on one worker may not allocate more per input tweet than
// they did when unary chains stopped materialising their inner operators
// (1 393 and 5 568 bytes; 9 230 and 14 200 before), plus 15 %. Materialising
// one inner flatten again costs either several times that margin.
func TestStagedRunsStayLean(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops the stage scratch at random under the race detector")
	}
	const tweets = 2000
	// A collection between the warm-up and the measured run would empty the
	// stage scratch pool, and a move to another P would miss it: either has
	// the run allocate its scratch again.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := map[string]float64{"T2": 1393 * 1.15, "T4": 5568 * 1.15} // bytes per input tweet
	for _, sc := range workload.TwitterScenarios() {
		limit, ok := budget[sc.Name]
		if !ok {
			continue
		}
		inputs := workload.TwitterInput(workload.Scale{SimGB: 1, TweetsPerGB: tweets, Seed: 42}, engine.DefaultPartitions)
		run := func() {
			if _, err := engine.Run(sc.Build(), inputs, engine.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		run() // stage scratch warm, as in a daemon past its first job
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		perTweet := float64(after.TotalAlloc-before.TotalAlloc) / tweets
		t.Logf("%s: %.0f bytes allocated per input tweet (limit %.0f)", sc.Name, perTweet, limit)
		if perTweet > limit {
			t.Errorf("%s allocates %.0f bytes per input tweet, over %.0f: an inner operator of a stage is being materialised again", sc.Name, perTweet, limit)
		}
	}
}
