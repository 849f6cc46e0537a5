// Determinism regression tests for the logical/physical split (schedule.go):
// logical partitioning fixes results, identifiers, and captured provenance;
// the physical worker count may only change wall time. Every Twitter and
// DBLP scenario must produce byte-identical output for any Workers setting.
package pebble_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pebble/internal/engine"
	"pebble/internal/lazy"
	"pebble/internal/lineage"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
	"pebble/internal/workload"
)

// workerOpts are the options of the scenarios' determinism runs.
func workerOpts(workers int) engine.Options { return engine.Options{Partitions: 4, Workers: workers} }

// captureFingerprint runs a scenario under provenance capture and returns
// everything that must be schedule-independent: output rows (ids + values),
// per-source row ids, and the serialized run bytes.
func captureFingerprint(t *testing.T, sc workload.Scenario, inputs map[string]*engine.Dataset, opts engine.Options) (*engine.Result, []byte) {
	t.Helper()
	res, run, err := provenance.Capture(sc.Build(), inputs, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", opts.Workers, err)
	}
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatalf("workers=%d: serialize run: %v", opts.Workers, err)
	}
	return res, buf.Bytes()
}

func sameRows(a, b *engine.Dataset) error {
	ra, rb := a.Rows(), b.Rows()
	if len(ra) != len(rb) {
		return fmt.Errorf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			return fmt.Errorf("row %d: id %d vs %d", i, ra[i].ID, rb[i].ID)
		}
		if !nested.Equal(ra[i].Value, rb[i].Value) {
			return fmt.Errorf("row %d (id %d): values differ", i, ra[i].ID)
		}
	}
	return nil
}

// lineageFingerprint captures Titian-style lineage and renders the output
// rows plus the full-result backtracing join canonically.
func lineageFingerprint(t *testing.T, sc workload.Scenario, inputs map[string]*engine.Dataset, opts engine.Options) string {
	t.Helper()
	pipe := sc.Build()
	res, run, err := lineage.Capture(pipe, inputs, opts)
	if err != nil {
		t.Fatalf("lineage workers=%d: %v", opts.Workers, err)
	}
	var b strings.Builder
	outIDs := make([]int64, 0, len(res.Output.Rows()))
	for _, row := range res.Output.Rows() {
		fmt.Fprintf(&b, "%d:%s\n", row.ID, row.Value)
		outIDs = append(outIDs, row.ID)
	}
	traced, err := run.Trace(pipe.Sink().ID(), outIDs)
	if err != nil {
		t.Fatalf("lineage trace workers=%d: %v", opts.Workers, err)
	}
	oids := make([]int, 0, len(traced))
	for oid := range traced {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	for _, oid := range oids {
		fmt.Fprintf(&b, "src %d: %v\n", oid, traced[oid])
	}
	return b.String()
}

// lazyFingerprint answers the scenario's provenance question lazily and
// renders the per-source contributing structures canonically.
func lazyFingerprint(t *testing.T, sc workload.Scenario, inputs map[string]*engine.Dataset, opts engine.Options) string {
	t.Helper()
	res, _, err := lazy.Query(sc.Build, inputs, sc.Pattern, opts)
	if err != nil {
		t.Fatalf("lazy workers=%d: %v", opts.Workers, err)
	}
	oids := make([]int, 0, len(res.BySource))
	for oid := range res.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	var b strings.Builder
	for _, oid := range oids {
		fmt.Fprintf(&b, "src %d:\n", oid)
		st := res.BySource[oid]
		for _, it := range st.Items {
			fmt.Fprintf(&b, "  %d (orig %d): %s\n", it.ID, res.OrigIDs[oid][it.ID], it.Tree)
		}
	}
	return b.String()
}

// TestLineageAndLazyDeterminismAcrossWorkers extends the eager determinism
// regression to the other capture modes: Titian-style lineage runs and
// PROVision-style lazy queries must also be byte-identical for any Workers
// setting.
func TestLineageAndLazyDeterminismAcrossWorkers(t *testing.T) {
	workersList := []int{1, 2, runtime.NumCPU()}
	scenarios := append(workload.TwitterScenarios(), workload.DBLPScenarios()...)
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			inputs := sc.Input(workload.DefaultScale(1), 4)
			baseLin := lineageFingerprint(t, sc, inputs, workerOpts(workersList[0]))
			baseLazy := lazyFingerprint(t, sc, inputs, workerOpts(workersList[0]))
			for _, workers := range workersList[1:] {
				if lin := lineageFingerprint(t, sc, inputs, workerOpts(workers)); lin != baseLin {
					t.Errorf("workers=%d: lineage fingerprint differs from workers=%d", workers, workersList[0])
				}
				if lz := lazyFingerprint(t, sc, inputs, workerOpts(workers)); lz != baseLazy {
					t.Errorf("workers=%d: lazy fingerprint differs from workers=%d", workers, workersList[0])
				}
			}
		})
	}
}

// TestDeterminismAcrossWorkers runs T1–T5 and D1–D5 with Workers ∈ {1, 2,
// NumCPU} and asserts identical results, identifiers, and captured runs.
// Running under `go test -race` additionally exercises the DAG scheduler,
// the worker pool, and the parallel shuffle for data races.
func TestDeterminismAcrossWorkers(t *testing.T) {
	workersList := []int{1, 2, runtime.NumCPU()}
	scenarios := append(workload.TwitterScenarios(), workload.DBLPScenarios()...)
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			inputs := sc.Input(workload.DefaultScale(1), 4)
			baseRes, baseRun := captureFingerprint(t, sc, inputs, workerOpts(workersList[0]))
			for _, workers := range workersList[1:] {
				res, runBytes := captureFingerprint(t, sc, inputs, workerOpts(workers))
				if err := sameRows(baseRes.Output, res.Output); err != nil {
					t.Errorf("workers=%d: output differs from workers=%d: %v", workers, workersList[0], err)
				}
				if len(res.Sources) != len(baseRes.Sources) {
					t.Fatalf("workers=%d: %d sources, want %d", workers, len(res.Sources), len(baseRes.Sources))
				}
				for oid, base := range baseRes.Sources {
					got, ok := res.Sources[oid]
					if !ok {
						t.Fatalf("workers=%d: missing source %d", workers, oid)
					}
					if err := sameRows(base, got); err != nil {
						t.Errorf("workers=%d: source %d differs: %v", workers, oid, err)
					}
				}
				if !bytes.Equal(baseRun, runBytes) {
					t.Errorf("workers=%d: serialized provenance run differs from workers=%d (%d vs %d bytes)",
						workers, workersList[0], len(runBytes), len(baseRun))
				}
			}
		})
	}
}

// TestSkewedJoinDeterminismAcrossWorkers: a shuffle join whose hot key has
// 100 build rows and 200 probe rows puts 20 000 matches into one bucket,
// more than a join morsel takes, so the bucket's probe rows are cut into
// chunks that run on every worker; so does a broadcast join with one probe
// partition. At Workers 1, 2 and 4, inner and left outer, shuffled and
// broadcast, a plain run and every capture mode must give the same results,
// identifiers and captured runs.
func TestSkewedJoinDeterminismAcrossWorkers(t *testing.T) {
	var users, mentions []nested.Value
	for i := 0; i < 150; i++ {
		uid := "hot"
		if i%3 == 2 {
			uid = fmt.Sprintf("u%d", i) // matched when i%15 == 14, else left unmatched
		}
		users = append(users, nested.Item(nested.F("uid", nested.StringVal(uid)), nested.F("uname", nested.Int(int64(i)))))
	}
	for i := 0; i < 250; i++ {
		author := "hot"
		if i%5 == 4 {
			author = fmt.Sprintf("u%d", i)
		}
		mentions = append(mentions, nested.Item(nested.F("author", nested.StringVal(author)), nested.F("txt", nested.Int(int64(i)))))
	}
	inputs := func() map[string]*engine.Dataset {
		gen := engine.NewIDGen(1)
		return map[string]*engine.Dataset{
			"users":    engine.NewDataset("users", users, 3, gen),
			"mentions": engine.NewDataset("mentions", mentions, 3, gen),
		}
	}
	shuffled := engine.Options{Partitions: 4, BroadcastJoinThreshold: -1}
	for _, v := range []struct {
		name      string
		leftOuter bool
		opts      engine.Options
	}{
		{"skewed/leftOuter=false", false, shuffled},
		{"skewed/leftOuter=true", true, shuffled},
		{"skewed/broadcast", false, engine.Options{Partitions: 1}}, // one probe partition holds every hot probe row
	} {
		leftOuter := v.leftOuter
		sc := workload.Scenario{
			Name: v.name,
			Build: func() *engine.Pipeline {
				p := engine.NewPipeline()
				l, r := p.Source("users"), p.Source("mentions")
				if leftOuter {
					p.LeftJoin(l, r, engine.Col("uid"), engine.Col("author"))
				} else {
					p.Join(l, r, engine.Col("uid"), engine.Col("author"))
				}
				return p
			},
			Pattern: treepattern.New(treepattern.Child("txt").WithEq(nested.Int(3))),
		}
		t.Run(sc.Name, func(t *testing.T) {
			opts := func(workers int) engine.Options {
				o := v.opts
				o.Workers = workers
				return o
			}
			plain, err := engine.Run(sc.Build(), inputs(), opts(1))
			if err != nil {
				t.Fatal(err)
			}
			if plain.Output.Len() < 20000 {
				t.Fatalf("%d rows: the hot key no longer gives 20 000 matches", plain.Output.Len())
			}
			baseRes, baseRun := captureFingerprint(t, sc, inputs(), opts(1))
			baseLin := lineageFingerprint(t, sc, inputs(), opts(1))
			baseLazy := lazyFingerprint(t, sc, inputs(), opts(1))
			if err := sameRows(plain.Output, baseRes.Output); err != nil {
				t.Errorf("capture output differs from the plain run's: %v", err)
			}
			for _, workers := range []int{2, 4} {
				res, err := engine.Run(sc.Build(), inputs(), opts(workers))
				if err != nil {
					t.Fatal(err)
				}
				if err := sameRows(plain.Output, res.Output); err != nil {
					t.Errorf("workers=%d: plain output differs from workers=1: %v", workers, err)
				}
				capRes, runBytes := captureFingerprint(t, sc, inputs(), opts(workers))
				if err := sameRows(baseRes.Output, capRes.Output); err != nil {
					t.Errorf("workers=%d: capture output differs from workers=1: %v", workers, err)
				}
				if !bytes.Equal(baseRun, runBytes) {
					t.Errorf("workers=%d: serialized provenance run differs from workers=1 (%d vs %d bytes)", workers, len(runBytes), len(baseRun))
				}
				if lin := lineageFingerprint(t, sc, inputs(), opts(workers)); lin != baseLin {
					t.Errorf("workers=%d: lineage fingerprint differs from workers=1", workers)
				}
				if lz := lazyFingerprint(t, sc, inputs(), opts(workers)); lz != baseLazy {
					t.Errorf("workers=%d: lazy fingerprint differs from workers=1", workers)
				}
			}
		})
	}
}
