package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before it counts as a regression
// (0 for per-layer metrics, which are reported and never gated). Exact marks
// counts that repeat exactly on the same inputs, whatever the worker count.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

// contractEndToEnd are the end-to-end metrics every workload reports and
// BENCHMARK.json gates. The builder's contract wants one metric list for all
// workloads, each metric non-zero on each, so the issue's workload-specific
// names (clientMetrics below) are reported beside them but not listed there.
var contractEndToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "artifact_bytes_per_row", Unit: "bytes", Better: "lower", Bound: 0.10},
}

// clientMetrics are the issue's client-observed metrics that exist on some
// workloads only. An untraced run prints the ones its workload has.
var clientMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "plain_sweep_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "capture_sweep_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "trace_sweep_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "trace_point_p50_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "trace_point_p95_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "cycle_twitter_p50_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "cycle_dblp_p50_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "upload_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.10},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower", Bound: 0},
}

var opBusyTypes = []string{"filter", "select", "flatten", "join", "aggregate", "union", "map"}

// perLayer are the metrics of single layers, named after the repo's
// packages. A traced run reports all of them; the ones a workload does not
// exercise read 0 there, which is the point of having separate workloads.
var perLayer = func() []metricDef {
	d := []metricDef{
		{Name: "nested.parse_s", Unit: "s", Better: "lower"},
		{Name: "nested.parse_alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "engine.dataset_build_s", Unit: "s", Better: "lower"},
		{Name: "engine.plain_run_s", Unit: "s", Better: "lower"},
		{Name: "engine.run_alloc_mb", Unit: "MB", Better: "lower"},
	}
	for _, t := range opBusyTypes {
		d = append(d, metricDef{Name: "engine.op_busy_s." + t, Unit: "s", Better: "lower"})
	}
	return append(d, []metricDef{
		{Name: "engine.rows_in", Unit: "count", Better: "lower", Exact: true},
		{Name: "engine.rows_out", Unit: "count", Better: "lower", Exact: true},
		{Name: "engine.keys_hashed", Unit: "count", Better: "lower", Exact: true},
		{Name: "engine.expr_evals", Unit: "count", Better: "lower", Exact: true},
		{Name: "provenance.capture_delta_s", Unit: "s", Better: "lower"},
		{Name: "provenance.capture_alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "provenance.collector_finish_s", Unit: "s", Better: "lower"},
		{Name: "provenance.assoc_rows", Unit: "count", Better: "lower", Exact: true},
		{Name: "provenance.prov_bytes", Unit: "bytes", Better: "lower", Exact: true},
		{Name: "provenance.encode_s", Unit: "s", Better: "lower"},
		{Name: "provenance.pbl_bytes", Unit: "bytes", Better: "lower", Exact: true},
		{Name: "provenance.read_lazy_s", Unit: "s", Better: "lower"},
		{Name: "provenance.decoded_ratio", Unit: "ratio", Better: "lower", Exact: true},
		{Name: "backtrace.index_build_s", Unit: "s", Better: "lower"},
		{Name: "backtrace.idx_bytes", Unit: "bytes", Better: "lower", Exact: true},
		{Name: "backtrace.index_load_s", Unit: "s", Better: "lower"},
		{Name: "backtrace.trace_s", Unit: "s", Better: "lower"},
		{Name: "backtrace.trace_alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "backtrace.traced_items", Unit: "count", Better: "lower", Exact: true},
		{Name: "treepattern.compile_s", Unit: "s", Better: "lower"},
		{Name: "treepattern.match_s", Unit: "s", Better: "lower"},
		{Name: "treepattern.matched_items", Unit: "count", Better: "lower", Exact: true},
		{Name: "core.result_encode_s", Unit: "s", Better: "lower"},
		{Name: "core.result_bytes", Unit: "bytes", Better: "lower", Exact: true},
		{Name: "server.queue_wait_s", Unit: "s", Better: "lower"},
		{Name: "server.job_run_s", Unit: "s", Better: "lower"},
		{Name: "server.persist_residual_s", Unit: "s", Better: "lower"},
		{Name: "server.upload_residual_s", Unit: "s", Better: "lower"},
		{Name: "server.http_residual_s", Unit: "s", Better: "lower"},
		{Name: "server.heap_inuse_end_mb", Unit: "MB", Better: "lower"},
		{Name: "server.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "server.rejected_429", Unit: "count", Better: "lower"},
		{Name: "sdk.poll_lag_s", Unit: "s", Better: "lower"},
		{Name: "sdk.result_decode_s", Unit: "s", Better: "lower"},
		{Name: "obs.recorder_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "paper.capture_overhead_ratio", Unit: "ratio", Better: "lower"},
	}...)
}()

// row is one reported metric of one run. Value is the figure the metric is
// judged by; Median, Q1, Q3 and N describe the samples it was computed from
// (for round_s and the sweeps, the per-round sums).
type row struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	N        int     `json:"n"`
	Bound    float64 `json:"bound,omitempty"`
	Better   string  `json:"better"`
	Exact    bool    `json:"exact,omitempty"`
	// Contract marks the rows that go into the result line.
	Contract bool `json:"contract,omitempty"`
}

func newRow(def metricDef, workload string, value float64, samples []float64, contract bool) row {
	r := row{
		Name: def.Name, Unit: def.Unit, Workload: workload, Value: value,
		Bound: def.Bound, Better: def.Better, Exact: def.Exact, Contract: contract,
		Median: value, Q1: value, Q3: value, N: 1,
	}
	if len(samples) > 0 {
		r.Q1, r.Median, r.Q3 = quartiles(samples)
		r.N = len(samples)
	}
	return r
}

// quartiles returns the first quartile, median and third quartile of v by
// linear interpolation between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quantile reads the q-quantile off sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// spread is the inter-quartile distance of a row's samples as a share of
// their median.
func (r row) spread() float64 {
	if r.Median == 0 {
		return 0
	}
	return (r.Q3 - r.Q1) / math.Abs(r.Median)
}

// runResult is one measured run of one workload.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Rounds    int      `json:"rounds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Unresolved is set when the run cannot say anything about its workload
	// (mixed_clients with fewer than two schedulable CPUs).
	Unresolved bool     `json:"unresolved,omitempty"`
	Notes      []string `json:"notes,omitempty"`
	Rows       []row    `json:"rows"`
	// Ops lists, for a traced run, every operation's client-observed
	// latency beside the sum of its library layer spans.
	Ops []opSummary `json:"ops,omitempty"`
}

// contractLine renders the result line of the builder's contract.
func (r *runResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, x := range r.Rows {
		if x.Contract {
			metrics[x.Name] = mv{Value: x.Value, Unit: x.Unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(out)
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-18s %-34s %14s %-6s %14s %14s %14s %5s\n", "workload", "metric", "value", "unit", "median", "q1", "q3", "n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-34s %14.6g %-6s %14.6g %14.6g %14.6g %5d\n", r.Workload, r.Name, r.Value, r.Unit, r.Median, r.Q1, r.Q3, r.N)
	}
}

func printSuite(w io.Writer, s *suiteResult) {
	fmt.Fprintf(w, "commit %s  %s  num_cpu %d  GOMAXPROCS %d  seed %d  seconds %g  size %s\n",
		s.Commit, s.GoVersion, s.NumCPU, s.GOMAXPROCS, s.Seed, s.Seconds, s.Size.Name)
	for _, r := range s.Runs {
		fmt.Fprintf(w, "\n== %s traced=%v rounds=%d attempted=%d failed=%d\n", r.Workload, r.Traced, r.Rounds, r.Attempted, r.Failed)
		for _, n := range r.Notes {
			fmt.Fprintln(w, "note:", n)
		}
		for _, f := range r.Failures {
			fmt.Fprintln(w, "FAILED:", f)
		}
		printRows(w, r.Rows)
	}
}

// printComparison prints one line per workload and end-to-end metric of two
// suite results (a the parent, b the change) and every exact counter that
// differs. It returns false when a metric BENCHMARK.json gates is worse than
// its bound allows, or differs by more than its bound in either direction
// when both are runs of the same code, or when an exact counter differs. The
// issue's workload-specific client metrics get a verdict too, for the reader.
func printComparison(w io.Writer, a, b *suiteResult, sameCode bool) bool {
	find := func(workload string, traced bool, name string) (row, bool) {
		for _, r := range b.Runs {
			if r.Workload != workload || r.Traced != traced {
				continue
			}
			for _, x := range r.Rows {
				if x.Name == name {
					return x, true
				}
			}
		}
		return row{}, false
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s %9s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "A-spread", "verdict")
	for _, ra := range a.Runs {
		for _, x := range ra.Rows {
			y, found := find(ra.Workload, ra.Traced, x.Name)
			if !found {
				continue
			}
			switch {
			case x.Exact:
				if x.Value != y.Value {
					ok = false
					fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g   exact counter differs\n", x.Workload, x.Name, x.Value, y.Value)
				}
			case !ra.Traced:
				verdict := verdictOf(x, y, ra.Unresolved)
				if x.Contract && (verdict == "worse" || (sameCode && verdict == "better")) {
					ok = false
				}
				delta := 0.0
				if x.Value != 0 {
					delta = (y.Value - x.Value) / x.Value
				}
				// Delta and spread are shares of A's value, printed beside it.
				fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g %+8.1f%% %6.1f%% %8.1f%%  %s\n",
					x.Workload, x.Name, x.Value, y.Value, 100*delta, 100*x.Bound, 100*x.spread(), verdict)
			}
		}
	}
	return ok
}

// verdictOf judges b against a for one end-to-end metric.
func verdictOf(a, b row, unresolved bool) string {
	if a.Value == b.Value {
		return "within-bound"
	}
	if a.Value == 0 {
		if b.Value > 0 && a.Better == "lower" {
			return "worse"
		}
		return "within-bound"
	}
	worse := (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		worse = -worse
	}
	switch {
	case unresolved || a.spread() > a.Bound:
		return "unresolved"
	case worse > a.Bound:
		return "worse"
	case worse < -a.Bound:
		return "better"
	}
	return "within-bound"
}
