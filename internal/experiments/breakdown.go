package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/obs"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// BreakdownRow is one operator of a per-operator capture breakdown: the
// operator's own wall time with and without provenance capture plus its
// deterministic work counters from the capture run.
type BreakdownRow struct {
	OID         int           `json:"oid"`
	Type        string        `json:"type"`
	Plain       time.Duration `json:"plain_ns"`   // per-rep operator time without capture
	Capture     time.Duration `json:"capture_ns"` // per-rep operator time with capture
	OverheadPct float64       `json:"overhead_pct"`
	RowsIn      int64         `json:"rows_in"`
	RowsOut     int64         `json:"rows_out"`
	ExprEvals   int64         `json:"expr_evals"`
	KeysHashed  int64         `json:"keys_hashed"`
	AssocRows   int64         `json:"assoc_rows"`
	ProvBytes   int64         `json:"prov_bytes"`
}

// BreakdownReport is the full per-operator breakdown of one scenario plus
// the match/backtrace split of one provenance query over the capture.
type BreakdownReport struct {
	Scenario string         `json:"scenario"`
	SimGB    int            `json:"sim_gb"`
	Ops      []BreakdownRow `json:"ops"`
	// QueryMatch and QueryBacktrace split one tree-pattern query's time into
	// its matching and backtracing phases (Sec. 7.3.3 discusses both).
	QueryMatch     time.Duration `json:"query_match_ns"`
	QueryBacktrace time.Duration `json:"query_backtrace_ns"`
}

// CaptureBreakdown attributes the capture overhead of one scenario to its
// individual operators: the pipeline runs Reps times plain and Reps times
// under capture, each with its own recorder, interleaved so allocator and
// scheduler drift cancels out. Counter totals divide exactly by Reps
// (counters are deterministic per run); timings are averaged.
func CaptureBreakdown(sc workload.Scenario, scale workload.Scale, cfg Config) (*BreakdownReport, error) {
	cfg = cfg.withDefaults()
	inputs := sc.Input(scale, cfg.Partitions)
	recPlain, recCapture := obs.NewRecorder(), obs.NewRecorder()
	optsPlain, optsCapture := cfg.options(), cfg.options()
	optsPlain.Recorder = recPlain
	optsCapture.Recorder = recCapture

	// Warm-up both paths without recorders.
	if _, err := engine.Run(sc.Build(), inputs, cfg.options()); err != nil {
		return nil, err
	}
	if _, _, err := provenance.Capture(sc.Build(), inputs, cfg.options()); err != nil {
		return nil, err
	}

	var lastRes *engine.Result
	var lastRun *provenance.Run
	var lastPipe *engine.Pipeline
	for i := 0; i < cfg.Reps; i++ {
		runtime.GC()
		if _, err := engine.Run(sc.Build(), inputs, optsPlain); err != nil {
			return nil, err
		}
		runtime.GC()
		pipe := sc.Build()
		res, run, err := provenance.Capture(pipe, inputs, optsCapture)
		if err != nil {
			return nil, err
		}
		lastRes, lastRun, lastPipe = res, run, pipe
	}

	// One observed query over the last capture for the match/backtrace split.
	if _, err := core.Reattached(lastPipe, lastRes, lastRun, nil, recCapture).Query(sc.Pattern); err != nil {
		return nil, err
	}

	plain, capture := recPlain.Snapshot(), recCapture.Snapshot()
	reps := int64(cfg.Reps)
	report := &BreakdownReport{
		Scenario:       sc.Name,
		SimGB:          scale.SimGB,
		QueryMatch:     capture.SpanTotal(obs.SpanPatternMatch),
		QueryBacktrace: capture.SpanTotal(obs.SpanBacktrace),
	}
	for _, op := range capture.Ops {
		row := BreakdownRow{
			OID:        op.OID,
			Type:       op.Type,
			Capture:    op.Elapsed / time.Duration(reps),
			RowsIn:     op.Counter(obs.RowsIn) / reps,
			RowsOut:    op.Counter(obs.RowsOut) / reps,
			ExprEvals:  op.Counter(obs.ExprEvals) / reps,
			KeysHashed: op.Counter(obs.KeysHashed) / reps,
			AssocRows:  op.Counter(obs.AssocRows) / reps,
			ProvBytes:  op.Counter(obs.ProvBytes) / reps,
		}
		if p, ok := plain.Op(op.OID); ok {
			row.Plain = p.Elapsed / time.Duration(reps)
		}
		if row.Plain > 0 {
			row.OverheadPct = 100 * float64(row.Capture-row.Plain) / float64(row.Plain)
		}
		report.Ops = append(report.Ops, row)
	}
	return report, nil
}

// RenderBreakdown renders a per-operator breakdown report.
func RenderBreakdown(title string, r *BreakdownReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-4s %-10s %12s %12s %9s %12s %12s %12s %12s\n",
		title, "op", "type", "plain", "capture", "ovh%", "rows_out", "assoc_rows", "prov_bytes", "expr_evals")
	for _, row := range r.Ops {
		fmt.Fprintf(&sb, "%-4d %-10s %12s %12s %8.1f%% %12d %12d %12d %12d\n",
			row.OID, row.Type, row.Plain.Round(time.Microsecond), row.Capture.Round(time.Microsecond),
			row.OverheadPct, row.RowsOut, row.AssocRows, row.ProvBytes, row.ExprEvals)
	}
	total := r.QueryMatch + r.QueryBacktrace
	if total > 0 {
		fmt.Fprintf(&sb, "query time: match %s (%.0f%%) + backtrace %s (%.0f%%)\n",
			r.QueryMatch.Round(time.Microsecond), 100*float64(r.QueryMatch)/float64(total),
			r.QueryBacktrace.Round(time.Microsecond), 100*float64(r.QueryBacktrace)/float64(total))
	}
	return sb.String()
}

// RecorderOverheadRow is the disabled-path cost of the observability layer:
// capture runs with a nil recorder vs with a recorder attached.
type RecorderOverheadRow struct {
	Scenario    string        `json:"scenario"`
	SimGB       int           `json:"sim_gb"`
	NilRecorder time.Duration `json:"nil_recorder_ns"`
	Attached    time.Duration `json:"attached_ns"`
	OverheadPct float64       `json:"overhead_pct"`
}

// RecorderOverhead measures what attaching a recorder costs a capture run —
// and, read the other way, confirms the nil-recorder path stays within the
// instrumentation budget (`make bench-overhead` gates on it). The recorder
// is reset between reps so its registry does not grow across measurements.
func RecorderOverhead(sc workload.Scenario, scale workload.Scale, cfg Config) (RecorderOverheadRow, error) {
	cfg = cfg.withDefaults()
	inputs := sc.Input(scale, cfg.Partitions)
	rec := obs.NewRecorder()
	attached := cfg.options()
	attached.Recorder = rec
	nilT, recT, err := measurePair(cfg,
		func() error {
			_, _, err := provenance.Capture(sc.Build(), inputs, cfg.options())
			return err
		},
		func() error {
			rec.Reset()
			_, _, err := provenance.Capture(sc.Build(), inputs, attached)
			return err
		})
	if err != nil {
		return RecorderOverheadRow{}, err
	}
	row := RecorderOverheadRow{Scenario: sc.Name, SimGB: scale.SimGB, NilRecorder: nilT, Attached: recT}
	if nilT > 0 {
		row.OverheadPct = 100 * float64(recT-nilT) / float64(nilT)
	}
	return row, nil
}
