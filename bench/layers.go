package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/obs"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
)

// layerSums accumulates one round's per-layer figures by metric name. Keys
// that start with "_" are intermediate sums, not metrics.
type layerSums map[string]float64

// libCapture is a capture the library made: what a daemon pipeline job pins
// and persists, held in memory.
type libCapture struct {
	pipeline *engine.Pipeline
	result   *engine.Result
	pbl, idx []byte
}

// replayer runs operations through the layers' public functions, one call
// per layer, under spans. Every operation gets a root span and its layer
// spans below it; layerSum is what the layer spans of the current operation
// add up to, for the comparison against the daemon's client-observed latency.
type replayer struct {
	ctx      context.Context
	tr       *trace
	sums     layerSums
	quiet    bool
	opID     string
	root     int
	layerSum time.Duration
}

// layer times fn as one layer span of the current operation.
func (r *replayer) layer(name, metric string, fn func()) time.Duration {
	_, end := r.tr.open(r.root, r.opID, "library", name)
	fn()
	d := end()
	r.layerSum += d
	if metric != "" {
		r.sums[metric] += d.Seconds()
	}
	return d
}

// begin opens the library root span of an operation, after a full
// collection and, with quiet set, with the collector off until the returned
// function ends the span: the replay follows the collector policy of the
// daemon pass it is compared with.
func (r *replayer) begin(o *op) func() {
	r.opID, r.layerSum = o.ID, 0
	restore := func() {}
	if r.quiet {
		restore = collectorOff(true)
	} else {
		runtime.GC()
	}
	var end func() time.Duration
	r.root, end = r.tr.open(0, o.ID, "library", "library:"+o.Class)
	return func() {
		end()
		restore()
		o.LayerSum = r.layerSum
	}
}

// allocMB runs fn and returns the megabytes it allocated, process-wide; the
// replay runs alone, so that is fn's own allocation.
func allocMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// plainRun replays a capture=false pipeline job: Session.RunContext with a
// recorder attached for the exact work counters.
func (r *replayer) plainRun(build func() (*engine.Pipeline, error), inputs map[string]*engine.Dataset, asLayer bool) (*engine.Result, error) {
	p, err := build()
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	sess := core.Session{Recorder: rec}
	var res *engine.Result
	before := r.layerSum
	r.sums["engine.run_alloc_mb"] += allocMB(func() {
		r.layer("engine.run", "engine.plain_run_s", func() { res, err = sess.RunContext(r.ctx, p, inputs) })
	})
	if !asLayer {
		// A reference run beside a capture: reported, but no part of the
		// operation the daemon executed.
		r.layerSum = before
	}
	if err != nil {
		return nil, err
	}
	for _, st := range res.Stats {
		r.sums["engine.op_busy_s."+string(st.Type)] += st.Elapsed.Seconds()
	}
	snap := rec.Snapshot()
	r.sums["engine.rows_in"] += float64(snap.Total(obs.RowsIn))
	r.sums["engine.rows_out"] += float64(snap.Total(obs.RowsOut))
	r.sums["engine.keys_hashed"] += float64(snap.Total(obs.KeysHashed))
	r.sums["engine.expr_evals"] += float64(snap.Total(obs.ExprEvals))
	return res, nil
}

// capture replays a capture pipeline job the way the daemon runs it:
// CaptureContext, WriteTo, the verifying lazy re-read, and the index sidecar.
func (r *replayer) capture(build func() (*engine.Pipeline, error), inputs map[string]*engine.Dataset) (*libCapture, error) {
	p, err := build()
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	sess := core.Session{Recorder: rec}
	var cap *core.Captured
	r.sums["_capture_alloc_mb"] += allocMB(func() {
		r.layer("provenance.capture", "_capture_s", func() { cap, err = sess.CaptureContext(r.ctx, p, inputs) })
	})
	if err != nil {
		return nil, err
	}
	snap := rec.Snapshot()
	r.sums["provenance.collector_finish_s"] += snap.SpanTotal(obs.SpanCollectorFinish).Seconds()
	r.sums["provenance.assoc_rows"] += float64(snap.Total(obs.AssocRows))
	r.sums["provenance.prov_bytes"] += float64(snap.Total(obs.ProvBytes))

	var pbl, idx bytes.Buffer
	r.layer("provenance.encode", "provenance.encode_s", func() { _, err = cap.Provenance.WriteTo(&pbl) })
	if err != nil {
		return nil, err
	}
	var run *provenance.Run
	r.layer("provenance.read_lazy", "provenance.read_lazy_s", func() { run, err = provenance.ReadRunLazy(pbl.Bytes()) })
	if err != nil {
		return nil, err
	}
	r.layer("backtrace.index_build", "backtrace.index_build_s", func() { _, err = backtrace.NewTracer(run).WriteIndexes(&idx) })
	if err != nil {
		return nil, err
	}
	r.sums["provenance.pbl_bytes"] += float64(pbl.Len())
	r.sums["backtrace.idx_bytes"] += float64(idx.Len())
	return &libCapture{pipeline: p, result: cap.Result, pbl: pbl.Bytes(), idx: idx.Bytes()}, nil
}

// traceAnswer is what a trace produced, for the comparison with the daemon.
type traceAnswer struct {
	matched int
	report  uint64
}

// traceJob replays a trace job the way the daemon runs it: lazy re-read of
// the artifact, sidecar load, pattern decode and compile, match, backtrace,
// and both result encodings.
func (r *replayer) traceJob(target *libCapture, patternJSON []byte) (traceAnswer, error) {
	var (
		run *provenance.Run
		err error
	)
	r.layer("provenance.read_lazy", "provenance.read_lazy_s", func() { run, err = provenance.ReadRunLazy(target.pbl) })
	if err != nil {
		return traceAnswer{}, err
	}
	tracer := backtrace.NewTracer(run)
	r.layer("backtrace.index_load", "backtrace.index_load_s", func() { err = tracer.LoadIndexes(target.idx) })
	if err != nil {
		return traceAnswer{}, err
	}
	pat := &treepattern.Pattern{}
	r.layer("treepattern.compile", "treepattern.compile_s", func() {
		if err = json.Unmarshal(patternJSON, pat); err == nil {
			pat.Compile()
		}
	})
	if err != nil {
		return traceAnswer{}, err
	}
	var matched *backtrace.Structure
	r.layer("treepattern.match", "treepattern.match_s", func() { matched = pat.Match(target.result.Output) })
	r.sums["treepattern.matched_items"] += float64(matched.Len())

	cap := core.Reattached(target.pipeline, target.result, run, tracer, nil)
	sink, ok := run.OpByID(provenance.OpID(target.pipeline.Sink().ID()))
	if !ok {
		return traceAnswer{}, fmt.Errorf("sink operator missing from reloaded provenance")
	}
	var qr *core.QueryResult
	r.sums["backtrace.trace_alloc_mb"] += allocMB(func() {
		r.layer("backtrace.trace", "backtrace.trace_s", func() { qr, err = cap.TraceAtContext(r.ctx, sink, matched) })
	})
	if err != nil {
		return traceAnswer{}, err
	}
	traced := 0
	for _, s := range qr.Traced.BySource {
		traced += s.Len()
	}
	r.sums["backtrace.traced_items"] += float64(traced)
	var js []byte
	var report string
	r.layer("core.result_encode", "core.result_encode_s", func() {
		js, err = qr.JSON()
		report = qr.Report()
	})
	if err != nil {
		return traceAnswer{}, err
	}
	r.sums["core.result_bytes"] += float64(len(js) + len(report))
	r.sums["_assoc_decoded"] += float64(run.AssocBytesDecoded())
	r.sums["_assoc_total"] += float64(run.AssocBytesTotal())
	return traceAnswer{matched: matched.Len(), report: hashString(report)}, nil
}

// uploadDataset replays a dataset upload: JSON-lines parse and dataset build.
func (r *replayer) uploadDataset(name string, data []byte) (*engine.Dataset, error) {
	var (
		vals []nested.Value
		err  error
	)
	r.sums["nested.parse_alloc_mb"] += allocMB(func() {
		r.layer("nested.parse", "nested.parse_s", func() { vals, err = nested.ParseJSONLines(data) })
	})
	if err != nil {
		return nil, err
	}
	var ds *engine.Dataset
	r.layer("engine.dataset_build", "engine.dataset_build_s", func() { ds = core.Session{}.NewDataset(name, vals, 0) })
	return ds, nil
}
