// Package obs is the execution observability layer: per-operator counters
// and monotonic span timings recorded during pipeline runs and provenance
// queries. The paper's whole evaluation (Sec. 7.3) is about overheads —
// capture time over baseline, provenance size, backtracing latency — and
// this package lets the system attribute those costs to individual
// operators from the inside instead of wrapping wall clocks around whole
// runs.
//
// Design constraints, in order:
//
//   - A nil *Recorder is the fast path: every method nil-checks its
//     receiver, so instrumented code calls unconditionally and a session
//     without a recorder pays one predictable branch per call site. Call
//     sites in the engine are bulk — once per partition morsel, never per
//     row — which keeps the disabled path well under the 2% budget that
//     `obs.recorder_overhead_ratio` of `go run ./bench -trace 1` reports.
//   - Counter totals are deterministic: they count data-dependent facts
//     (rows, association rows, bytes) that are byte-identical for every
//     Workers setting, and merging shards sums order-insensitively. Span
//     and per-operator timings are wall-clock and explicitly excluded from
//     determinism guarantees (Stats.Render(false) omits them).
//   - Lock-cheap recording: the operator registry is a map guarded by an
//     RWMutex (write-locked only when an operator registers), and the
//     counter cells are per-partition shards bumped with atomics — distinct
//     morsels hit distinct cache lines in the common case, and the atomics
//     keep rare shard collisions (an operator touching more partition
//     indexes than it announced) safe instead of racy. Shards are merged
//     into totals only at Snapshot time.
//
// The package depends on the standard library only and is imported by the
// engine, so it must not import any pebble package.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter enumerates the per-operator counters — the taxonomy of DESIGN.md
// §7. All counters are data-dependent and deterministic across worker
// counts.
type Counter uint8

const (
	// RowsIn counts the rows an operator consumed from its input(s).
	RowsIn Counter = iota
	// RowsOut counts the rows an operator produced.
	RowsOut
	// ExprEvals counts expression-node evaluations (static node count per
	// row, see engine.EvalOps — an upper bound under short-circuiting).
	ExprEvals
	// KeysHashed counts shuffle keys hashed (join, aggregate, distinct).
	KeysHashed
	// AssocRows counts provenance association rows written to the capture
	// sink (zero when capture is off).
	AssocRows
	// ProvBytes is the storage footprint of the captured provenance per
	// operator (the deterministic Sizes model of Fig. 8), recorded at
	// collector Finish.
	ProvBytes
	// BytesEncoded counts serialised codec bytes per operator, recorded once,
	// when collector Finish encodes the run.
	BytesEncoded

	// NumCounters is the number of counters (array size, not a counter).
	NumCounters
)

var counterNames = [NumCounters]string{
	"rows_in", "rows_out", "expr_evals", "keys_hashed",
	"assoc_rows", "prov_bytes", "enc_bytes",
}

// String returns the snake_case column name of the counter.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter?"
}

// Span enumerates the global phase timings recorded around whole stages
// rather than per operator.
type Span uint8

const (
	// SpanSchedule is one pipeline execution end to end (wave scheduling
	// plus all operator evals).
	SpanSchedule Span = iota
	// SpanCollectorFinish is the provenance collector's Finish: the shard
	// merge, the encode and the lazy load of the stream.
	SpanCollectorFinish
	// SpanPatternMatch is the tree-pattern matching phase of a query.
	SpanPatternMatch
	// SpanBacktrace is the backtracing walk of a query (Alg. 1).
	SpanBacktrace
	// SpanRunLoad is the deserialisation of a persisted provenance run,
	// opened by the reload call sites (daemon trace job, shell `load`) around
	// ReadRunLazy.
	SpanRunLoad
	// SpanIndexBuild is per-operator association index construction inside
	// the tracer: reading the index off the operator's columns, or sorting
	// an out-of-order operator first.
	SpanIndexBuild
	// SpanPatternCompile is the one-time compilation of a tree pattern into
	// its instruction form.
	SpanPatternCompile
	// SpanAnswerRender is the rendering of a query result into its report
	// and JSON answer forms, opened by the daemon's trace job around
	// core.QueryResult.Answer.
	SpanAnswerRender
	// SpanPersist is the daemon's write of a capture job's artifacts: the
	// temp writes and renames of the .pbl and its index sidecar.
	SpanPersist

	// NumSpans is the number of spans (array size, not a span).
	NumSpans
)

var spanNames = [NumSpans]string{
	"schedule", "collector_finish", "pattern_match", "backtrace",
	"run_load", "index_build", "pattern_compile", "answer_render",
	"persist",
}

// String returns the snake_case name of the span.
func (s Span) String() string {
	if int(s) < len(spanNames) {
		return spanNames[s]
	}
	return "span?"
}

// opShard is one partition's counter cells. Distinct morsels write distinct
// shards in the common case; atomics make the exceptions safe.
type opShard struct {
	ctr [NumCounters]atomic.Int64
}

// opRec is one operator's recorded state.
type opRec struct {
	typ     string // operator type; written only under Recorder.mu
	shards  []opShard
	elapsed atomic.Int64 // summed operator wall time, ns
}

// spanCell accumulates one span's total duration and entry count.
type spanCell struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Event is one observability happening, pushed synchronously to the
// recorder's Tap as it occurs: a phase span opening or closing, or an
// operator announcing itself before execution. Events exist for live
// progress reporting (pebbled streams them to job watchers); the counter
// and span totals remain the source of truth for measurements.
type Event struct {
	// Kind is "span_start", "span_end", or "op".
	Kind string
	// Span is the phase name for span events ("" for op events).
	Span string
	// OID and Type identify the operator for op events.
	OID  int
	Type string
	// Elapsed is the span duration; set on span_end only.
	Elapsed time.Duration
}

// Tap receives events synchronously from the recording goroutine. A tap
// must be fast and must not call back into the recorder; fan-out and
// buffering are the tap's job (see internal/server's job event log).
type Tap func(Event)

// Recorder collects execution metrics. The zero value is not usable — use
// NewRecorder. A nil *Recorder is valid on every method and does nothing.
//
// A Recorder accumulates across runs and queries until Reset; attach a
// fresh one per measurement when isolation matters. Concurrent use within
// one run/query is safe; sharing one recorder between concurrently
// executing runs is not supported (operator registration may race with the
// other run's recording).
type Recorder struct {
	mu    sync.RWMutex
	ops   map[int]*opRec // guarded by mu
	spans [NumSpans]spanCell

	// tap, when set, receives an Event for every span start/end and
	// operator registration. Stored atomically so the hot paths pay one
	// load; SetTap before sharing the recorder with a run.
	tap atomic.Value // of Tap
}

// SetTap installs the event tap (nil clears it). Install before the run
// starts; events already in flight may or may not reach a tap swapped
// mid-run.
func (r *Recorder) SetTap(tap Tap) {
	if r == nil {
		return
	}
	r.tap.Store(tap)
}

// emit pushes an event to the tap, if any.
func (r *Recorder) emit(ev Event) {
	if t, ok := r.tap.Load().(Tap); ok && t != nil {
		t(ev)
	}
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ops: make(map[int]*opRec)}
}

// StartOp registers an operator before its counters are bumped. typ may be
// empty (a later StartOp fills it in); parts sizes the shard array. Calling
// StartOp again for the same operator keeps the accumulated counts and
// grows the shard array if needed — callers must not record concurrently
// with a growing StartOp of the same operator.
func (r *Recorder) StartOp(oid int, typ string, parts int) {
	if r == nil {
		return
	}
	r.ensure(oid, typ, parts)
	r.emit(Event{Kind: "op", OID: oid, Type: typ})
}

func (r *Recorder) ensure(oid int, typ string, parts int) *opRec {
	if parts < 1 {
		parts = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.ops[oid]
	if op == nil {
		op = &opRec{typ: typ, shards: make([]opShard, parts)}
		r.ops[oid] = op
		return op
	}
	if op.typ == "" {
		op.typ = typ
	}
	if parts > len(op.shards) {
		grown := make([]opShard, parts)
		for i := range op.shards {
			for c := range grown[i].ctr {
				grown[i].ctr[c].Store(op.shards[i].ctr[c].Load())
			}
		}
		op.shards = grown
	}
	return op
}

// get returns the operator's record, registering it on first use (a query
// over a reloaded run has no StartOp to announce operators).
func (r *Recorder) get(oid int) *opRec {
	r.mu.RLock()
	op := r.ops[oid]
	r.mu.RUnlock()
	if op == nil {
		op = r.ensure(oid, "", 1)
	}
	return op
}

// Add bumps a counter for (operator, partition) by n. Call it in bulk —
// once per partition morsel — not per row.
func (r *Recorder) Add(oid, part int, c Counter, n int64) {
	if r == nil || n == 0 {
		return
	}
	op := r.get(oid)
	if part < 0 {
		part = 0
	}
	op.shards[part%len(op.shards)].ctr[c].Add(n)
}

// AddOpTime adds wall time to an operator's elapsed total. Timings are
// wall-clock and excluded from determinism guarantees.
func (r *Recorder) AddOpTime(oid int, d time.Duration) {
	if r == nil {
		return
	}
	r.get(oid).elapsed.Add(int64(d))
}

// StartSpan begins timing a span and returns the stop function. The clock
// calls live here so instrumented packages under the determinism analyzer
// never call time.Now themselves:
//
//	defer rec.StartSpan(obs.SpanBacktrace)()
func (r *Recorder) StartSpan(s Span) func() {
	if r == nil {
		return func() {}
	}
	r.emit(Event{Kind: "span_start", Span: s.String()})
	start := time.Now()
	return func() {
		elapsed := time.Since(start)
		cell := &r.spans[s]
		cell.ns.Add(elapsed.Nanoseconds())
		cell.count.Add(1)
		r.emit(Event{Kind: "span_end", Span: s.String(), Elapsed: elapsed})
	}
}

// Reset clears all recorded state, keeping the recorder usable.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ops = make(map[int]*opRec)
	r.mu.Unlock()
	for i := range r.spans {
		r.spans[i].ns.Store(0)
		r.spans[i].count.Store(0)
	}
}

// OpStat is one operator's merged totals.
type OpStat struct {
	OID      int
	Type     string
	Counters [NumCounters]int64
	Elapsed  time.Duration
}

// Counter returns one merged counter total.
func (o OpStat) Counter(c Counter) int64 { return o.Counters[c] }

// SpanStat is one span's merged totals.
type SpanStat struct {
	Span  Span
	Total time.Duration
	Count int64
}

// Stats is an immutable snapshot of a recorder.
type Stats struct {
	// Ops lists per-operator totals ordered by operator id.
	Ops []OpStat
	// Spans lists the spans that were entered at least once, in Span order.
	Spans []SpanStat
}

// Snapshot merges the shards into totals. The recorder keeps recording;
// the snapshot is a consistent-enough view for reporting (counters still
// being bumped concurrently may or may not be included).
func (r *Recorder) Snapshot() *Stats {
	s := &Stats{}
	if r == nil {
		return s
	}
	r.mu.RLock()
	oids := make([]int, 0, len(r.ops))
	for oid := range r.ops {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	for _, oid := range oids {
		op := r.ops[oid]
		st := OpStat{OID: oid, Type: op.typ, Elapsed: time.Duration(op.elapsed.Load())}
		for i := range op.shards {
			for c := range st.Counters {
				st.Counters[c] += op.shards[i].ctr[c].Load()
			}
		}
		s.Ops = append(s.Ops, st)
	}
	r.mu.RUnlock()
	for i := range r.spans {
		n := r.spans[i].count.Load()
		if n == 0 {
			continue
		}
		s.Spans = append(s.Spans, SpanStat{
			Span:  Span(i),
			Total: time.Duration(r.spans[i].ns.Load()),
			Count: n,
		})
	}
	return s
}

// Op returns the stat of one operator.
func (s *Stats) Op(oid int) (OpStat, bool) {
	for _, st := range s.Ops {
		if st.OID == oid {
			return st, true
		}
	}
	return OpStat{}, false
}

// SpanTotal returns the accumulated duration of one span (0 when never
// entered).
func (s *Stats) SpanTotal(sp Span) time.Duration {
	for _, st := range s.Spans {
		if st.Span == sp {
			return st.Total
		}
	}
	return 0
}

// Total sums one counter across all operators.
func (s *Stats) Total(c Counter) int64 {
	var n int64
	for _, st := range s.Ops {
		n += st.Counters[c]
	}
	return n
}
