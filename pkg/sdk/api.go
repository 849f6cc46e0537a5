// Package sdk is the Go client for pebbled, the provenance-as-a-service
// daemon (internal/server). It depends on the standard library only: wire
// payloads that need pebble types (tree patterns, corpus pipeline specs,
// provenance runs) travel as raw JSON or opaque bytes, so a consumer
// outside this module can drive a daemon with nothing but this package.
//
// The file defines the wire DTOs shared by the client and the server; the
// client itself lives in client.go. All fields marshal as snake_case JSON.
package sdk

import (
	"encoding/json"
	"time"
)

// Job status values. A job moves queued → running → one of the terminal
// states; cancellation can also strike while queued.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// TerminalStatus reports whether a job status is final.
func TerminalStatus(s string) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Job kinds.
const (
	KindPipeline = "pipeline"
	KindTrace    = "trace"
)

// SessionSpec configures a named daemon session — the remote form of
// pebble.NewSession options. Partitions/Workers <= 0 keep the server
// defaults (precedence: explicit > session > engine default, exactly as in
// the library); the daemon rejects either above 1 024 with 400. Workers
// sizes the engine's morsel pool, as pebble.WithWorkers does: 1 means no
// pool, though independent plan branches may still overlap.
type SessionSpec struct {
	Name       string `json:"name"`
	Partitions int    `json:"partitions,omitempty"`
	Workers    int    `json:"workers,omitempty"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	Name       string    `json:"name"`
	Partitions int       `json:"partitions"`
	Workers    int       `json:"workers"`
	Created    time.Time `json:"created"`
	Datasets   int       `json:"datasets"`
	Jobs       int       `json:"jobs"`
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name       string `json:"name"`
	Rows       int    `json:"rows"`
	Partitions int    `json:"partitions"`
	Bytes      int64  `json:"bytes"`
}

// SubmitJobRequest submits an asynchronous job.
//
// Pipeline jobs (Kind == KindPipeline) name their plan one of two ways:
//   - Scenario: a pipeline registered on the server by name — the built-in
//     paper scenarios T1–T5/D1–D5 (whose inputs the server generates at
//     SimGB scale) or an operator-registered factory;
//   - Spec: a corpus pipeline spec as JSON (internal/corpus.Spec wire
//     form). Source steps resolve against the session's uploaded datasets
//     first, then the spec's inline rows. A spec that sets shuffleJoin is
//     refused: a job's joins follow the session's options.
//
// Trace jobs (Kind == KindTrace) backtrace a completed pipeline job:
// TargetJob names it; the question is a tree pattern (Pattern, the
// treepattern JSON form, or PatternText, the textual grammar) or TraceAll
// for full-coverage provenance. StartOp optionally traces from an
// intermediate operator instead of the sink.
type SubmitJobRequest struct {
	Kind string `json:"kind"`

	Scenario string          `json:"scenario,omitempty"`
	SimGB    int             `json:"sim_gb,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Capture  *bool           `json:"capture,omitempty"` // nil = true

	TargetJob   string          `json:"target_job,omitempty"`
	Pattern     json.RawMessage `json:"pattern,omitempty"`
	PatternText string          `json:"pattern_text,omitempty"`
	TraceAll    bool            `json:"trace_all,omitempty"`
	StartOp     int             `json:"start_op,omitempty"`
}

// JobInfo is the server's view of one job.
type JobInfo struct {
	ID       string     `json:"id"`
	Session  string     `json:"session"`
	Kind     string     `json:"kind"`
	Status   string     `json:"status"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// ResultRows is the sink row count of a done pipeline job.
	ResultRows int `json:"result_rows,omitempty"`
	// ProvBytes is the size of the persisted provenance artifact: the whole
	// run stream. The session counter prov_bytes sums only the operators'
	// encoded bytes, so it stays below this by the stream's framing.
	ProvBytes int64 `json:"prov_bytes,omitempty"`
	// Matched is the matched-item count of a done trace job.
	Matched int `json:"matched,omitempty"`
}

// JobEvent is one progress event of a job's lifecycle, streamed as JSON
// lines. Status transitions arrive as kind "status"; execution phases
// (schedule, collector_finish, pattern_match, backtrace, …) are fed from
// the observability layer's span taps as kind "phase_start"/"phase_end";
// operator registrations as kind "op".
type JobEvent struct {
	Seq       int       `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      string    `json:"kind"`
	Status    string    `json:"status,omitempty"`
	Span      string    `json:"span,omitempty"`
	OID       int       `json:"oid,omitempty"`
	OpType    string    `json:"op_type,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms,omitempty"`
	Message   string    `json:"message,omitempty"`
}

// TraceOutput is the payload of a completed trace job.
type TraceOutput struct {
	// Matched is the number of result items the pattern selected.
	Matched int `json:"matched"`
	// Report is the human-readable backtracing report
	// (pebble.QueryResult.Report).
	Report string `json:"report"`
	// Result is the machine form (pebble.QueryResult.JSON).
	Result json.RawMessage `json:"result"`
}

// TraceResultContentType marks a trace job's /result body: one
// TraceResultHeader as a JSON line, then the report bytes, then the result
// bytes, nothing between or after. The response's Content-Length is the
// header line plus both lengths; a reader that finds any of the three
// numbers in disagreement has a damaged body.
const TraceResultContentType = "application/vnd.pebble.trace-result"

// TraceResultHeader is the first line of a trace job's /result body.
type TraceResultHeader struct {
	Matched     int   `json:"matched"`
	ReportBytes int64 `json:"report_bytes"`
	ResultBytes int64 `json:"result_bytes"`
}

// SessionStats aggregates a session's completed work for /stats.
type SessionStats struct {
	Name     string             `json:"name"`
	Datasets int                `json:"datasets"`
	Jobs     map[string]int     `json:"jobs"`
	Counters map[string]int64   `json:"counters"`
	SpansMS  map[string]float64 `json:"spans_ms"`
}

// ServerStats is the /stats payload: admission-control gauges plus
// per-session aggregates backed by the per-job metric recorders.
type ServerStats struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Queued        int            `json:"queued"`
	Running       int            `json:"running"`
	QueueDepth    int            `json:"queue_depth"`
	SessionCap    int            `json:"session_cap"`
	Jobs          map[string]int `json:"jobs"`
	Sessions      []SessionStats `json:"sessions"`
}

// HealthInfo is the /healthz payload.
type HealthInfo struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}
