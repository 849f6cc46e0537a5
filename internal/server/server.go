// Package server implements pebbled, the provenance-as-a-service daemon: an
// HTTP/JSON facade over the library's Session API. Clients create named
// sessions, register datasets, and submit pipeline executions and
// backtracing queries as asynchronous jobs with cancellation and streamed
// progress events; completed captures persist as .pbl artifacts so
// provenance outlives the run that produced it. Admission control is a
// bounded job queue with backpressure (429 + Retry-After) and a per-session
// running cap (see queue.go).
//
// The daemon adds *no* execution semantics of its own: every job funnels
// into core.Session.CaptureContext / RunContext and the backtrace tracer,
// so a capture through pebbled is byte-identical to the same capture
// through the library (pinned by TestDaemonMatchesLibrary).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/pkg/sdk"
)

// Factory builds a named pipeline and its inputs server-side. Registered
// factories let operators (and tests) expose pipelines that cannot travel
// over the wire — Go closures, generated workloads — under a stable name.
type Factory struct {
	// Build constructs a fresh pipeline per job.
	Build func() (*engine.Pipeline, error)
	// Inputs generates the input datasets; simGB is the client-requested
	// scale (0 = smallest) and partitions the session's logical partition
	// count. Deterministic inputs are the factory's responsibility — the
	// byte-identity guarantee only holds when the same name and scale
	// yield the same data on every call.
	Inputs func(simGB, partitions int) (map[string]*engine.Dataset, error)
}

// Config parameterises a daemon instance.
type Config struct {
	// DataDir is where job artifacts (.pbl provenance and its index sidecar)
	// are persisted. Required.
	DataDir string
	// QueueDepth bounds the number of queued (admitted, not yet running)
	// jobs; submissions beyond it get 429 + Retry-After. Default 64.
	QueueDepth int
	// Runners is the size of the job-runner pool. Default 2.
	Runners int
	// SessionCap is the maximum number of concurrently *running* jobs per
	// session. Default 1 (a session is a serial execution context; cross-
	// session jobs still run in parallel up to Runners).
	SessionCap int
	// MaxUploadBytes bounds one dataset upload. Default 64 MiB.
	MaxUploadBytes int64
	// Pipelines are extra named pipeline factories; the ten paper
	// scenarios (T1–T5, D1–D5) are always available under their names.
	Pipelines map[string]Factory
}

func (c *Config) fill() error {
	if c.DataDir == "" {
		return fmt.Errorf("server: Config.DataDir is required")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.SessionCap <= 0 {
		c.SessionCap = 1
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	return nil
}

// Server is one pebbled instance. Create with New, mount Handler on an
// http.Server (or httptest), and Close on shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue *queue
	start time.Time

	mu       sync.Mutex
	sessions map[string]*session
}

// New builds a daemon and starts its runner pool.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create data dir: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    newQueue(cfg.QueueDepth, cfg.SessionCap),
		start:    time.Now(),
		sessions: make(map[string]*session),
	}
	s.routes()
	s.queue.start(cfg.Runners, s.runJob)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops admission, cancels queued and running jobs, and waits for
// the runner pool to drain. Every job is terminal when it returns, so
// event-stream followers have reached the end of their streams and long
// polls have their answers: close the
// Server before shutting its http.Server down, or the shutdown waits for
// them.
func (s *Server) Close() {
	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	var running []*job
	for _, name := range names {
		sess := s.sessions[name]
		sess.mu.Lock()
		for _, id := range sess.jobOrder {
			running = append(running, sess.jobs[id])
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range running {
		j.cancel()
	}
	s.queue.close()
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.withSession(s.handleGetSession))
	s.mux.HandleFunc("POST /v1/sessions/{name}/datasets", s.withSession(s.handleUploadDataset))
	s.mux.HandleFunc("GET /v1/sessions/{name}/datasets", s.withSession(s.handleListDatasets))
	s.mux.HandleFunc("POST /v1/sessions/{name}/jobs", s.withSession(s.handleSubmitJob))
	s.mux.HandleFunc("GET /v1/sessions/{name}/jobs", s.withSession(s.handleListJobs))
	s.mux.HandleFunc("GET /v1/sessions/{name}/jobs/{id}", s.withJob(s.handleGetJob))
	s.mux.HandleFunc("POST /v1/sessions/{name}/jobs/{id}/cancel", s.withJob(s.handleCancelJob))
	s.mux.HandleFunc("GET /v1/sessions/{name}/jobs/{id}/events", s.withJob(s.handleJobEvents))
	s.mux.HandleFunc("GET /v1/sessions/{name}/jobs/{id}/result", s.withJob(s.handleJobResult))
	s.mux.HandleFunc("GET /v1/sessions/{name}/jobs/{id}/provenance", s.withJob(s.handleJobProvenance))
}

// --- plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) session(name string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[name]
	return sess, ok
}

func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.session(r.PathValue("name"))
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown session %q", r.PathValue("name"))
			return
		}
		h(w, r, sess)
	}
}

func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *session, *job)) http.HandlerFunc {
	return s.withSession(func(w http.ResponseWriter, r *http.Request, sess *session) {
		j, ok := sess.job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		h(w, r, sess, j)
	})
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sdk.HealthInfo{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	queued, running := s.queue.gauges()
	st := sdk.ServerStats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queued:        queued,
		Running:       running,
		QueueDepth:    s.cfg.QueueDepth,
		SessionCap:    s.cfg.SessionCap,
		Jobs:          make(map[string]int),
	}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, k int) bool { return sessions[i].name < sessions[k].name })
	for _, sess := range sessions {
		ss := sess.stats()
		st.Sessions = append(st.Sessions, ss)
		for k, v := range ss.Jobs {
			st.Jobs[k] += v
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// maxParallelism bounds a session's Partitions and Workers and an upload's
// parts. All come from the client, and each sizes allocations: the worker
// pool's goroutines, an operator's per-partition outputs and shuffle
// buckets, a dataset's partitions (which an empty upload does not clamp).
const maxParallelism = 1024

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var spec sdk.SessionSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "decode session spec: %v", err)
		return
	}
	if spec.Name == "" || strings.ContainsAny(spec.Name, "/\\") {
		writeErr(w, http.StatusBadRequest, "invalid session name %q", spec.Name)
		return
	}
	if spec.Partitions > maxParallelism || spec.Workers > maxParallelism {
		writeErr(w, http.StatusBadRequest, "session partitions %d and workers %d must not exceed %d", spec.Partitions, spec.Workers, maxParallelism)
		return
	}
	sess := newSession(spec)
	s.mu.Lock()
	if _, dup := s.sessions[spec.Name]; dup {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "session %q already exists", spec.Name)
		return
	}
	s.sessions[spec.Name] = sess
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, k int) bool { return sessions[i].name < sessions[k].name })
	out := make([]sdk.SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.info())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSession(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request, sess *session) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "missing dataset name")
		return
	}
	parts := 0
	if p := r.URL.Query().Get("parts"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid parts %q", p)
			return
		}
		if n > maxParallelism {
			writeErr(w, http.StatusBadRequest, "parts %d must not exceed %d", n, maxParallelism)
			return
		}
		parts = n
	}
	// A body of declared length is refused unread when that is over the
	// limit and otherwise read into one buffer of that length; one of unknown
	// length grows its buffer as it arrives and is cut off a byte past the
	// limit.
	var body bytes.Buffer
	start := time.Now()
	tooLarge := r.ContentLength > s.cfg.MaxUploadBytes
	if !tooLarge {
		if r.ContentLength > 0 {
			body.Grow(int(r.ContentLength) + bytes.MinRead)
		}
		if _, err := body.ReadFrom(io.LimitReader(r.Body, s.cfg.MaxUploadBytes+1)); err != nil {
			writeErr(w, http.StatusBadRequest, "read upload: %v", err)
			return
		}
		tooLarge = int64(body.Len()) > s.cfg.MaxUploadBytes
	}
	if tooLarge {
		writeErr(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUploadBytes)
		return
	}
	data := body.Bytes()
	read := time.Now()
	vals, err := nested.ParseJSONLines(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parse JSON lines: %v", err)
		return
	}
	parsed := time.Now()
	ds := sess.base.NewDataset(name, vals, parts)
	info, err := sess.addDataset(name, ds, int64(len(data)), read.Sub(start), parsed.Sub(read), time.Since(parsed))
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sess.listDatasets())
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request, sess *session) {
	var req sdk.SubmitJobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, s.cfg.MaxUploadBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode job request: %v", err)
		return
	}
	switch req.Kind {
	case sdk.KindPipeline:
		if req.Scenario == "" && len(req.Spec) == 0 {
			writeErr(w, http.StatusBadRequest, "pipeline job needs scenario or spec")
			return
		}
	case sdk.KindTrace:
		if req.TargetJob == "" {
			writeErr(w, http.StatusBadRequest, "trace job needs target_job")
			return
		}
		if len(req.Pattern) == 0 && req.PatternText == "" && !req.TraceAll {
			writeErr(w, http.StatusBadRequest, "trace job needs pattern, pattern_text, or trace_all")
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, "unknown job kind %q", req.Kind)
		return
	}
	j := sess.newJob(req.Kind, req)
	j.event(sdk.JobEvent{Kind: "status", Status: sdk.StatusQueued})
	if err := s.queue.submit(j); err != nil {
		// Admission refused: the job dies without ever being schedulable.
		j.cancel()
		j.finish(sdk.StatusFailed, err.Error())
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1") // seconds
			writeErr(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.info())
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sess.listJobs())
}

// maxJobWait clamps the wait a long poll may ask for: when it runs out the
// poll is answered with the job's current, non-terminal snapshot.
var maxJobWait = 30 * time.Second

// handleGetJob answers with the job's snapshot. With ?wait=<duration> it is
// a long poll: the answer comes when the job is terminal, the wait (clamped
// to maxJobWait) runs out, or the client goes away, whichever is first.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request, _ *session, j *job) {
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeErr(w, http.StatusBadRequest, "invalid wait %q: want a non-negative duration such as 10s", v)
			return
		}
		j.wait(r.Context(), min(d, maxJobWait))
	}
	writeJSON(w, http.StatusOK, j.info())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, _ *http.Request, _ *session, j *job) {
	j.mu.Lock()
	status := j.status
	j.mu.Unlock()
	switch status {
	case sdk.StatusQueued:
		j.cancel()
		if s.queue.remove(j) {
			// Never dispatched: finish it here.
			j.finish(sdk.StatusCancelled, "cancelled while queued")
		}
		// Lost the race with a runner: the cancelled context fails the run
		// immediately and the runner finishes the job as cancelled.
	case sdk.StatusRunning:
		// The engine observes the context at every morsel boundary; the
		// runner transitions the job when the run unwinds.
		j.cancel()
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleJobEvents streams the job's event log as chunked JSON lines,
// starting from the beginning and following live until the job terminates
// or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, _ *session, j *job) {
	w.Header().Set("Content-Type", "application/jsonl")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, terminal := j.eventsFrom(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// Drain any events appended between eventsFrom and now on the
			// next loop; terminal status means the log can only grow by the
			// final transition, which eventsFrom already saw.
			if evs, _ = j.eventsFrom(next); len(evs) == 0 {
				return
			}
			continue
		}
		if r.Context().Err() != nil {
			return
		}
		j.waitEvents(next, r.Context().Done())
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, _ *http.Request, _ *session, j *job) {
	info := j.info()
	if info.Status != sdk.StatusDone {
		writeErr(w, http.StatusConflict, "job %s is %s, not done", j.id, info.Status)
		return
	}
	if j.kind != sdk.KindTrace {
		writeJSON(w, http.StatusOK, info)
		return
	}
	// The report and the result were produced once, by the job; they go out
	// as they are, framed by their lengths (see sdk.TraceResultHeader).
	j.mu.Lock()
	out := j.trace
	j.mu.Unlock()
	head, err := json.Marshal(sdk.TraceResultHeader{
		Matched: out.Matched, ReportBytes: int64(len(out.Report)), ResultBytes: int64(len(out.Result)),
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode result header: %v", err)
		return
	}
	head = append(head, '\n')
	w.Header().Set("Content-Type", sdk.TraceResultContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(out.Report)+len(out.Result)))
	w.WriteHeader(http.StatusOK)
	w.Write(head)                 //nolint:errcheck // client gone; nothing to do
	io.WriteString(w, out.Report) //nolint:errcheck // client gone; nothing to do
	w.Write(out.Result)           //nolint:errcheck // client gone; nothing to do
}

// handleJobProvenance serves the persisted .pbl artifact verbatim — the
// exact bytes the capture serialized, so clients can byte-compare daemon
// captures against local library runs.
func (s *Server) handleJobProvenance(w http.ResponseWriter, r *http.Request, _ *session, j *job) {
	info := j.info()
	if info.Status != sdk.StatusDone {
		writeErr(w, http.StatusConflict, "job %s is %s, not done", j.id, info.Status)
		return
	}
	j.mu.Lock()
	path, size := j.provPath, j.provBytes
	j.mu.Unlock()
	if path == "" {
		writeErr(w, http.StatusNotFound, "job %s has no provenance artifact (capture disabled or trace job)", j.id)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "open artifact: %v", err)
		return
	}
	defer f.Close()
	// The artifact is served whole or not at all: the job recorded how many
	// bytes it wrote, and a file of another size is not that artifact.
	if fi, err := f.Stat(); err != nil || fi.Size() != size {
		writeErr(w, http.StatusInternalServerError, "artifact damaged: job %s wrote %d bytes, the file on disk is not that size", j.id, size)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	io.Copy(w, f) //nolint:errcheck // client gone; nothing to do
}

// artifactPath returns the path of one job artifact file.
func (s *Server) artifactPath(sess *session, j *job, ext string) string {
	return filepath.Join(s.cfg.DataDir, fmt.Sprintf("%s-%s%s", sess.name, j.id, ext))
}
