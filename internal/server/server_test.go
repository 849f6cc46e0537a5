package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/server"
	"pebble/internal/workload"
	"pebble/pkg/sdk"
)

// startDaemon boots an in-process daemon over httptest and returns an SDK
// client bound to it.
func startDaemon(t *testing.T, cfg server.Config) *sdk.Client {
	t.Helper()
	_, ts := bootDaemon(t, cfg)
	return sdk.New(ts.URL)
}

// bootDaemon is startDaemon for tests that also need the server itself or
// its URL. Cleanup order matters: the server closes first (which cancels and
// finishes every job, releasing event-stream watchers), then the HTTP
// listener, which waits for open requests.
func bootDaemon(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	return bootWrapped(t, cfg, func(h http.Handler) http.Handler { return h })
}

// bootWrapped is bootDaemon with wrap between the listener and the daemon.
func bootWrapped(t *testing.T, cfg server.Config, wrap func(http.Handler) http.Handler) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, ts
}

// gate coordinates tests with pipelines executing inside the daemon: the
// pipeline's map operator reports entry (once per job, tagged) and then
// blocks until the gate opens.
type gate struct {
	entered chan string
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan string, 64), release: make(chan struct{})}
}

// open releases every blocked pipeline; safe to call repeatedly.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// await waits for one tagged pipeline to start executing.
func (g *gate) await(t *testing.T) string {
	t.Helper()
	select {
	case tag := <-g.entered:
		return tag
	case <-time.After(30 * time.Second):
		t.Fatal("no pipeline entered the gate within 30s")
		return ""
	}
}

// gatedFactory registers a pipeline whose map blocks on the gate.
func gatedFactory(g *gate, tag string, rows int) server.Factory {
	return server.Factory{
		Build: func() (*engine.Pipeline, error) {
			p := engine.NewPipeline()
			src := p.Source("in")
			var once sync.Once
			p.Map(src, engine.MapFunc{Name: "gate", Fn: func(v nested.Value) (nested.Value, error) {
				once.Do(func() { g.entered <- tag })
				<-g.release
				return v, nil
			}})
			return p, nil
		},
		Inputs: func(_, partitions int) (map[string]*engine.Dataset, error) {
			return map[string]*engine.Dataset{"in": intDataset(rows, partitions)}, nil
		},
	}
}

func intDataset(rows, partitions int) *engine.Dataset {
	vals := make([]nested.Value, rows)
	for i := range vals {
		vals[i] = nested.Item(nested.F("n", nested.Int(int64(i))))
	}
	return engine.NewDataset("in", vals, partitions, engine.NewIDGen(1))
}

func mustSession(t *testing.T, c *sdk.Client, spec sdk.SessionSpec) {
	t.Helper()
	if _, err := c.CreateSession(context.Background(), spec); err != nil {
		t.Fatalf("create session %q: %v", spec.Name, err)
	}
}

func submit(t *testing.T, c *sdk.Client, sess string, req sdk.SubmitJobRequest) sdk.JobInfo {
	t.Helper()
	info, err := c.SubmitJob(context.Background(), sess, req)
	if err != nil {
		t.Fatalf("submit to %q: %v", sess, err)
	}
	return info
}

func waitStatus(t *testing.T, c *sdk.Client, sess, id, want string) sdk.JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	info, err := c.WaitJob(ctx, sess, id)
	if err != nil {
		t.Fatalf("wait job %s/%s: %v", sess, id, err)
	}
	if info.Status != want {
		t.Fatalf("job %s/%s finished %s (%s), want %s", sess, id, info.Status, info.Error, want)
	}
	return info
}

// TestCancelWhileQueued pins the queued→cancelled transition: with the
// single runner occupied, a queued job cancelled before dispatch must go
// terminal immediately, never start, and leave a queued→cancelled event
// trail.
func TestCancelWhileQueued(t *testing.T) {
	g := newGate()
	defer g.open()
	c := startDaemon(t, server.Config{
		Runners: 1, SessionCap: 1, QueueDepth: 8,
		Pipelines: map[string]server.Factory{"block": gatedFactory(g, "b", 8)},
	})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})

	j1 := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t) // runner is now provably inside j1

	j2 := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	info, err := c.CancelJob(ctx, "s", j2.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if info.Status != sdk.StatusCancelled {
		t.Errorf("cancel-while-queued returned status %s, want cancelled immediately", info.Status)
	}
	info = waitStatus(t, c, "s", j2.ID, sdk.StatusCancelled)
	if info.Started != nil {
		t.Errorf("cancelled-while-queued job has a start time %v; it must never have run", info.Started)
	}

	var events []sdk.JobEvent
	if err := c.StreamEvents(ctx, "s", j2.ID, func(ev sdk.JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("stream events: %v", err)
	}
	var statuses []string
	for _, ev := range events {
		if ev.Kind == "status" {
			statuses = append(statuses, ev.Status)
		}
	}
	if got := strings.Join(statuses, ","); got != "queued,cancelled" {
		t.Errorf("status trail = %s, want queued,cancelled", got)
	}

	g.open()
	waitStatus(t, c, "s", j1.ID, sdk.StatusDone)
}

// TestCancelMidRun pins that cancelling a running job really stops morsel
// scheduling: the cancelled session's recorded rows_in (via /stats, backed
// by the obs counters) stays strictly below an identical uncancelled run.
func TestCancelMidRun(t *testing.T) {
	g := newGate()
	defer g.open()
	const rows = 64
	c := startDaemon(t, server.Config{
		Runners: 1, SessionCap: 1, QueueDepth: 8,
		Pipelines: map[string]server.Factory{"block": gatedFactory(g, "m", rows)},
	})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "cut", Partitions: 16, Workers: 2})
	mustSession(t, c, sdk.SessionSpec{Name: "full", Partitions: 16, Workers: 2})

	j := submit(t, c, "cut", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t) // first morsel provably executing
	if _, err := c.CancelJob(ctx, "cut", j.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	g.open() // let the in-flight morsels drain; no new ones may start
	info := waitStatus(t, c, "cut", j.ID, sdk.StatusCancelled)
	if !strings.Contains(info.Error, "context canceled") {
		t.Errorf("cancelled job error = %q, want context cancellation surfaced", info.Error)
	}

	// Reference: same pipeline, gate already open, runs to completion.
	ref := submit(t, c, "full", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	waitStatus(t, c, "full", ref.ID, sdk.StatusDone)

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	rowsIn := map[string]int64{}
	for _, ss := range stats.Sessions {
		rowsIn[ss.Name] = ss.Counters["rows_in"]
	}
	if rowsIn["cut"] == 0 {
		t.Error("cancelled run recorded no rows_in at all; gate never executed?")
	}
	if rowsIn["cut"] >= rowsIn["full"] {
		t.Errorf("cancelled run consumed rows_in=%d, not below the full run's %d: cancellation did not stop morsel scheduling",
			rowsIn["cut"], rowsIn["full"])
	}
	if stats.Jobs[sdk.StatusCancelled] != 1 || stats.Jobs[sdk.StatusDone] != 1 {
		t.Errorf("server job tallies = %v, want 1 cancelled and 1 done", stats.Jobs)
	}
}

// TestQueueFull429 pins admission control: with the runner blocked and the
// queue at depth, a further submission is rejected with HTTP 429 and a
// Retry-After hint, and the rejected job never runs.
func TestQueueFull429(t *testing.T) {
	g := newGate()
	defer g.open()
	c := startDaemon(t, server.Config{
		Runners: 1, SessionCap: 1, QueueDepth: 1,
		Pipelines: map[string]server.Factory{"block": gatedFactory(g, "q", 8)},
	})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})

	j1 := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	j2 := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})

	_, err := c.SubmitJob(ctx, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	ae, full := sdk.IsQueueFull(err)
	if !full {
		t.Fatalf("third submission: got err %v, want 429 queue-full", err)
	}
	if ae.RetryAfter != time.Second {
		t.Errorf("429 carried Retry-After %v, want 1s", ae.RetryAfter)
	}

	g.open()
	waitStatus(t, c, "s", j1.ID, sdk.StatusDone)
	waitStatus(t, c, "s", j2.ID, sdk.StatusDone)
	jobs, err := c.ListJobs(ctx, "s")
	if err != nil {
		t.Fatalf("list jobs: %v", err)
	}
	// The rejected submission is recorded as failed, never queued/run.
	var failed int
	for _, ji := range jobs {
		if ji.Status == sdk.StatusFailed {
			failed++
			if ji.Started != nil {
				t.Errorf("rejected job %s has a start time; it must never run", ji.ID)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d failed jobs, want exactly the rejected one", failed)
	}
}

// TestSessionCapFairness pins FIFO-with-skip dispatch: a session at its
// running cap is skipped and the next session's older-than-nothing job runs
// instead, so one chatty session cannot monopolise the runner pool.
func TestSessionCapFairness(t *testing.T) {
	g := newGate()
	defer g.open()
	c := startDaemon(t, server.Config{
		Runners: 2, SessionCap: 1, QueueDepth: 8,
		Pipelines: map[string]server.Factory{
			"a1": gatedFactory(g, "a1", 8),
			"a2": gatedFactory(g, "a2", 8),
			"b1": gatedFactory(g, "b1", 8),
		},
	})
	mustSession(t, c, sdk.SessionSpec{Name: "a", Partitions: 4})
	mustSession(t, c, sdk.SessionSpec{Name: "b", Partitions: 4})

	// Session a submits twice before b submits once. Despite strict FIFO
	// order a1,a2,b1, the two runners must pick a1 and b1 — a2 is held by
	// the session cap.
	ja1 := submit(t, c, "a", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "a1"})
	ja2 := submit(t, c, "a", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "a2"})
	jb1 := submit(t, c, "b", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "b1"})

	running := map[string]bool{g.await(t): true}
	running[g.await(t)] = true
	if !running["a1"] || !running["b1"] {
		t.Fatalf("running set = %v, want {a1, b1}: the session cap must skip a2 in favour of b1", running)
	}
	info, err := c.GetJob(context.Background(), "a", ja2.ID)
	if err != nil {
		t.Fatalf("get a2: %v", err)
	}
	if info.Status != sdk.StatusQueued {
		t.Errorf("a2 status = %s, want still queued while a1 runs (cap 1)", info.Status)
	}

	g.open()
	waitStatus(t, c, "a", ja1.ID, sdk.StatusDone)
	waitStatus(t, c, "a", ja2.ID, sdk.StatusDone)
	waitStatus(t, c, "b", jb1.ID, sdk.StatusDone)
}

// TestEventStreamShape pins the live progress contract on a real scenario
// job: status queued→running→done in order, operator registrations, and
// phase spans (schedule, collector_finish) fed from the obs tap.
func TestEventStreamShape(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "T3", SimGB: 1})

	var events []sdk.JobEvent
	if err := c.StreamEvents(ctx, "s", j.ID, func(ev sdk.JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	var statuses []string
	phases := map[string]bool{}
	ops := 0
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: stream must be gapless and ordered", i, ev.Seq)
		}
		switch ev.Kind {
		case "status":
			statuses = append(statuses, ev.Status)
		case "phase_end":
			phases[ev.Span] = true
			if ev.ElapsedMS < 0 {
				t.Errorf("phase_end %s with negative elapsed %v", ev.Span, ev.ElapsedMS)
			}
		case "op":
			ops++
		}
	}
	if got := strings.Join(statuses, ","); got != "queued,running,done" {
		t.Errorf("status trail = %s, want queued,running,done", got)
	}
	if !phases["schedule"] || !phases["collector_finish"] {
		t.Errorf("phases seen = %v, want schedule and collector_finish from the obs tap", phases)
	}
	if ops == 0 {
		t.Error("no operator registration events streamed")
	}
}

// TestPanickingJobFailsAlone: a registered pipeline whose map panics fails
// its own job, with the panic in the job's error and the stack as a note; the
// daemon stays healthy and the session's next job, on the same runner, ends
// done.
func TestPanickingJobFailsAlone(t *testing.T) {
	panics := tinyFactory(8, nil)
	panics.Build = func() (*engine.Pipeline, error) {
		p := engine.NewPipeline()
		p.Map(p.Source("in"), engine.MapFunc{Name: "boom", Fn: func(nested.Value) (nested.Value, error) {
			panic("boom")
		}})
		return p, nil
	}
	c := startDaemon(t, server.Config{Runners: 1, Pipelines: map[string]server.Factory{"panics": panics, "tiny": tinyFactory(8, nil)}})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "panics"})
	info := waitStatus(t, c, "s", j.ID, sdk.StatusFailed)
	if want := "engine: operator 2:map[boom]: panic: boom"; info.Error != want {
		t.Errorf("error %q, want %q", info.Error, want)
	}
	var notes []string
	if err := c.StreamEvents(ctx, "s", j.ID, func(ev sdk.JobEvent) error {
		if ev.Kind == "note" {
			notes = append(notes, ev.Message)
		}
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "TestPanickingJobFailsAlone") {
		t.Errorf("notes %q, want the stack of the panic", notes)
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Errorf("health after the panic: %+v, %v", h, err)
	}
	next := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "tiny"})
	waitStatus(t, c, "s", next.ID, sdk.StatusDone)
}

// TestTraceJobShowsItsPhases: a pattern trace job streams a phase span for
// each of its terms — run load, pattern compile and match, backtrace and the
// rendering of its two answer forms — and the session's /stats sums them.
func TestTraceJobShowsItsPhases(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	target := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "T3", SimGB: 1})
	waitStatus(t, c, "s", target.ID, sdk.StatusDone)
	tj := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: target.ID,
		PatternText: fmt.Sprintf(`//id_str == %q, tweets(text)`, workload.HotUserID)})
	waitStatus(t, c, "s", tj.ID, sdk.StatusDone)

	phases := map[string]bool{}
	if err := c.StreamEvents(ctx, "s", tj.ID, func(ev sdk.JobEvent) error {
		if ev.Kind == "phase_end" {
			phases[ev.Span] = true
		}
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil || len(st.Sessions) != 1 {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	for _, span := range []string{"run_load", "pattern_compile", "pattern_match", "backtrace", "answer_render"} {
		if !phases[span] {
			t.Errorf("trace job streamed no %s phase (phases %v)", span, phases)
		}
		if ms, ok := st.Sessions[0].SpansMS[span]; !ok || ms <= 0 {
			t.Errorf("spans_ms[%q] = %v (present %v), want > 0", span, ms, ok)
		}
	}
}

// TestSpecJobOverUploadedDataset drives the declarative path: upload a
// dataset as JSON lines, run a corpus.Spec pipeline whose source resolves
// against it, and trace the full result back through the daemon.
func TestSpecJobOverUploadedDataset(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})

	lines := strings.NewReader(`{"n": 1}` + "\n" + `{"n": 3}` + "\n" + `{"n": 5}` + "\n" + `{"n": 7}` + "\n" + `{"n": 9}` + "\n")
	ds, err := c.UploadDataset(ctx, "s", "mydata", 0, lines)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if ds.Rows != 5 || ds.Partitions != 4 {
		t.Errorf("dataset = %+v, want 5 rows in 4 partitions (session inheritance)", ds)
	}
	// Duplicate registration must be refused, not silently replaced.
	if _, err := c.UploadDataset(ctx, "s", "mydata", 0, strings.NewReader(`{"n": 0}`+"\n")); err == nil {
		t.Error("duplicate dataset upload accepted; want conflict")
	}

	spec := corpus.Spec{
		Steps: []corpus.Step{
			{Op: corpus.StepSource, In: -1, In2: -1, Dataset: "mydata"},
			{Op: corpus.StepFilter, In: 0, In2: -1, Pred: &corpus.Pred{Col: "n", Op: "gt", Int: 2}},
		},
		Sink: 1,
	}
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Spec: specJSON})
	info := waitStatus(t, c, "s", j.ID, sdk.StatusDone)
	if info.ResultRows != 4 {
		t.Errorf("result rows = %d, want 4 (n in {3,5,7,9})", info.ResultRows)
	}
	if info.ProvBytes <= 0 {
		t.Errorf("prov bytes = %d, want a persisted artifact", info.ProvBytes)
	}

	tj := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: j.ID, TraceAll: true})
	waitStatus(t, c, "s", tj.ID, sdk.StatusDone)
	out, err := c.TraceResult(ctx, "s", tj.ID)
	if err != nil {
		t.Fatalf("trace result: %v", err)
	}
	if out.Matched != 4 {
		t.Errorf("trace matched %d items, want 4", out.Matched)
	}
	if !strings.Contains(out.Report, "source operator") {
		t.Errorf("trace report carries no source section:\n%s", out.Report)
	}
	var decoded struct {
		Matched int `json:"matched"`
		Sources []struct {
			Dataset string `json:"dataset"`
		} `json:"sources"`
	}
	if err := json.Unmarshal(out.Result, &decoded); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if decoded.Matched != 4 || len(decoded.Sources) != 1 || decoded.Sources[0].Dataset != "mydata" {
		t.Errorf("trace JSON = %+v, want 4 matches traced to dataset mydata", decoded)
	}
}

// TestTraceReadsNoSidecar: a trace job reads the target's .pbl and nothing
// beside it, so whether the .idx the capture wrote is there, absent, a
// directory or garbage, the answer is the same byte for byte and the job
// emits no note.
func TestTraceReadsNoSidecar(t *testing.T) {
	dir := t.TempDir()
	c := startDaemon(t, server.Config{DataDir: dir})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	target := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "D1", SimGB: 1})
	waitStatus(t, c, "s", target.ID, sdk.StatusDone)

	trace := func(state string) sdk.TraceOutput {
		t.Helper()
		j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: target.ID, TraceAll: true})
		waitStatus(t, c, "s", j.ID, sdk.StatusDone)
		out, err := c.TraceResult(ctx, "s", j.ID)
		if err != nil {
			t.Fatalf("%s: trace result: %v", state, err)
		}
		if err := c.StreamEvents(ctx, "s", j.ID, func(ev sdk.JobEvent) error {
			if ev.Kind == "note" {
				t.Errorf("%s: the trace job noted %q", state, ev.Message)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: stream: %v", state, err)
		}
		return out
	}

	idxPath := filepath.Join(dir, "s-"+target.ID+".idx")
	if _, err := os.Stat(idxPath); err != nil {
		t.Fatalf("the capture wrote no .idx where the test expects it: %v", err)
	}
	want := trace("as written")
	for state, sabotage := range map[string]func() error{
		"absent":      func() error { return nil },
		"a directory": func() error { return os.Mkdir(idxPath, 0o755) },
		"garbage":     func() error { return os.WriteFile(idxPath, []byte("PBLI\x02\x00 not this run's"), 0o644) },
	} {
		if err := os.RemoveAll(idxPath); err != nil {
			t.Fatal(err)
		}
		if err := sabotage(); err != nil {
			t.Fatal(err)
		}
		if got := trace(state); got.Matched != want.Matched || got.Report != want.Report || !bytes.Equal(got.Result, want.Result) {
			t.Errorf("%s .idx: the answer differs from the one beside the .idx the capture wrote", state)
		}
	}
}

// TestFailedPersistLeavesNothing: an artifact reaches its final name by a
// rename of a finished temp file, so when DataDir cannot be written, or
// something that is no file already has an artifact's name, the job fails
// with the step and the cause, and DataDir holds no file of that job —
// neither a truncated artifact nor a temp file, nor the .pbl of a pair whose
// .idx failed.
func TestFailedPersistLeavesNothing(t *testing.T) {
	cases := map[string]struct {
		sabotage func(t *testing.T, dir string)
		message  string
		left     []string
	}{
		"DataDir gone": {
			func(t *testing.T, dir string) {
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
			}, "write provenance artifact", nil},
		"a directory named like the .pbl": {
			func(t *testing.T, dir string) {
				if err := os.Mkdir(filepath.Join(dir, "s-j1.pbl"), 0o755); err != nil {
					t.Fatal(err)
				}
			}, "write provenance artifact", []string{"s-j1.pbl"}},
		"a directory named like the .idx": {
			func(t *testing.T, dir string) {
				if err := os.Mkdir(filepath.Join(dir, "s-j1.idx"), 0o755); err != nil {
					t.Fatal(err)
				}
			}, "write index sidecar", []string{"s-j1.idx"}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			c := startDaemon(t, server.Config{DataDir: dir})
			mustSession(t, c, sdk.SessionSpec{Name: "s"})
			tc.sabotage(t, dir)
			j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "D1", SimGB: 1})
			if j.ID != "j1" {
				t.Fatalf("first job is %s, the test sabotages j1", j.ID)
			}
			info := waitStatus(t, c, "s", j.ID, sdk.StatusFailed)
			if !strings.Contains(info.Error, tc.message) || !strings.Contains(info.Error, dir) {
				t.Errorf("job error %q, want the step (%s) and the path it failed on", info.Error, tc.message)
			}
			var left []string
			entries, _ := os.ReadDir(dir) // gone: no entries
			for _, e := range entries {
				left = append(left, e.Name())
			}
			if !slices.Equal(left, tc.left) {
				t.Errorf("DataDir holds %q after the failed job, want %q", left, tc.left)
			}
		})
	}
}

// TestShortArtifactIsNotServed: the download carries the length the job
// recorded when it wrote the artifact, and a file on disk of another size is
// answered with a 500 that says so, not streamed as if it were whole; a trace
// job on it fails with the load error.
func TestShortArtifactIsNotServed(t *testing.T) {
	dir := t.TempDir()
	_, ts := bootDaemon(t, server.Config{DataDir: dir})
	c := sdk.New(ts.URL)
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "D1", SimGB: 1})
	info := waitStatus(t, c, "s", j.ID, sdk.StatusDone)

	resp, err := http.Get(ts.URL + "/v1/sessions/s/jobs/" + j.ID + "/provenance")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != info.ProvBytes || int64(len(body)) != info.ProvBytes {
		t.Fatalf("download: status %d, Content-Length %d, %d bytes read (%v); the job wrote %d", resp.StatusCode, resp.ContentLength, len(body), err, info.ProvBytes)
	}

	if err := os.Truncate(filepath.Join(dir, "s-"+j.ID+".pbl"), info.ProvBytes/2); err != nil {
		t.Fatal(err)
	}
	data, err := c.Provenance(ctx, "s", j.ID)
	var apiErr *sdk.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || !strings.Contains(apiErr.Message, "artifact damaged") {
		t.Fatalf("download of a truncated artifact: %d bytes, error %v; want a 500 saying the artifact is damaged", len(data), err)
	}
	// A trace on the damaged artifact fails as a job error, not as a panic,
	// and the daemon stays up.
	tj := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: j.ID, TraceAll: true})
	tinfo := waitStatus(t, c, "s", tj.ID, sdk.StatusFailed)
	if !strings.Contains(tinfo.Error, "load provenance artifact") || strings.HasPrefix(tinfo.Error, "panic:") {
		t.Errorf("trace of a truncated artifact failed with %q; want the load error", tinfo.Error)
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz after a trace of a truncated artifact: %+v, %v", h, err)
	}
}

// TestRequestValidation pins the 4xx surface: unknown sessions, duplicate
// sessions, malformed job kinds, and results demanded before completion.
func TestRequestValidation(t *testing.T) {
	g := newGate()
	defer g.open()
	c := startDaemon(t, server.Config{
		Runners: 1, SessionCap: 1, QueueDepth: 4,
		Pipelines: map[string]server.Factory{"block": gatedFactory(g, "v", 8)},
	})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})

	if _, err := c.CreateSession(ctx, sdk.SessionSpec{Name: "s"}); err == nil {
		t.Error("duplicate session accepted")
	}
	if _, err := c.GetSession(ctx, "ghost"); err == nil {
		t.Error("unknown session returned")
	}
	if _, err := c.SubmitJob(ctx, "s", sdk.SubmitJobRequest{Kind: "mystery"}); err == nil {
		t.Error("unknown job kind accepted")
	}
	if _, err := c.SubmitJob(ctx, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline}); err == nil {
		t.Error("pipeline job without scenario or spec accepted")
	}
	if _, err := c.SubmitJob(ctx, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: "j9"}); err == nil {
		t.Error("trace job without a question accepted")
	}

	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	if _, err := c.Provenance(ctx, "s", j.ID); err == nil {
		t.Error("provenance of a running job served; want conflict until done")
	}
	// Tracing a not-yet-done target must fail the trace job, not hang.
	tj := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: j.ID, TraceAll: true})
	g.open()
	waitStatus(t, c, "s", j.ID, sdk.StatusDone)
	// The trace may have raced the pipeline's completion; both outcomes are
	// legal, but it must terminate.
	ctx2, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	tinfo, err := c.WaitJob(ctx2, "s", tj.ID)
	if err != nil {
		t.Fatalf("wait trace: %v", err)
	}
	if tinfo.Status != sdk.StatusDone && tinfo.Status != sdk.StatusFailed {
		t.Errorf("trace against racing target finished %s, want done or failed", tinfo.Status)
	}
}

// TestStaleSequentialFieldIgnored pins the wire compatibility note of DESIGN
// §12.4: a client built before the "sequential" session field was removed
// may still send it; the daemon accepts the request and ignores the field.
func TestStaleSequentialFieldIgnored(t *testing.T) {
	_, ts := bootDaemon(t, server.Config{Runners: 1, SessionCap: 1, QueueDepth: 4})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"name":"old","partitions":4,"sequential":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("session with a stale sequential field: status %s", resp.Status)
	}
	info, err := sdk.New(ts.URL).GetSession(context.Background(), "old")
	if err != nil {
		t.Fatal(err)
	}
	if info.Partitions != 4 {
		t.Errorf("partitions = %d, want 4", info.Partitions)
	}
}

// TestCreateSessionValidatesSpec: a session spec is refused with 400, and no
// session is created, when its name is empty or holds a path separator, or
// when its partitions or workers exceed the bound on client parallelism.
func TestCreateSessionValidatesSpec(t *testing.T) {
	_, ts := bootDaemon(t, server.Config{Runners: 1, SessionCap: 1, QueueDepth: 4})
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty-name", `{"name":""}`, http.StatusBadRequest},
		{"slash-in-name", `{"name":"a/b"}`, http.StatusBadRequest},
		{"backslash-in-name", `{"name":"a\\b"}`, http.StatusBadRequest},
		{"not-json", `{"name":`, http.StatusBadRequest},
		{"partitions-above-bound", `{"name":"p","partitions":1025}`, http.StatusBadRequest},
		{"workers-above-bound", `{"name":"w","workers":1073741824}`, http.StatusBadRequest},
		{"at-bound", `{"name":"max","partitions":1024,"workers":1024}`, http.StatusCreated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s: status %s, want %d", tc.body, resp.Status, tc.want)
			}
		})
	}
	sessions, err := sdk.New(ts.URL).ListSessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Name != "max" {
		t.Errorf("sessions after the table: %+v, want only %q", sessions, "max")
	}
}

// TestCloseReleasesEventFollowers pins shutdown: Server.Close makes every
// job terminal, so clients following a running and a queued job's events
// reach the end of their streams and the HTTP server behind them can stop
// without cutting them off.
func TestCloseReleasesEventFollowers(t *testing.T) {
	g := newGate()
	defer g.open()
	srv, ts := bootDaemon(t, server.Config{
		Runners: 1, SessionCap: 1, QueueDepth: 8,
		Pipelines: map[string]server.Factory{"block": gatedFactory(g, "b", 8)},
	})
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	running := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	queued := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})

	streamed := make(chan error, 2)
	var following sync.WaitGroup
	for _, id := range []string{running.ID, queued.ID} {
		following.Add(1)
		go func() {
			var first sync.Once
			streamed <- c.StreamEvents(context.Background(), "s", id, func(sdk.JobEvent) error {
				first.Do(following.Done)
				return nil
			})
		}()
	}
	following.Wait()

	closed := make(chan struct{})
	go func() {
		srv.Close() // cancels both jobs, then waits for the runner
		ts.Close()  // waits for every open request
		close(closed)
	}()
	g.open() // the running job's morsel drains, as a real one would
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close and the listener's shutdown still blocked after 30s")
	}
	for range 2 {
		if err := <-streamed; err != nil {
			t.Errorf("event follower ended with %v, want a clean end of stream", err)
		}
	}
}

// bootPolled boots a daemon that reports the job id of every long poll (a
// GET of one job with a wait parameter) on polls as the request arrives, so
// a test can act while a waiter is parked.
func bootPolled(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, <-chan string) {
	t.Helper()
	polls := make(chan string, 64)
	srv, ts := bootWrapped(t, cfg, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && r.URL.Query().Has("wait") {
				polls <- path.Base(r.URL.Path)
			}
			h.ServeHTTP(w, r)
		})
	})
	return srv, ts, polls
}

// awaitPoll waits for one long poll to reach the daemon and returns its job.
func awaitPoll(t *testing.T, polls <-chan string) string {
	t.Helper()
	select {
	case id := <-polls:
		return id
	case <-time.After(30 * time.Second):
		t.Fatal("no long poll reached the daemon within 30s")
		return ""
	}
}

type waited struct {
	info sdk.JobInfo
	err  error
}

// waitAsync runs WaitJob in the background.
func waitAsync(ctx context.Context, c *sdk.Client, sess, id string) <-chan waited {
	out := make(chan waited, 1)
	go func() {
		info, err := c.WaitJob(ctx, sess, id)
		out <- waited{info, err}
	}()
	return out
}

func awaitWaited(t *testing.T, res <-chan waited) waited {
	t.Helper()
	select {
	case w := <-res:
		return w
	case <-time.After(30 * time.Second):
		t.Fatal("WaitJob still parked after 30s")
		return waited{}
	}
}

// getWait issues one long poll by hand and times it.
func getWait(t *testing.T, base, sess, id, wait string) (sdk.JobInfo, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(base + "/v1/sessions/" + sess + "/jobs/" + id + "?wait=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info sdk.JobInfo
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET ?wait=%s: status %s", wait, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info, time.Since(start)
}

// blockCfg is a one-runner daemon whose "block" pipeline waits on g.
func blockCfg(g *gate) server.Config {
	return server.Config{
		Runners: 1, SessionCap: 1, QueueDepth: 8,
		Pipelines: map[string]server.Factory{"block": gatedFactory(g, "b", 8)},
	}
}

// TestLongPollReleasedWhenJobEnds: a WaitJob parked on a running job returns
// the done snapshot as the job ends, not when its wait runs out.
func TestLongPollReleasedWhenJobEnds(t *testing.T) {
	g := newGate()
	defer g.open()
	_, ts, polls := bootPolled(t, blockCfg(g))
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)

	res := waitAsync(context.Background(), c, "s", j.ID)
	awaitPoll(t, polls)
	opened := time.Now()
	g.open()
	w := awaitWaited(t, res)
	if w.err != nil || w.info.Status != sdk.StatusDone {
		t.Fatalf("WaitJob = %s, %v; want done", w.info.Status, w.err)
	}
	if took := time.Since(opened); took > 5*time.Second {
		t.Errorf("WaitJob returned %v after the job could finish: released by its wait running out, not by the job's end", took)
	}
}

// TestLongPollOnCancelledQueuedJob: cancelling a queued job releases the
// waiter parked on it with the cancelled snapshot.
func TestLongPollOnCancelledQueuedJob(t *testing.T) {
	g := newGate()
	defer g.open()
	_, ts, polls := bootPolled(t, blockCfg(g))
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	queued := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})

	res := waitAsync(context.Background(), c, "s", queued.ID)
	awaitPoll(t, polls)
	if _, err := c.CancelJob(context.Background(), "s", queued.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if w := awaitWaited(t, res); w.err != nil || w.info.Status != sdk.StatusCancelled {
		t.Errorf("WaitJob = %s, %v; want cancelled", w.info.Status, w.err)
	}
}

// TestLongPollOnCancelledRunningJob: cancelling a running job releases the
// waiter once the run unwinds.
func TestLongPollOnCancelledRunningJob(t *testing.T) {
	g := newGate()
	defer g.open()
	_, ts, polls := bootPolled(t, blockCfg(g))
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)

	res := waitAsync(context.Background(), c, "s", j.ID)
	awaitPoll(t, polls)
	if _, err := c.CancelJob(context.Background(), "s", j.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	g.open()
	if w := awaitWaited(t, res); w.err != nil || w.info.Status != sdk.StatusCancelled {
		t.Errorf("WaitJob = %s, %v; want cancelled", w.info.Status, w.err)
	}
}

// TestLongPollOnTerminalJob: a long poll of a job that has already ended is
// answered at once, whatever wait it asks for.
func TestLongPollOnTerminalJob(t *testing.T) {
	_, ts := bootDaemon(t, server.Config{Pipelines: map[string]server.Factory{"tiny": tinyFactory(8, nil)}})
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "tiny"})
	waitStatus(t, c, "s", j.ID, sdk.StatusDone)
	info, took := getWait(t, ts.URL, "s", j.ID, "1h")
	if info.Status != sdk.StatusDone || took > 5*time.Second {
		t.Errorf("long poll of a done job: %s after %v; want done at once", info.Status, took)
	}
}

// TestLongPollClamp: a wait longer than the server's clamp is answered with
// the job's non-terminal snapshot when the clamp runs out.
func TestLongPollClamp(t *testing.T) {
	const clamp = 200 * time.Millisecond
	t.Cleanup(server.SetMaxJobWait(clamp)) // runs after the daemon closes
	g := newGate()
	defer g.open()
	_, ts := bootDaemon(t, blockCfg(g))
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	info, took := getWait(t, ts.URL, "s", j.ID, "1h")
	if info.Status != sdk.StatusRunning {
		t.Errorf("clamped long poll answered %s, want the running snapshot", info.Status)
	}
	if took < clamp || took > clamp+10*time.Second {
		t.Errorf("wait=1h answered after %v; want the %v clamp", took, clamp)
	}
}

// setQuery is a transport that replaces every request's query.
type setQuery string

func (q setQuery) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.URL.RawQuery = string(q)
	return http.DefaultTransport.RoundTrip(r)
}

// TestLongPollBadWait: a wait that is not a non-negative duration is a 400,
// which the SDK surfaces as a typed *sdk.APIError.
func TestLongPollBadWait(t *testing.T) {
	_, ts := bootDaemon(t, server.Config{Pipelines: map[string]server.Factory{"tiny": tinyFactory(8, nil)}})
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "tiny"})
	for _, wait := range []string{"abc", "-1s"} {
		bad := sdk.New(ts.URL, sdk.WithHTTPClient(&http.Client{Transport: setQuery("wait=" + wait)}))
		_, err := bad.WaitJob(context.Background(), "s", j.ID)
		var ae *sdk.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, "invalid wait") {
			t.Errorf("wait=%s: err %v (%T); want a 400 *sdk.APIError about the wait", wait, err, err)
		}
	}
}

// TestWaitJobContextExpires: WaitJob parked on a job that does not end
// returns the context's error when the context expires.
func TestWaitJobContextExpires(t *testing.T) {
	g := newGate()
	defer g.open()
	c := startDaemon(t, blockCfg(g))
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.WaitJob(ctx, "s", j.ID)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitJob past its deadline: %v; want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("WaitJob returned %v after a 200ms deadline", took)
	}
}

// TestCloseReleasesLongPolls pins shutdown for long polls, as
// TestCloseReleasesEventFollowers does for event streams: Server.Close makes
// every job terminal, which answers the waiters parked on a running and a
// queued job, so the HTTP server behind them can stop.
func TestCloseReleasesLongPolls(t *testing.T) {
	g := newGate()
	defer g.open()
	srv, ts, polls := bootPolled(t, blockCfg(g))
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	running := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	queued := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	res := []<-chan waited{
		waitAsync(context.Background(), c, "s", running.ID),
		waitAsync(context.Background(), c, "s", queued.ID),
	}
	awaitPoll(t, polls)
	awaitPoll(t, polls)

	closed := make(chan struct{})
	go func() {
		srv.Close() // cancels both jobs, then waits for the runner
		ts.Close()  // waits for every open request
		close(closed)
	}()
	g.open()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close and the listener's shutdown still blocked after 30s")
	}
	for i, r := range res {
		if w := awaitWaited(t, r); w.err != nil || !sdk.TerminalStatus(w.info.Status) {
			t.Errorf("waiter %d ended with %s, %v; want a terminal snapshot", i, w.info.Status, w.err)
		}
	}
}

// TestLongPollSeesJobInStats: the job is folded into /stats before the long
// poll on it is released, so a client that has seen its job end finds it
// counted.
func TestLongPollSeesJobInStats(t *testing.T) {
	c := startDaemon(t, server.Config{Pipelines: map[string]server.Factory{"tiny": tinyFactory(8, nil)}})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	for i := 1; i <= 20; i++ {
		j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "tiny"})
		waitStatus(t, c, "s", j.ID, sdk.StatusDone)
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Jobs[sdk.StatusDone] != i {
			t.Fatalf("after %d finished jobs /stats counts %v", i, stats.Jobs)
		}
	}
}

// TestStatsCountEveryJob: every submitted job shows in /stats under its
// status after Close, including the queued ones shutdown drains.
func TestStatsCountEveryJob(t *testing.T) {
	g := newGate()
	defer g.open()
	srv, ts := bootDaemon(t, blockCfg(g))
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 4})
	const jobs = 5 // one running, four queued behind the one runner
	submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	g.await(t)
	for range jobs - 1 {
		submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	g.open()
	<-closed
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var counted int
	for _, n := range stats.Jobs {
		counted += n
	}
	if counted != jobs {
		t.Errorf("/stats counts %d jobs (%v) after Close, %d were submitted", counted, stats.Jobs, jobs)
	}
}
