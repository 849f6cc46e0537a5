package server

import (
	"context"
	"sync"
	"time"

	"pebble/internal/engine"
	"pebble/internal/obs"
	"pebble/pkg/sdk"
)

// job is one asynchronous unit of daemon work: a pipeline execution under
// provenance capture, or a backtracing query over a completed one. Its
// lifecycle is the sdk status machine (queued → running → done | failed |
// cancelled, with cancellation also possible while queued); every
// transition and every observability event is appended to an in-memory
// event log that any number of watchers can follow concurrently.
type job struct {
	id   string
	kind string
	sess *session
	req  sdk.SubmitJobRequest

	// ctx is cancelled by the cancel endpoint (or server shutdown); the
	// engine observes it at every morsel boundary, the backtracer at every
	// operator step.
	ctx    context.Context
	cancel context.CancelFunc

	// rec is the job's private metric recorder. Runs must not share
	// recorders (operator registration races), so isolation per job is a
	// correctness requirement, not just bookkeeping; session-level /stats
	// aggregates fold finished jobs' snapshots instead.
	rec *obs.Recorder

	mu       sync.Mutex
	changed  chan struct{} // closed and replaced on every event append; guarded by mu
	status   string
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	events   []sdk.JobEvent

	// pipeline-job outputs. result stays in memory for later pattern
	// matching; the provenance itself lives only in the .pbl artifact once
	// persisted, so completed captures cost disk, not heap.
	pipeline  *engine.Pipeline
	result    *engine.Result
	provPath  string
	provBytes int64

	// trace-job output.
	trace *sdk.TraceOutput

	// done is closed by finish once the job is terminal and absorbed into
	// its session's /stats, releasing every long poll parked on the job.
	done chan struct{}
}

func newJob(id, kind string, sess *session, req sdk.SubmitJobRequest) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id: id, kind: kind, sess: sess, req: req,
		ctx: ctx, cancel: cancel,
		rec:     obs.NewRecorder(),
		status:  sdk.StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
		changed: make(chan struct{}),
	}
	return j
}

// event appends one event, stamping sequence and time, and wakes watchers.
func (j *job) event(ev sdk.JobEvent) {
	j.mu.Lock()
	j.appendEventLocked(ev)
	j.mu.Unlock()
}

func (j *job) appendEventLocked(ev sdk.JobEvent) {
	ev.Seq = len(j.events)
	ev.Time = time.Now()
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// start transitions queued → running and installs the observability tap
// that turns recorder events into job events. Returns false when the job
// was cancelled before a runner picked it up.
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != sdk.StatusQueued {
		return false
	}
	j.status = sdk.StatusRunning
	j.started = time.Now()
	j.appendEventLocked(sdk.JobEvent{Kind: "status", Status: sdk.StatusRunning})
	j.rec.SetTap(func(ev obs.Event) {
		je := sdk.JobEvent{OID: ev.OID, OpType: ev.Type, Span: ev.Span}
		switch ev.Kind {
		case "op":
			je.Kind = "op"
		case "span_start":
			je.Kind = "phase_start"
		case "span_end":
			je.Kind = "phase_end"
			je.ElapsedMS = float64(ev.Elapsed.Nanoseconds()) / 1e6
		default:
			return
		}
		j.event(je)
	})
	return true
}

// finish moves the job to a terminal status, stops tap delivery, folds the
// job into its session's /stats and then closes done, so a released waiter
// always finds its job counted. It is idempotent: the first terminal
// transition wins, and only it absorbs the job and closes done.
func (j *job) finish(status, errMsg string) {
	j.rec.SetTap(nil)
	j.mu.Lock()
	if sdk.TerminalStatus(j.status) {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.errMsg = errMsg
	j.finished = time.Now()
	ev := sdk.JobEvent{Kind: "status", Status: status}
	if errMsg != "" {
		ev.Message = errMsg
	}
	j.appendEventLocked(ev)
	j.mu.Unlock()
	j.sess.absorb(j)
	close(j.done)
}

// wait blocks until the job is terminal, d has passed, or ctx ends.
func (j *job) wait(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.done:
	case <-t.C:
	case <-ctx.Done():
	}
}

// info snapshots the job for the wire.
func (j *job) info() sdk.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := sdk.JobInfo{
		ID:      j.id,
		Session: j.sess.name,
		Kind:    j.kind,
		Status:  j.status,
		Error:   j.errMsg,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	if j.result != nil {
		info.ResultRows = j.result.Output.Len()
	}
	info.ProvBytes = j.provBytes
	if j.trace != nil {
		info.Matched = j.trace.Matched
	}
	return info
}

// eventsFrom returns the events at index >= from plus whether the job has
// reached a terminal status (watchers drain the log, then stop).
func (j *job) eventsFrom(from int) ([]sdk.JobEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []sdk.JobEvent
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, sdk.TerminalStatus(j.status)
}

// waitEvents blocks until the log grows past from, the job terminates, or
// wake is closed (the watcher's way out when its client disconnects).
func (j *job) waitEvents(from int, wake <-chan struct{}) {
	j.mu.Lock()
	changed := j.changed
	ready := from < len(j.events) || sdk.TerminalStatus(j.status)
	j.mu.Unlock()
	if ready {
		return
	}
	// Every status change appends an event, so one append is enough.
	select {
	case <-changed:
	case <-wake:
	}
}
