package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pebble/internal/server"
	"pebble/pkg/sdk"
)

// daemon is one in-process pebbled on a loopback listener with shipped
// defaults (2 runners, session cap 1, queue depth 64) and the SDK client
// that talks to it, default PollInterval included.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	client *sdk.Client
	dir    string
}

func startDaemon(dir string, pipelines map[string]server.Factory) (*daemon, error) {
	srv, err := server.New(server.Config{DataDir: dir, Pipelines: pipelines})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		client: sdk.New("http://" + ln.Addr().String()), dir: dir,
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return d, nil
}

// stop shuts the listener and the runner pool down, waits for both, and
// removes the data directory.
func (d *daemon) stop() {
	d.hs.Close() //nolint:errcheck // nothing to do about a failed close
	<-d.served
	d.srv.Close()
	os.RemoveAll(d.dir) //nolint:errcheck // scratch directory
}

// artifactBytes is the size of the .pbl and .idx files the daemon persisted
// for a capture job.
func (d *daemon) artifactBytes(session, jobID string) (int64, error) {
	var n int64
	for _, ext := range []string{".pbl", ".idx"} {
		fi, err := os.Stat(filepath.Join(d.dir, session+"-"+jobID+ext))
		if err != nil {
			return 0, fmt.Errorf("artifact of job %s: %w", jobID, err)
		}
		n += fi.Size()
	}
	return n, nil
}

// op is one client operation: what was asked, how long the client waited,
// and what the daemon said about it.
type op struct {
	// Class groups operations whose latencies are comparable, e.g.
	// "capture:T3" or "point"; ID is unique within the run and shared by
	// the operation's daemon and library spans.
	Class string
	ID    string
	Round int
	Kind  string // pipeline, trace, upload, download or cycle

	Session  string
	Scenario string // pipeline factory or trace target
	Capture  bool
	Dataset  string // upload name
	Target   string // job id a trace or download addresses
	Pattern  string // key into the workload's pattern table

	Start    time.Time
	Latency  time.Duration
	Terminal time.Time // when WaitJob returned
	Decode   time.Duration
	Info     sdk.JobInfo
	Bytes    int64  // payload bytes moved: upload, download or trace result
	Report   uint64 // hash of a trace's report
	Events   []sdk.JobEvent
	Err      string
	Rejected bool // refused by admission control (429)
	// LayerSum is what the library replay's layer spans of this operation
	// add up to (zero until it has been replayed).
	LayerSum time.Duration
}

func (o *op) fail(format string, args ...any) {
	if o.Err == "" {
		o.Err = fmt.Sprintf(format, args...)
	}
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash writes never fail
	return h.Sum64()
}

// runJob submits a pipeline or trace job and waits for it, the way an SDK
// user does: SubmitJob, WaitJob at the default poll interval and, for a
// trace, TraceResult. With events set it also follows the job's event
// stream, as the traced rounds do.
func (d *daemon) runJob(ctx context.Context, o *op, req sdk.SubmitJobRequest, events bool) {
	o.Start = time.Now()
	job, err := d.client.SubmitJob(ctx, o.Session, req)
	if err != nil {
		o.Latency = time.Since(o.Start)
		_, o.Rejected = sdk.IsQueueFull(err)
		o.fail("submit: %v", err)
		return
	}
	var streamed sync.WaitGroup
	if events {
		streamed.Add(1)
		go func() {
			defer streamed.Done()
			err := d.client.StreamEvents(ctx, o.Session, job.ID, func(ev sdk.JobEvent) error {
				o.Events = append(o.Events, ev)
				return nil
			})
			if err != nil {
				o.fail("stream events: %v", err)
			}
		}()
	}
	info, err := d.client.WaitJob(ctx, o.Session, job.ID)
	o.Terminal = time.Now()
	o.Info = info
	var out sdk.TraceOutput
	if err == nil && info.Status == sdk.StatusDone && req.Kind == sdk.KindTrace {
		out, err = d.client.TraceResult(ctx, o.Session, job.ID)
		o.Decode = time.Since(o.Terminal)
	}
	o.Latency = time.Since(o.Start)
	streamed.Wait()
	switch {
	case err != nil:
		o.fail("job %s: %v", job.ID, err)
	case info.Status != sdk.StatusDone:
		o.fail("job %s ended %s: %s", job.ID, info.Status, info.Error)
	case req.Kind == sdk.KindTrace:
		o.Bytes = int64(len(out.Result) + len(out.Report))
		o.Report = hashString(out.Report)
		if out.Matched != info.Matched {
			o.fail("job %s: result says %d matched, job info %d", job.ID, out.Matched, info.Matched)
		}
	}
}

func (d *daemon) upload(ctx context.Context, o *op, data []byte) {
	o.Start = time.Now()
	info, err := d.client.UploadDataset(ctx, o.Session, o.Dataset, 0, bytes.NewReader(data))
	o.Latency = time.Since(o.Start)
	o.Bytes = int64(len(data))
	if err != nil {
		o.fail("upload %s: %v", o.Dataset, err)
		return
	}
	o.Info.ResultRows = info.Rows
}

// download fetches a job's provenance artifact and returns it.
func (d *daemon) download(ctx context.Context, o *op) []byte {
	o.Start = time.Now()
	data, err := d.client.Provenance(ctx, o.Session, o.Target)
	o.Latency = time.Since(o.Start)
	o.Bytes = int64(len(data))
	if err != nil {
		o.fail("download %s: %v", o.Target, err)
	}
	return data
}
