package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/server"
	"pebble/pkg/sdk"
)

// TestServeShutdownAnswersParkedClients pins the daemon's shutdown order. A
// client following a running job's events and a client long-polling it in
// WaitJob are parked on the daemon when the signal arrives: serve must cancel
// the job first, so the stream reaches its terminal line and the long poll
// its terminal snapshot, and return only after those responses are out — not
// cut them by returning early, and not sit out the drain timeout.
func TestServeShutdownAnswersParkedClients(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	block := server.Factory{
		Build: func() (*engine.Pipeline, error) {
			p := engine.NewPipeline()
			p.Map(p.Source("in"), engine.MapFunc{Name: "block", Fn: func(v nested.Value) (nested.Value, error) {
				once.Do(func() { close(entered) })
				<-release
				return v, nil
			}})
			return p, nil
		},
		Inputs: func(_, partitions int) (map[string]*engine.Dataset, error) {
			vals := []nested.Value{nested.Item(nested.F("n", nested.Int(1)))}
			return map[string]*engine.Dataset{"in": engine.NewDataset("in", vals, partitions, engine.NewIDGen(1))}, nil
		},
	}
	srv, err := server.New(server.Config{DataDir: t.TempDir(), Pipelines: map[string]server.Factory{"block": block}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, signal := context.WithCancel(context.Background())
	defer signal()
	const drain = time.Minute
	served := make(chan error, 1)
	polled := make(chan struct{}, 1)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			polled <- struct{}{}
		}
		srv.Handler().ServeHTTP(w, r)
	})
	go func() { served <- serve(ctx, srv, &http.Server{Handler: handler}, ln, drain) }()

	c := sdk.New("http://" + ln.Addr().String())
	bg := context.Background()
	if _, err := c.CreateSession(bg, sdk.SessionSpec{Name: "s", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(bg, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "block"})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	following := make(chan struct{})
	streamed := make(chan error, 1)
	var last sdk.JobEvent // written by the follower until streamed is sent
	go func() {
		var first sync.Once
		streamed <- c.StreamEvents(bg, "s", job.ID, func(ev sdk.JobEvent) error {
			last = ev
			first.Do(func() { close(following) })
			return nil
		})
	}()
	<-following
	type waited struct {
		info sdk.JobInfo
		err  error
	}
	waitedOut := make(chan waited, 1)
	go func() {
		info, err := c.WaitJob(bg, "s", job.ID)
		waitedOut <- waited{info, err}
	}()
	<-polled

	signal()
	close(release) // the morsel in flight drains, as a real one would
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("serve: %v", err)
		}
	case <-time.After(drain / 2):
		t.Fatal("serve still shutting down: the event follower was not released")
	}
	if err := <-streamed; err != nil || !sdk.TerminalStatus(last.Status) {
		t.Errorf("event follower ended with %v after a %q event with status %q; want a clean end on the terminal status", err, last.Kind, last.Status)
	}
	if w := <-waitedOut; w.err != nil || !sdk.TerminalStatus(w.info.Status) {
		t.Errorf("WaitJob ended with %s, %v; want the terminal snapshot", w.info.Status, w.err)
	}
}
