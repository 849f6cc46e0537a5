// Command pebbled is the Pebble provenance daemon: it serves the Session
// API over HTTP — named sessions, dataset registration, asynchronous
// pipeline and trace jobs with cancellation and streamed progress — so many
// clients share one capture/query process (ROADMAP item 1).
//
// Usage:
//
//	pebbled [-addr 127.0.0.1:7077] [-data ./pebbled-data]
//	        [-queue-depth 64] [-runners 2] [-session-cap 1]
//	pebbled -smoke T3
//
// The -smoke form is the CI gate (`make serve-smoke`): it boots the daemon
// on an ephemeral port, drives the named scenario end-to-end through the
// pkg/sdk client — capture, provenance download, trace — and exits non-zero
// unless the daemon's provenance bytes and trace answer (report and JSON
// result) are identical to a direct library execution.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pebble"
	"pebble/internal/server"
	"pebble/internal/workload"
	"pebble/pkg/sdk"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address")
	dataDir := flag.String("data", "./pebbled-data", "artifact directory (.pbl/.idx job outputs)")
	queueDepth := flag.Int("queue-depth", 64, "max queued jobs before 429 backpressure")
	runners := flag.Int("runners", 2, "job runner goroutines")
	sessionCap := flag.Int("session-cap", 1, "max concurrently running jobs per session")
	smoke := flag.String("smoke", "", "run the end-to-end smoke check for the named scenario (T1–T5, D1–D5) and exit")
	flag.Parse()

	if *smoke != "" {
		if err := runSmoke(*smoke); err != nil {
			fmt.Fprintf(os.Stderr, "pebbled smoke %s: FAIL: %v\n", *smoke, err)
			os.Exit(1)
		}
		fmt.Printf("pebbled smoke %s: PASS\n", *smoke)
		return
	}

	cfg := server.Config{
		DataDir:    *dataDir,
		QueueDepth: *queueDepth,
		Runners:    *runners,
		SessionCap: *sessionCap,
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pebbled: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		fmt.Fprintf(os.Stderr, "pebbled: listen: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("pebbled listening on http://%s (data: %s, queue %d, runners %d, session cap %d)\n",
		ln.Addr(), *dataDir, *queueDepth, *runners, *sessionCap)
	if err := serve(ctx, srv, &http.Server{Handler: srv.Handler()}, ln, 10*time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "pebbled: %v\n", err)
		os.Exit(1)
	}
}

// serve runs the daemon — hs, serving srv's handler — on ln until ctx is
// cancelled (or the listener fails), then shuts down in the order that loses
// no response: first the job server, which cancels every job and so brings
// the event streams clients are following to their terminal line and answers
// the long polls parked on those jobs; then the
// HTTP server, whose Shutdown returns once those in-flight responses have
// been written, or after drain at the latest. It returns only when both are
// down.
func serve(ctx context.Context, srv *server.Server, hs *http.Server, ln net.Listener, drain time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var serveErr error
	select {
	case serveErr = <-served:
	case <-ctx.Done():
	}
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close() //nolint:errcheck // drain timed out; cutting the rest is the point
		return fmt.Errorf("shutdown: %w", err)
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", serveErr)
	}
	return nil
}

// runSmoke is the serve-smoke gate: one scenario through a live daemon via
// the SDK must reproduce the library execution byte for byte.
func runSmoke(scenario string) error {
	sc, err := workload.ByName(scenario)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "pebbled-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // shut down below
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := sdk.New("http://" + ln.Addr().String())

	if _, err := c.CreateSession(ctx, sdk.SessionSpec{Name: "smoke"}); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	job, err := c.SubmitJob(ctx, "smoke", sdk.SubmitJobRequest{
		Kind: sdk.KindPipeline, Scenario: scenario, SimGB: 1,
	})
	if err != nil {
		return fmt.Errorf("submit pipeline: %w", err)
	}
	// Follow the event stream while the job runs: the smoke check also
	// exercises live progress delivery end to end.
	events := 0
	if err := c.StreamEvents(ctx, "smoke", job.ID, func(sdk.JobEvent) error {
		events++
		return nil
	}); err != nil {
		return fmt.Errorf("stream events: %w", err)
	}
	info, err := c.WaitJob(ctx, "smoke", job.ID)
	if err != nil {
		return fmt.Errorf("wait pipeline: %w", err)
	}
	if info.Status != sdk.StatusDone {
		return fmt.Errorf("pipeline job %s: %s (%s)", job.ID, info.Status, info.Error)
	}
	remote, err := c.Provenance(ctx, "smoke", job.ID)
	if err != nil {
		return fmt.Errorf("download provenance: %w", err)
	}

	// The library execution the daemon must match byte for byte.
	sess := pebble.NewSession()
	cap, err := sess.CaptureContext(ctx, sc.Build(), sc.Input(workload.DefaultScale(1), sess.ResolvePartitions(0)))
	if err != nil {
		return fmt.Errorf("library capture: %w", err)
	}
	var local bytes.Buffer
	if _, err := cap.Provenance.WriteTo(&local); err != nil {
		return err
	}
	if !bytes.Equal(remote, local.Bytes()) {
		return fmt.Errorf("provenance bytes differ: daemon %d bytes, library %d bytes", len(remote), local.Len())
	}

	// Trace through the daemon (pattern over the wire as JSON) vs library.
	patJSON, err := json.Marshal(sc.Pattern)
	if err != nil {
		return err
	}
	tjob, err := c.SubmitJob(ctx, "smoke", sdk.SubmitJobRequest{
		Kind: sdk.KindTrace, TargetJob: job.ID, Pattern: patJSON,
	})
	if err != nil {
		return fmt.Errorf("submit trace: %w", err)
	}
	tinfo, err := c.WaitJob(ctx, "smoke", tjob.ID)
	if err != nil {
		return fmt.Errorf("wait trace: %w", err)
	}
	if tinfo.Status != sdk.StatusDone {
		return fmt.Errorf("trace job %s: %s (%s)", tjob.ID, tinfo.Status, tinfo.Error)
	}
	out, err := c.TraceResult(ctx, "smoke", tjob.ID)
	if err != nil {
		return fmt.Errorf("trace result: %w", err)
	}
	q, err := cap.Query(sc.Pattern)
	if err != nil {
		return fmt.Errorf("library query: %w", err)
	}
	if out.Report != q.Report() {
		return fmt.Errorf("trace reports differ:\n-- daemon --\n%s\n-- library --\n%s", out.Report, q.Report())
	}
	result, err := q.JSON()
	if err != nil {
		return fmt.Errorf("library result: %w", err)
	}
	if !bytes.Equal(out.Result, result) {
		return fmt.Errorf("trace results differ: daemon %d bytes, library %d bytes", len(out.Result), len(result))
	}
	fmt.Printf("scenario %s: %d events streamed, %d provenance bytes, %d matched item(s) — daemon == library\n",
		scenario, events, len(remote), out.Matched)
	return nil
}
