// Command pebbled is the Pebble provenance daemon: it serves the Session
// API over HTTP — named sessions, dataset registration, asynchronous
// pipeline and trace jobs with cancellation and streamed progress — so many
// clients share one capture/query process (ROADMAP item 1).
//
// Usage:
//
//	pebbled [-addr 127.0.0.1:7077] [-data ./pebbled-data]
//	        [-queue-depth 64] [-runners 2] [-session-cap 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pebble/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address")
	dataDir := flag.String("data", "./pebbled-data", "artifact directory (.pbl provenance of capture jobs)")
	queueDepth := flag.Int("queue-depth", 64, "max queued jobs before 429 backpressure")
	runners := flag.Int("runners", 2, "job runner goroutines")
	sessionCap := flag.Int("session-cap", 1, "max concurrently running jobs per session")
	flag.Parse()

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
