package server_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pebble/internal/engine"
	"pebble/internal/server"
	"pebble/pkg/sdk"
)

// tinyFactory is a fast, gate-free pipeline for load tests.
func tinyFactory(rows int) server.Factory {
	return server.Factory{
		Build: func() (*engine.Pipeline, error) {
			p := engine.NewPipeline()
			src := p.Source("in")
			p.Filter(src, engine.Gt(engine.Col("n"), engine.LitInt(2)))
			return p, nil
		},
		Inputs: func(_, partitions int) (map[string]*engine.Dataset, error) {
			return map[string]*engine.Dataset{"in": intDataset(rows, partitions)}, nil
		},
	}
}

// TestHammer100Clients floods one daemon with 100 concurrent clients
// against a tiny queue. The contract under load: every submission either
// lands (and then reaches a terminal status) or is refused with the 429
// backpressure signal — no hangs, no lost jobs, and the bounded queue keeps
// admitted work at a size the daemon can hold. Run with -race, this is also
// the concurrency audit of the whole job/queue/session path. Every admitted
// client parks a long poll in WaitJob; after Close no handler or wait timer
// may outlive its request.
func TestHammer100Clients(t *testing.T) {
	const clients = 100
	baseline := runtime.NumGoroutine()
	srv, ts := bootDaemon(t, server.Config{
		Runners: 2, SessionCap: 2, QueueDepth: 4,
		Pipelines: map[string]server.Factory{"tiny": tinyFactory(32)},
	})
	c := sdk.New(ts.URL)
	mustSession(t, c, sdk.SessionSpec{Name: "h", Partitions: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var accepted, rejected, completed, otherErr atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := c.SubmitJob(ctx, "h", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "tiny"})
			if err != nil {
				if _, full := sdk.IsQueueFull(err); full {
					rejected.Add(1)
					return
				}
				otherErr.Add(1)
				t.Errorf("submit: %v", err)
				return
			}
			accepted.Add(1)
			final, err := c.WaitJob(ctx, "h", info.ID)
			if err != nil {
				otherErr.Add(1)
				t.Errorf("wait %s: %v", info.ID, err)
				return
			}
			if final.Status == sdk.StatusDone {
				completed.Add(1)
			} else {
				t.Errorf("job %s finished %s (%s), want done", info.ID, final.Status, final.Error)
			}
			// Exercise the read paths concurrently too.
			if _, err := c.Provenance(ctx, "h", info.ID); err != nil {
				t.Errorf("provenance %s: %v", info.ID, err)
			}
		}()
	}
	wg.Wait()

	t.Logf("accepted=%d rejected=%d completed=%d", accepted.Load(), rejected.Load(), completed.Load())
	if accepted.Load()+rejected.Load() != clients || otherErr.Load() != 0 {
		t.Errorf("accounting broken: accepted %d + rejected %d != %d (other errors %d)",
			accepted.Load(), rejected.Load(), clients, otherErr.Load())
	}
	if rejected.Load() == 0 {
		t.Error("100 clients against queue depth 4 produced no 429s; admission control is not engaging")
	}
	if completed.Load() != accepted.Load() {
		t.Errorf("%d accepted but only %d completed: jobs were lost", accepted.Load(), completed.Load())
	}

	// The daemon must still be coherent after the storm.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats after hammer: %v", err)
	}
	if got := int64(stats.Jobs[sdk.StatusDone]); got != completed.Load() {
		t.Errorf("stats count %d done jobs, clients observed %d", got, completed.Load())
	}
	if stats.Queued != 0 || stats.Running != 0 {
		t.Errorf("queue not drained after hammer: queued=%d running=%d", stats.Queued, stats.Running)
	}

	srv.Close()
	ts.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5s after Close, %d before the daemon booted:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
