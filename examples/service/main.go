// Service walkthrough: run pebble as a daemon and drive it entirely through
// the Go SDK — the provenance-as-a-service shape (DESIGN.md §12).
//
// The example boots an in-process pebbled server on an ephemeral port (in
// production you would `go run ./cmd/pebbled -addr :7077` once and point
// many clients at it), then walks the full remote lifecycle:
//
//  1. create a named session (the remote pebble.NewSession),
//  2. upload a dataset as JSON lines,
//  3. submit a pipeline over it as an asynchronous job (a corpus spec on
//     the wire) and follow its streamed progress events,
//  4. ask a provenance question as a trace job against the completed run's
//     persisted artifact,
//  5. read the session's metric aggregates from /stats.
//
// Run with:
//
//	go run ./examples/service
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"pebble/internal/corpus"
	"pebble/internal/server"
	"pebble/pkg/sdk"
)

func main() {
	// --- Boot a daemon (stand-in for a long-running pebbled process). ---
	dir, err := os.MkdirTemp("", "pebble-service")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed below
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("pebbled serving at %s (artifacts in %s)\n\n", base, dir)

	ctx := context.Background()
	c := sdk.New(base)

	// --- 1. A named session: the remote form of pebble.NewSession. ---
	// Partitioning is fixed per session, so identifiers — and with them
	// captured provenance — are deterministic no matter which runner
	// goroutine executes the job.
	sess, err := c.CreateSession(ctx, sdk.SessionSpec{Name: "demo", Partitions: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %q: %d partitions\n", sess.Name, sess.Partitions)

	// --- 2. Upload a dataset as JSON lines. ---
	orders := strings.Join([]string{
		`{"order": "o1", "customer": "alice", "total": 70}`,
		`{"order": "o2", "customer": "bob", "total": 249}`,
		`{"order": "o3", "customer": "alice", "total": 82}`,
		`{"order": "o4", "customer": "carol", "total": 50}`,
		`{"order": "o5", "customer": "bob", "total": 12}`,
	}, "\n")
	ds, err := c.UploadDataset(ctx, "demo", "orders", 0, strings.NewReader(orders))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %q: %d rows in %d partitions\n\n", ds.Name, ds.Rows, ds.Partitions)

	// --- 3. A pipeline job: a corpus spec on the wire, sources resolved
	// against the session's uploaded datasets. Submission is asynchronous —
	// the job queues behind admission control and runs with provenance
	// capture on a per-job metric recorder.
	spec := corpus.Spec{
		Steps: []corpus.Step{
			{Op: corpus.StepSource, In: -1, In2: -1, Dataset: "orders"},
			{Op: corpus.StepFilter, In: 0, In2: -1, Pred: &corpus.Pred{Col: "total", Op: "gt", Int: 60}},
		},
		Sink: 1,
	}
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		log.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, "demo", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Spec: specJSON})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline job %s submitted; streaming progress:\n", job.ID)
	err = c.StreamEvents(ctx, "demo", job.ID, func(e sdk.JobEvent) error {
		switch e.Kind {
		case "status":
			fmt.Printf("  [%d] %s\n", e.Seq, e.Status)
		case "phase_end":
			fmt.Printf("  [%d] phase %s (%.2fms)\n", e.Seq, e.Span, e.ElapsedMS)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	info, err := c.WaitJob(ctx, "demo", job.ID)
	if err != nil {
		log.Fatal(err)
	}
	if info.Status != sdk.StatusDone {
		log.Fatalf("job %s: %s (%s)", job.ID, info.Status, info.Error)
	}
	fmt.Printf("job %s done: %d result rows, %d provenance bytes persisted\n\n",
		job.ID, info.ResultRows, info.ProvBytes)

	// --- 4. A provenance question as a trace job. The daemon reloads the
	// persisted artifact lazily — this works even if the capturing process
	// restarted in between.
	trace, err := c.SubmitJob(ctx, "demo", sdk.SubmitJobRequest{
		Kind: sdk.KindTrace, TargetJob: job.ID,
		PatternText: `//customer == "alice"`,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, "demo", trace.ID); err != nil {
		log.Fatal(err)
	}
	out, err := c.TraceResult(ctx, "demo", trace.ID)
	if err != nil {
		log.Fatal(err)
	}
	// out.Report and out.Result are the bytes the job produced — the text of
	// QueryResult.Report and the document of QueryResult.JSON — delivered
	// verbatim behind a length header, not re-encoded on the way.
	fmt.Printf("trace job %s matched %d result item(s) (%d-byte JSON result):\n%s\n",
		trace.ID, out.Matched, len(out.Result), out.Report)

	// --- 5. Session aggregates from the per-job recorders. ---
	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range stats.Sessions {
		if s.Name != "demo" {
			continue
		}
		fmt.Printf("session %q aggregates: rows_in=%d rows_out=%d prov_bytes=%d\n",
			s.Name, s.Counters["rows_in"], s.Counters["rows_out"], s.Counters["prov_bytes"])
	}
}
