package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"pebble/internal/core"
	"pebble/internal/server"
	"pebble/internal/workload"
	"pebble/pkg/sdk"
)

// TestDaemonMatchesLibrary is the SDK-vs-library differential: every paper
// scenario submitted through a live daemon must yield byte-identical
// serialized provenance and a byte-identical trace answer (report and JSON
// result) compared to direct library execution, for Workers 1 and Workers NumCPU. This is the
// service-layer extension of the oracle harness: the daemon may add
// queueing, persistence, and reload between capture and query, but never
// semantics.
func TestDaemonMatchesLibrary(t *testing.T) {
	c := startDaemon(t, server.Config{Runners: 2, SessionCap: 2, QueueDepth: 64})
	ctx := context.Background()
	workersList := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workersList = append(workersList, n)
	}
	for _, w := range workersList {
		mustSession(t, c, sdk.SessionSpec{Name: fmt.Sprintf("w%d", w), Workers: w})
	}

	for _, sc := range workload.AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			// Library reference execution (default session).
			lib := core.NewSession()
			cap, err := lib.Capture(sc.Build(), sc.Input(workload.DefaultScale(1), lib.ResolvePartitions(0)))
			if err != nil {
				t.Fatalf("library capture: %v", err)
			}
			var wantProv bytes.Buffer
			if _, err := cap.Provenance.WriteTo(&wantProv); err != nil {
				t.Fatal(err)
			}
			q, err := cap.Query(sc.Pattern)
			if err != nil {
				t.Fatalf("library query: %v", err)
			}
			wantReport := q.Report()
			wantResult, err := q.JSON()
			if err != nil {
				t.Fatalf("library result: %v", err)
			}
			patJSON, err := json.Marshal(sc.Pattern)
			if err != nil {
				t.Fatalf("pattern to wire form: %v", err)
			}

			for _, w := range workersList {
				sess := fmt.Sprintf("w%d", w)
				j := submit(t, c, sess, sdk.SubmitJobRequest{
					Kind: sdk.KindPipeline, Scenario: sc.Name, SimGB: 1,
				})
				info := waitStatus(t, c, sess, j.ID, sdk.StatusDone)
				remote, err := c.Provenance(ctx, sess, j.ID)
				if err != nil {
					t.Fatalf("download provenance: %v", err)
				}
				if !bytes.Equal(remote, wantProv.Bytes()) {
					t.Errorf("workers=%d: daemon provenance differs from library (%d vs %d bytes)",
						w, len(remote), wantProv.Len())
				}
				if info.ProvBytes != int64(len(remote)) {
					t.Errorf("workers=%d: job reports %d prov bytes, artifact has %d",
						w, info.ProvBytes, len(remote))
				}

				tj := submit(t, c, sess, sdk.SubmitJobRequest{
					Kind: sdk.KindTrace, TargetJob: j.ID, Pattern: patJSON,
				})
				waitStatus(t, c, sess, tj.ID, sdk.StatusDone)
				out, err := c.TraceResult(ctx, sess, tj.ID)
				if err != nil {
					t.Fatalf("trace result: %v", err)
				}
				if out.Report != wantReport {
					t.Errorf("workers=%d: daemon trace report differs from library:\n-- daemon --\n%s\n-- library --\n%s",
						w, out.Report, wantReport)
				}
				if !bytes.Equal(out.Result, wantResult) {
					t.Errorf("workers=%d: daemon trace result differs from library's QueryResult.JSON (%d vs %d bytes)",
						w, len(out.Result), len(wantResult))
				}
				if out.Matched != q.Matched.Len() {
					t.Errorf("workers=%d: daemon matched %d items, library %d", w, out.Matched, q.Matched.Len())
				}
			}
		})
	}
}

// TestPatternTextOverWire drives the textual pattern grammar through the
// daemon: the same question phrased as pattern_text must trace identically
// to the compiled pattern object.
func TestPatternTextOverWire(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})

	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "T3", SimGB: 1})
	waitStatus(t, c, "s", j.ID, sdk.StatusDone)

	sc, err := workload.ByName("T3")
	if err != nil {
		t.Fatal(err)
	}
	patJSON, err := json.Marshal(sc.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	viaJSON := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: j.ID, Pattern: patJSON})
	viaText := submit(t, c, "s", sdk.SubmitJobRequest{
		Kind: sdk.KindTrace, TargetJob: j.ID,
		PatternText: fmt.Sprintf(`//id_str == %q, tweets(text)`, workload.HotUserID),
	})
	waitStatus(t, c, "s", viaJSON.ID, sdk.StatusDone)
	waitStatus(t, c, "s", viaText.ID, sdk.StatusDone)
	a, err := c.TraceResult(ctx, "s", viaJSON.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.TraceResult(ctx, "s", viaText.ID)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report != b.Report {
		t.Errorf("JSON-pattern and text-pattern traces differ:\n%s\nvs\n%s", a.Report, b.Report)
	}
}
