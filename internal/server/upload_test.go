package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pebble/internal/server"
	"pebble/pkg/sdk"
)

// unsized hides a reader's length from net/http, so the request goes out
// chunked and reaches the daemon with ContentLength -1.
type unsized struct{ io.Reader }

func uploadStatus(err error) int {
	var api *sdk.APIError
	if errors.As(err, &api) {
		return api.Status
	}
	return 0
}

// TestUploadSizeLimit: MaxUploadBytes is accepted to the byte and one byte
// more is 413, whether or not the client declared the length; a declared
// length over the limit is refused without reading the body.
func TestUploadSizeLimit(t *testing.T) {
	row := `{"n": 1}` + "\n"
	exact := strings.Repeat(row, 8)
	over := exact + " "
	srv, ts := bootDaemon(t, server.Config{MaxUploadBytes: int64(len(exact))})
	c := sdk.New(ts.URL)
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})

	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int // 0: accepted, with all 8 rows
	}{
		{"exact-sized", strings.NewReader(exact), 0},
		{"exact-unsized", unsized{strings.NewReader(exact)}, 0},
		{"over-sized", strings.NewReader(over), http.StatusRequestEntityTooLarge},
		{"over-unsized", unsized{strings.NewReader(over)}, http.StatusRequestEntityTooLarge},
	} {
		ds, err := c.UploadDataset(ctx, "s", tc.name, 1, tc.body)
		switch {
		case tc.status == 0 && (err != nil || ds.Rows != 8 || ds.Bytes != int64(len(exact))):
			t.Errorf("%s: %+v, %v", tc.name, ds, err)
		case tc.status != 0 && uploadStatus(err) != tc.status:
			t.Errorf("%s: error %v, want http %d", tc.name, err, tc.status)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/datasets?name=unread", mustNotRead{t})
	req.ContentLength = int64(len(over))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared length over the limit: http %d, want 413", rec.Code)
	}
}

// mustNotRead is a request body that fails the test when read.
type mustNotRead struct{ t *testing.T }

func (r mustNotRead) Read([]byte) (int, error) {
	r.t.Error("upload body read although its declared length exceeds the limit")
	return 0, io.EOF
}

// TestDeepUploadIsBadRequest: nesting that used to overflow the daemon's
// stack, which no recover() contains, is a 400 and the daemon keeps serving.
func TestDeepUploadIsBadRequest(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	bomb := "{}\n" + strings.Repeat("[", 20<<20)
	_, err := c.UploadDataset(ctx, "s", "bomb", 0, strings.NewReader(bomb))
	if uploadStatus(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("deep upload: %v, want http 400 citing line 2", err)
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz after deep upload: %+v, %v", h, err)
	}
	if ds, err := c.UploadDataset(ctx, "s", "fine", 0, strings.NewReader(`{"a":[[[[1]]]]}`+"\n")); err != nil || ds.Rows != 1 {
		t.Fatalf("upload after deep upload: %+v, %v", ds, err)
	}
}

// TestUploadPartsBounded: parts past maxParallelism is a 400 before the body
// is parsed. An empty body used to reach engine.NewDataset with parts 1<<40,
// which does not clamp an empty dataset's partition count, and the daemon
// died out of memory, which no recover() contains.
func TestUploadPartsBounded(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	for _, tc := range []struct {
		parts  int
		body   string
		status int // 0: accepted
	}{
		{1 << 40, "", http.StatusBadRequest},
		{1025, `{"a":1}` + "\n", http.StatusBadRequest},
		{1024, "", 0},
	} {
		_, err := c.UploadDataset(ctx, "s", fmt.Sprintf("parts-%d", tc.parts), tc.parts, strings.NewReader(tc.body))
		if got := uploadStatus(err); got != tc.status || (tc.status == 0) != (err == nil) {
			t.Errorf("parts %d: %v, want http %d", tc.parts, err, tc.status)
		}
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz after parts 1<<40: %+v, %v", h, err)
	}
}

// TestSubmitBounded: a spec of more than 1 000 steps or a pattern_text of
// more than 64 KiB is a 400 at submit and never becomes a job; one at the
// bound is queued.
func TestSubmitBounded(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	target := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "T3", SimGB: 1})
	waitStatus(t, c, "s", target.ID, sdk.StatusDone)
	spec := func(steps int) json.RawMessage {
		return json.RawMessage(`{"steps":[` + strings.Repeat(`{"op":"limit","in":0,"in2":-1},`, steps-1) + `{"op":"limit","in":0,"in2":-1}]}`)
	}
	trace := func(n int) sdk.SubmitJobRequest {
		return sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: target.ID, PatternText: strings.Repeat("a(", n/2)}
	}
	for _, tc := range []struct {
		name   string
		req    sdk.SubmitJobRequest
		status int    // 0: accepted
		names  string // what a refusal's message names
	}{
		{"1000 steps", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Spec: spec(1000)}, 0, ""},
		{"1001 steps", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Spec: spec(1001)}, http.StatusBadRequest, "1001 steps"},
		{"shuffleJoin", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Spec: json.RawMessage(`{"steps":[{"op":"source","in":-1,"in2":-1,"dataset":"in"}],"shuffleJoin":true}`)}, http.StatusBadRequest, "shuffleJoin"},
		{"64 KiB pattern", trace(64 << 10), 0, ""},
		{"64 KiB + 1 pattern", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: target.ID, PatternText: trace(64<<10).PatternText + "a"}, http.StatusBadRequest, "pattern_text"},
	} {
		before, err := c.ListJobs(ctx, "s")
		if err != nil {
			t.Fatal(err)
		}
		j, err := c.SubmitJob(ctx, "s", tc.req)
		if got := uploadStatus(err); got != tc.status || (tc.status == 0) != (err == nil) {
			t.Errorf("%s: %v, want http %d", tc.name, err, tc.status)
		}
		if err != nil && !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: %v does not name %q", tc.name, err, tc.names)
		}
		if err == nil {
			if _, err := c.WaitJob(ctx, "s", j.ID); err != nil {
				t.Fatalf("%s: wait: %v", tc.name, err)
			}
		} else if after, err := c.ListJobs(ctx, "s"); err != nil || len(after) != len(before) {
			t.Errorf("%s: refused, but the session went from %d to %d jobs (%v)", tc.name, len(before), len(after), err)
		}
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz after the bounds: %+v, %v", h, err)
	}
}

// TestDeepPatternTextFailsTheJob: a pattern_text nested deeper than the
// parser's cap (here 20 000 levels in 40 KB) fails the trace job with a short
// error, and the daemon keeps serving.
func TestDeepPatternTextFailsTheJob(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	target := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "T3", SimGB: 1})
	waitStatus(t, c, "s", target.ID, sdk.StatusDone)
	tj := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: target.ID,
		PatternText: strings.Repeat("a(", 20_000)})
	if info := waitStatus(t, c, "s", tj.ID, sdk.StatusFailed); len(info.Error) >= 1<<10 {
		t.Errorf("job error is %d bytes, want under 1 KiB", len(info.Error))
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz after deep pattern: %+v, %v", h, err)
	}
}

// TestUploadShowsInStats: an accepted upload moves the session's
// upload_bytes / upload_rows counters and upload_parse / upload_build spans;
// a refused one moves nothing.
func TestUploadShowsInStats(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 2})
	session := func() sdk.SessionStats {
		st, err := c.Stats(ctx)
		if err != nil || len(st.Sessions) != 1 {
			t.Fatalf("stats: %+v, %v", st, err)
		}
		return st.Sessions[0]
	}
	if st := session(); st.Counters["upload_bytes"] != 0 || st.Counters["upload_rows"] != 0 {
		t.Fatalf("counters before any upload: %v", st.Counters)
	}
	body := strings.Repeat(`{"user":{"id":7,"tags":["x","y"]}}`+"\n", 500)
	if _, err := c.UploadDataset(ctx, "s", "a", 0, strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadDataset(ctx, "s", "b", 0, strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadDataset(ctx, "s", "b", 0, strings.NewReader(body)); uploadStatus(err) != http.StatusConflict {
		t.Fatalf("duplicate upload: %v", err)
	}
	if _, err := c.UploadDataset(ctx, "s", "c", 0, strings.NewReader("{")); uploadStatus(err) != http.StatusBadRequest {
		t.Fatalf("malformed upload: %v", err)
	}
	st := session()
	if got, want := st.Counters["upload_bytes"], int64(2*len(body)); got != want {
		t.Errorf("upload_bytes = %d, want %d", got, want)
	}
	if got := st.Counters["upload_rows"]; got != 1000 {
		t.Errorf("upload_rows = %d, want 1000", got)
	}
	for _, span := range []string{"upload_parse", "upload_build"} {
		if ms, ok := st.SpansMS[span]; !ok || ms <= 0 {
			t.Errorf("spans_ms[%q] = %v (present %v), want > 0", span, ms, ok)
		}
	}
}

// TestPersistAndUploadReadShowInStats: a capture job's artifact writes show
// in /stats as the persist span, and an upload's body read as upload_read.
func TestPersistAndUploadReadShowInStats(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s", Partitions: 2})
	body := strings.Repeat(`{"user":{"id":7,"tags":["x","y"]}}`+"\n", 500)
	if _, err := c.UploadDataset(ctx, "s", "a", 0, strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	j := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "T3", SimGB: 1})
	waitStatus(t, c, "s", j.ID, sdk.StatusDone)
	st, err := c.Stats(ctx)
	if err != nil || len(st.Sessions) != 1 {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	for _, span := range []string{"persist", "upload_read"} {
		if ms, ok := st.Sessions[0].SpansMS[span]; !ok || ms <= 0 {
			t.Errorf("spans_ms[%q] = %v (present %v), want > 0", span, ms, ok)
		}
	}
}
