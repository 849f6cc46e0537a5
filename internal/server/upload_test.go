package server_test

import (
	"context"
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

// TestDeepPatternTextFailsTheJob: a 9 MB pattern_text nested three million
// levels deep used to overflow the daemon's stack; now the trace job fails
// with a short error and the daemon keeps serving.
func TestDeepPatternTextFailsTheJob(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()
	mustSession(t, c, sdk.SessionSpec{Name: "s"})
	target := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: "T3", SimGB: 1})
	waitStatus(t, c, "s", target.ID, sdk.StatusDone)
	tj := submit(t, c, "s", sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: target.ID,
		PatternText: strings.Repeat("a(", 3_000_000)})
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
