package sdk

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestAPIErrorDecoding pins the error surface: non-2xx responses become
// *APIError with the server's message, and 429 carries the Retry-After
// hint through IsQueueFull.
func TestAPIErrorDecoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/sessions/s/jobs":
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error": "job queue full"}`)) //nolint:errcheck
		default:
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error": "unknown session"}`)) //nolint:errcheck
		}
	}))
	defer ts.Close()
	c := New(ts.URL + "/") // trailing slash must not double up

	_, err := c.SubmitJob(context.Background(), "s", SubmitJobRequest{Kind: KindPipeline, Scenario: "x"})
	ae, full := IsQueueFull(err)
	if !full {
		t.Fatalf("err = %v, want queue-full APIError", err)
	}
	if ae.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s", ae.RetryAfter)
	}
	if ae.Message != "job queue full" {
		t.Errorf("Message = %q", ae.Message)
	}

	_, err = c.GetJob(context.Background(), "s", "j1")
	if ae, ok := err.(*APIError); !ok || ae.Status != http.StatusNotFound || ae.Message != "unknown session" {
		t.Errorf("err = %v (%T), want 404 APIError with message", err, err)
	}
	if _, full := IsQueueFull(err); full {
		t.Error("404 misclassified as queue-full")
	}
}

// TestTerminalStatus pins the status machine's terminal set.
func TestTerminalStatus(t *testing.T) {
	for _, s := range []string{StatusDone, StatusFailed, StatusCancelled} {
		if !TerminalStatus(s) {
			t.Errorf("TerminalStatus(%q) = false", s)
		}
	}
	for _, s := range []string{StatusQueued, StatusRunning, ""} {
		if TerminalStatus(s) {
			t.Errorf("TerminalStatus(%q) = true", s)
		}
	}
}

// TestWaitJobBehindProxyThatDropsWait: a proxy that strips the query turns
// every long poll into an immediate non-terminal answer. WaitJob must then
// back off between requests instead of spinning, and still return the
// terminal info once the job ends.
func TestWaitJobBehindProxyThatDropsWait(t *testing.T) {
	var finished atomic.Bool
	// The daemon side: a job that is running until finished is set.
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			t.Errorf("the proxy let the wait through: %s", r.URL)
		}
		status := StatusRunning
		if finished.Load() {
			status = StatusDone
		}
		json.NewEncoder(w).Encode(JobInfo{ID: "j1", Status: status}) //nolint:errcheck
	}))
	defer daemon.Close()
	var asked, withWait atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		if r.URL.Query().Has("wait") {
			withWait.Add(1)
		}
		resp, err := http.Get(daemon.URL + r.URL.Path)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		var info JobInfo
		json.NewDecoder(resp.Body).Decode(&info) //nolint:errcheck
		json.NewEncoder(w).Encode(info)          //nolint:errcheck
	}))
	defer proxy.Close()

	const window = 200 * time.Millisecond
	time.AfterFunc(window, func() { finished.Store(true) })
	start := time.Now()
	info, err := New(proxy.URL).WaitJob(context.Background(), "s", "j1")
	if err != nil || info.Status != StatusDone {
		t.Fatalf("WaitJob = %s, %v; want done", info.Status, err)
	}
	n := asked.Load()
	if withWait.Load() != n {
		t.Errorf("%d of %d requests carried a wait", withWait.Load(), n)
	}
	// At the 25 ms back-off ≈ 9 requests cover the window; 40 is a loose bound
	// that a client without a back-off would exceed many times over.
	if n < 2 || n > 40 {
		t.Errorf("WaitJob made %d requests in %v behind the proxy; want a bounded handful", n, time.Since(start))
	}
}
