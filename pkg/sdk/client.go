package sdk

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// APIError is a non-2xx daemon response. For 429 (queue full) RetryAfter
// carries the server's backpressure hint.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("pebbled: %s (http %d)", e.Message, e.Status)
	}
	return fmt.Sprintf("pebbled: http %d", e.Status)
}

// IsQueueFull reports whether err is the daemon's admission-control
// rejection (HTTP 429); the client should back off by err.RetryAfter.
func IsQueueFull(err error) (*APIError, bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
		return ae, true
	}
	return nil, false
}

// Client is a pebbled API client. The zero value is not usable; construct
// with New.
type Client struct {
	base string
	http *http.Client
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (e.g. one with a
// transport bound to a test listener).
func WithHTTPClient(h *http.Client) ClientOption { return func(c *Client) { c.http = h } }

// New builds a client for a daemon at baseURL (e.g. "http://127.0.0.1:7077").
func New(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base: trimSlash(baseURL),
		http: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// do issues one request and decodes a JSON response into out (when out is
// non-nil). Non-2xx responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.raw(ctx, method, path, "", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// raw issues one request and returns the (2xx) response; the caller owns
// the body. contentType defaults to application/json for non-nil bodies.
func (c *Client) raw(ctx context.Context, method, path, contentType string, body any) (*http.Response, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case io.Reader:
		rd = b
	default:
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("sdk: encode request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if rd != nil {
		if contentType == "" {
			contentType = "application/json"
		}
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		ae := &APIError{Status: resp.StatusCode}
		var env apiError
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&env); err == nil {
			ae.Message = env.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, ae
	}
	return resp, nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (HealthInfo, error) {
	var h HealthInfo
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Stats fetches the /stats aggregates.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var s ServerStats
	err := c.do(ctx, http.MethodGet, "/stats", nil, &s)
	return s, err
}

// CreateSession registers a named session.
func (c *Client) CreateSession(ctx context.Context, spec SessionSpec) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions", spec, &info)
	return info, err
}

// ListSessions lists all sessions, sorted by name.
func (c *Client) ListSessions(ctx context.Context) ([]SessionInfo, error) {
	var out []SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out, err
}

// GetSession fetches one session.
func (c *Client) GetSession(ctx context.Context, name string) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(name), nil, &info)
	return info, err
}

// UploadDataset registers a dataset from a JSON-lines stream (one nested
// value per line). parts <= 0 inherits the session's partition count.
func (c *Client) UploadDataset(ctx context.Context, session, name string, parts int, jsonLines io.Reader) (DatasetInfo, error) {
	p := fmt.Sprintf("/v1/sessions/%s/datasets?name=%s&parts=%d",
		url.PathEscape(session), url.QueryEscape(name), parts)
	resp, err := c.raw(ctx, http.MethodPost, p, "application/jsonl", jsonLines)
	if err != nil {
		return DatasetInfo{}, err
	}
	defer resp.Body.Close()
	var info DatasetInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	return info, err
}

// SubmitJob enqueues a job; the returned JobInfo is its queued snapshot.
// When the daemon's queue is full the error is an *APIError with Status
// 429 and a RetryAfter hint (see IsQueueFull).
func (c *Client) SubmitJob(ctx context.Context, session string, req SubmitJobRequest) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(session)+"/jobs", req, &info)
	return info, err
}

// GetJob fetches one job's current state.
func (c *Client) GetJob(ctx context.Context, session, id string) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodGet, c.jobPath(session, id, ""), nil, &info)
	return info, err
}

// ListJobs lists the session's jobs in submission order.
func (c *Client) ListJobs(ctx context.Context, session string) ([]JobInfo, error) {
	var out []JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(session)+"/jobs", nil, &out)
	return out, err
}

// CancelJob requests cancellation. Queued jobs cancel immediately; running
// jobs stop scheduling new morsels and transition to cancelled when the
// engine unwinds. The returned snapshot may still read "running".
func (c *Client) CancelJob(ctx context.Context, session, id string) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodPost, c.jobPath(session, id, "/cancel"), nil, &info)
	return info, err
}

// Long-poll pacing of WaitJob. jobWait is the wait each request asks the
// daemon for; the daemon answers sooner when the job ends, and may clamp the
// wait lower. A non-terminal answer that comes back in under half of jobWait
// means something on the path (a proxy that drops the query) answered
// without waiting, and WaitJob sleeps proxyBackoff before it asks again.
const (
	jobWait      = 10 * time.Second
	proxyBackoff = 25 * time.Millisecond
)

// WaitJob returns the job's info once it reaches a terminal status (done,
// failed, cancelled), or the last info and ctx's error when ctx ends first.
// It long-polls GET …/jobs/{id}?wait=: the daemon parks the request until
// the job ends, so WaitJob returns as the job does, not on a poll timer.
func (c *Client) WaitJob(ctx context.Context, session, id string) (JobInfo, error) {
	path := c.jobPath(session, id, "") + "?wait=" + jobWait.String()
	var last JobInfo
	for {
		asked := time.Now()
		var info JobInfo
		if err := c.do(ctx, http.MethodGet, path, nil, &info); err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			}
			return last, err
		}
		if TerminalStatus(info.Status) {
			return info, nil
		}
		last = info
		if time.Since(asked) < jobWait/2 {
			t := time.NewTimer(proxyBackoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return last, ctx.Err()
			case <-t.C:
			}
		}
	}
}

// StreamEvents follows the job's progress events as they happen, invoking
// fn per event in order. It returns when the job reaches a terminal status
// (nil), fn returns an error (that error), or ctx expires. The stream is
// chunked JSON lines fed live from the execution's observability spans.
func (c *Client) StreamEvents(ctx context.Context, session, id string, fn func(JobEvent) error) error {
	resp, err := c.raw(ctx, http.MethodGet, c.jobPath(session, id, "/events"), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("sdk: decode event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// Provenance downloads the serialized provenance artifact (.pbl bytes) of a
// done pipeline job — the exact bytes pebble.Provenance.WriteTo produced, so
// clients can diff daemon captures against local library runs.
func (c *Client) Provenance(ctx context.Context, session, id string) ([]byte, error) {
	resp, err := c.raw(ctx, http.MethodGet, c.jobPath(session, id, "/provenance"), "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TraceResult fetches the payload of a done trace job. The daemon sends the
// report and the result as the bytes the job produced, framed by their
// lengths (TraceResultContentType); a body whose header, Content-Length and
// actual length disagree in any way is an error, never a shortened answer.
func (c *Client) TraceResult(ctx context.Context, session, id string) (TraceOutput, error) {
	resp, err := c.raw(ctx, http.MethodGet, c.jobPath(session, id, "/result"), "", nil)
	if err != nil {
		return TraceOutput{}, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != TraceResultContentType {
		return TraceOutput{}, fmt.Errorf("sdk: job %s result is %q, not a trace result", id, ct)
	}
	// The header line is a few dozen bytes; larger reads bypass the buffer.
	br := bufio.NewReaderSize(resp.Body, 512)
	line, err := br.ReadSlice('\n')
	if err != nil {
		return TraceOutput{}, fmt.Errorf("sdk: read trace result header: %w", err)
	}
	var head TraceResultHeader
	if err := json.Unmarshal(line, &head); err != nil {
		return TraceOutput{}, fmt.Errorf("sdk: decode trace result header: %w", err)
	}
	// Phrased by subtraction so that hostile lengths cannot overflow into
	// agreement; an unknown Content-Length (-1) never agrees.
	rest := resp.ContentLength - int64(len(line))
	if head.ReportBytes < 0 || head.ReportBytes > rest || head.ResultBytes != rest-head.ReportBytes {
		return TraceOutput{}, fmt.Errorf("sdk: trace result header (%d report + %d result bytes after a %d-byte line) disagrees with Content-Length %d",
			head.ReportBytes, head.ResultBytes, len(line), resp.ContentLength)
	}
	report := make([]byte, head.ReportBytes)
	result := make([]byte, head.ResultBytes)
	if _, err := io.ReadFull(br, report); err != nil {
		return TraceOutput{}, fmt.Errorf("sdk: read trace report: %w", err)
	}
	if _, err := io.ReadFull(br, result); err != nil {
		return TraceOutput{}, fmt.Errorf("sdk: read trace result: %w", err)
	}
	return TraceOutput{Matched: head.Matched, Report: string(report), Result: result}, nil
}

func (c *Client) jobPath(session, id, suffix string) string {
	return "/v1/sessions/" + url.PathEscape(session) + "/jobs/" + url.PathEscape(id) + suffix
}
