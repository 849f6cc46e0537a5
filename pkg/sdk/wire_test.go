package sdk

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// frame builds a /result body the way the daemon does.
func frame(matched int, report, result string) string {
	return fmt.Sprintf(`{"matched":%d,"report_bytes":%d,"result_bytes":%d}`+"\n%s%s", matched, len(report), len(result), report, result)
}

// response is one canned /result reply: the body bytes actually sent, and
// the Content-Length and Content-Type announced ("" = chunked, no length).
type response struct {
	body, length, ctype string
}

// serveResponses answers GET …/jobs/<i>/result with responses[i].
func serveResponses(t *testing.T, responses []response) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(strings.Split(r.URL.Path, "/")[5])
		if err != nil || i >= len(responses) {
			http.NotFound(w, r)
			return
		}
		resp := responses[i]
		w.Header().Set("Content-Type", resp.ctype)
		if resp.length != "" {
			w.Header().Set("Content-Length", resp.length)
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(resp.body)) //nolint:errcheck
		if resp.length == "" {
			w.(http.Flusher).Flush() // commits to chunked encoding
		}
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

func TestTraceResultReadsFrame(t *testing.T) {
	report, result := "query matched 2 result item(s)\n…\n", "{\n  \"matched\": 2 <&> \xff\n}"
	body := frame(2, report, result)
	c := serveResponses(t, []response{
		{body, strconv.Itoa(len(body)), TraceResultContentType},
		{frame(0, "", ""), strconv.Itoa(len(frame(0, "", ""))), TraceResultContentType},
	})
	out, err := c.TraceResult(context.Background(), "s", "0")
	if err != nil {
		t.Fatal(err)
	}
	if out.Matched != 2 || out.Report != report || string(out.Result) != result {
		t.Errorf("TraceResult = %+v, want the framed report and result verbatim", out)
	}
	if out, err := c.TraceResult(context.Background(), "s", "1"); err != nil || out.Report != "" || len(out.Result) != 0 {
		t.Errorf("empty frame: %+v, %v", out, err)
	}
}

// TestTraceResultRejectsDamagedBodies pins the frame's integrity rule: a
// body cut anywhere, or whose header, Content-Length and actual length
// disagree, is an error — TraceResult never returns a shortened answer.
func TestTraceResultRejectsDamagedBodies(t *testing.T) {
	report, result := "two\nlines\n", `{"matched": 1}`
	good := frame(1, report, result)
	full := strconv.Itoa(len(good))
	head := func(r, s int64) string {
		return fmt.Sprintf(`{"matched":1,"report_bytes":%d,"result_bytes":%d}`+"\n", r, s)
	}
	sized := func(body string) response {
		return response{body, strconv.Itoa(len(body)), TraceResultContentType}
	}
	envelope := `{"matched":1,"report":"two","result":{}}` + "\n"
	cases := map[string]response{
		"chunked, no Content-Length": {good, "", TraceResultContentType},
		"JSON envelope":              {envelope, strconv.Itoa(len(envelope)), "application/json"},
		"no content type":            {good, full, ""},
		"trailing byte":              sized(good + "x"),
		"report one longer":          sized(head(int64(len(report))+1, int64(len(result))) + report + result),
		"report one shorter":         sized(head(int64(len(report))-1, int64(len(result))) + report + result),
		"result one longer":          sized(head(int64(len(report)), int64(len(result))+1) + report + result),
		"result one shorter":         sized(head(int64(len(report)), int64(len(result))-1) + report + result),
		"negative report":            sized(head(-1, int64(len(report)+len(result))+1) + report + result),
		"negative result":            sized(head(int64(len(report)+len(result))+1, -1) + report + result),
		"lengths that overflow":      sized(head(1<<63-1, 1<<63-1) + report + result),
		"header not JSON":            sized("report 10 result 14\n" + report + result),
		"header line too long":       sized(strings.Repeat(" ", 600) + good),
		"no header line":             sized(report + result),
	}
	for i := 0; i < len(good); i++ {
		// Cut by the peer mid-body, and cut by something that re-measured it.
		cases[fmt.Sprintf("prefix %d under the full length", i)] = response{good[:i], full, TraceResultContentType}
		cases[fmt.Sprintf("prefix %d under its own length", i)] = sized(good[:i])
	}
	names := make([]string, 0, len(cases))
	responses := make([]response, 0, len(cases))
	for name, r := range cases {
		names = append(names, name)
		responses = append(responses, r)
	}
	c := serveResponses(t, responses)
	for i, name := range names {
		if out, err := c.TraceResult(context.Background(), "s", strconv.Itoa(i)); err == nil {
			t.Errorf("%s: accepted, returning report %q result %q", name, out.Report, out.Result)
		}
	}
}
