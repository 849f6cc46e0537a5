package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for an
// operation's root). Side tells the daemon pass from the library replay.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      string `json:"op"`
	Side    string `json:"side"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"` // duration minus what child spans cover
}

// trace keeps the spans of one run in memory until the workload ends. A nil
// *trace records nothing, which is how untraced runs call the same code.
type trace struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTrace() *trace { return &trace{t0: time.Now()} }

// add records a finished interval and returns its span ID.
func (t *trace) add(parent int, opID, side, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: opID, Side: side, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), DurNS: d.Nanoseconds(),
	})
	return id
}

// open starts a span whose end is not known yet; the returned function ends
// it and reports its duration.
func (t *trace) open(parent int, opID, side, name string) (int, func() time.Duration) {
	start := time.Now()
	id := t.add(parent, opID, side, name, start, 0)
	return id, func() time.Duration {
		d := time.Since(start)
		if t != nil {
			t.mu.Lock()
			t.spans[id-1].DurNS = d.Nanoseconds()
			t.mu.Unlock()
		}
		return d
	}
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *trace) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNS < t.spans[kids[b]].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := t.spans[k].StartNS, t.spans[k].StartNS+t.spans[k].DurNS
			if lo < end {
				lo = end
			}
			if limit := s.StartNS + s.DurNS; hi > limit {
				hi = limit
			}
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		s.SelfNS = s.DurNS - covered
	}
	return t.spans
}

// write stores the spans as JSON lines.
func (t *trace) write(path string) error {
	spans := t.finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
