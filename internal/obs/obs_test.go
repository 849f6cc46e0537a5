package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.StartOp(1, "filter", 4)
	r.Add(1, 0, RowsIn, 10)
	r.AddOpTime(1, time.Millisecond)
	r.StartSpan(SpanSchedule)()
	s := r.Snapshot()
	if len(s.Ops) != 0 || len(s.Spans) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
	if s.Render(true) == "" {
		t.Fatal("empty render")
	}
}

func TestCountersMergeAcrossShards(t *testing.T) {
	r := NewRecorder()
	r.StartOp(3, "join", 4)
	for part := 0; part < 4; part++ {
		r.Add(3, part, RowsIn, int64(10*(part+1)))
	}
	r.Add(3, 2, KeysHashed, 7)
	s := r.Snapshot()
	op, ok := s.Op(3)
	if !ok {
		t.Fatal("op 3 missing from snapshot")
	}
	if got := op.Counter(RowsIn); got != 100 {
		t.Fatalf("RowsIn = %d, want 100", got)
	}
	if got := op.Counter(KeysHashed); got != 7 {
		t.Fatalf("KeysHashed = %d, want 7", got)
	}
	if op.Type != "join" {
		t.Fatalf("Type = %q, want join", op.Type)
	}
}

// TestAddAutoRegisters covers query-side recording over reloaded runs,
// where no StartOp announces the operators.
func TestAddAutoRegisters(t *testing.T) {
	r := NewRecorder()
	r.Add(9, 5, RowsOut, 3) // part out of range of the 1-shard default
	s := r.Snapshot()
	if op, ok := s.Op(9); !ok || op.Counter(RowsOut) != 3 {
		t.Fatalf("auto-registered op: %+v ok=%v", s.Ops, ok)
	}
	// A later StartOp fills in the type and keeps the counts.
	r.StartOp(9, "select", 8)
	if op, _ := r.Snapshot().Op(9); op.Type != "select" || op.Counter(RowsOut) != 3 {
		t.Fatalf("after StartOp: %+v", op)
	}
}

func TestConcurrentAdds(t *testing.T) {
	r := NewRecorder()
	r.StartOp(1, "filter", 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(1, g, RowsIn, 1)
				// Deliberately collide on shard 0 as well.
				r.Add(1, 0, RowsOut, 1)
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	op, _ := s.Op(1)
	if op.Counter(RowsIn) != 8000 || op.Counter(RowsOut) != 8000 {
		t.Fatalf("lost updates: %+v", op.Counters)
	}
}

func TestSpans(t *testing.T) {
	r := NewRecorder()
	stop := r.StartSpan(SpanBacktrace)
	time.Sleep(time.Millisecond)
	stop()
	r.StartSpan(SpanBacktrace)()
	s := r.Snapshot()
	if len(s.Spans) != 1 {
		t.Fatalf("spans = %+v, want one entry", s.Spans)
	}
	sp := s.Spans[0]
	if sp.Span != SpanBacktrace || sp.Count != 2 || sp.Total <= 0 {
		t.Fatalf("span stat = %+v", sp)
	}
	if s.SpanTotal(SpanPatternMatch) != 0 {
		t.Fatal("never-entered span should total 0")
	}
}

func TestRenderDeterministicWithoutTimings(t *testing.T) {
	build := func() *Stats {
		r := NewRecorder()
		r.StartOp(2, "filter", 2)
		r.StartOp(1, "source", 2)
		r.Add(2, 1, RowsIn, 5)
		r.Add(1, 0, RowsOut, 5)
		r.AddOpTime(2, 123*time.Microsecond) // must not leak into Render(false)
		r.StartSpan(SpanSchedule)()
		return r.Snapshot()
	}
	first := build().Render(false)
	for i := 0; i < 5; i++ {
		if got := build().Render(false); got != first {
			t.Fatalf("render drifted between identical recorders:\n%s\nvs\n%s", first, got)
		}
	}
	if strings.Contains(first, "elapsed") || strings.Contains(first, "spans:") {
		t.Fatalf("Render(false) leaked timing columns:\n%s", first)
	}
	// Operators appear sorted by id even though registered out of order.
	if strings.Index(first, "1    source") > strings.Index(first, "2    filter") {
		t.Fatalf("ops not sorted by id:\n%s", first)
	}
}
