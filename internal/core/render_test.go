package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
)

// TestRenderPanicsFailTheCall: a panic on a render goroutine of an answer —
// the second half of a large source in appendItems, the report beside the
// JSON in Answer — is the call's *engine.PanicError, and no goroutine is
// left behind.
func TestRenderPanicsFailTheCall(t *testing.T) {
	base := runtime.NumGoroutine()
	// An item without a tree is null in the JSON; the report renders its
	// tree and panics.
	traced := func(n int) *QueryResult {
		s := backtrace.NewStructure()
		tree := backtrace.NewTree()
		for i := 1; i < n; i++ {
			s.Add(int64(i), tree)
		}
		s.Add(int64(n), nil)
		return &QueryResult{Matched: backtrace.NewStructure(), Traced: &backtrace.Result{BySource: map[int]*backtrace.Structure{1: s}}}
	}
	isPanic := func(err error) bool {
		var pe *engine.PanicError
		return errors.As(err, &pe)
	}

	t.Run("appendItems", func(t *testing.T) {
		items := make([]SourceItem, 2*splitItems)
		for i := range items {
			items[i] = SourceItem{SourceOID: 1, Item: &backtrace.Item{ID: int64(i)}}
		}
		last := items[len(items)-1].Item
		_, err := appendItems(nil, items, make(map[*backtrace.Tree][]byte), func(dst []byte, si SourceItem, _ map[*backtrace.Tree][]byte) ([]byte, error) {
			if si.Item == last {
				panic("render the last item")
			}
			return append(dst, 'x'), nil
		})
		if !isPanic(err) {
			t.Errorf("a panic in the second half: error %v, want a *engine.PanicError", err)
		}
	})
	t.Run("Answer/report", func(t *testing.T) {
		if _, _, err := traced(1).Answer(); !isPanic(err) {
			t.Errorf("a panic in the report: error %v, want a *engine.PanicError", err)
		}
	})
	t.Run("Answer/report-second-half", func(t *testing.T) {
		if _, _, err := traced(2 * splitItems).Answer(); !isPanic(err) {
			t.Errorf("a panic in the report's second half: error %v, want a *engine.PanicError", err)
		}
	})
	t.Run("Report", func(t *testing.T) {
		defer func() {
			if err, _ := recover().(error); !isPanic(err) {
				t.Errorf("Report with a panic in its second half raised %v, want a *engine.PanicError", err)
			}
		}()
		report := traced(2 * splitItems).Report()
		t.Errorf("Report with a panic in its second half returned %d bytes", len(report))
	})

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panics, %d before", runtime.NumGoroutine(), base)
		}
	}
}
