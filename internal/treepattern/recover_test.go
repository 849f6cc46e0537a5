package treepattern

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"pebble/internal/engine"
	"pebble/internal/nested"
)

// TestMatchRaisesPartitionPanicOnCaller: a check that panics on one row of
// one partition does not kill the process from the partition's goroutine;
// Match raises it again on the caller's goroutine as an *engine.PanicError,
// after every partition goroutine has ended.
func TestMatchRaisesPartitionPanicOnCaller(t *testing.T) {
	vals, err := nested.ParseJSONLines([]byte("{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n{\"n\":4}\n{\"n\":5}\n{\"n\":6}\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := engine.NewDataset("d", vals, 3, engine.NewIDGen(1))
	c := compile(New(Child("n").WithGt(nested.Int(0))))
	if got := c.Match(d).Len(); got != len(vals) {
		t.Fatalf("matched %d of %d rows before the swap", got, len(vals))
	}
	c.prog[0].check = func(v nested.Value) bool {
		if nested.Equal(v, nested.Int(5)) {
			panic("check failed on row 5")
		}
		return true
	}
	baseline := runtime.NumGoroutine()
	func() {
		defer func() {
			var perr *engine.PanicError
			if err, ok := recover().(error); !ok || !errors.As(err, &perr) || perr.Value != "check failed on row 5" {
				t.Errorf("caller recovered %v, want an *engine.PanicError of the check's panic", err)
			}
		}()
		c.Match(d)
		t.Error("Match returned despite a panicking check")
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the match", runtime.NumGoroutine(), baseline)
		}
	}
}
