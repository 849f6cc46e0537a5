package core_test

import (
	"bytes"
	"testing"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/workload"
)

// TestCaptureIsLazyFromTheStart: a capture is the lazy view of the stream
// its Finish encoded. Right after Capture no association byte is decoded; a
// trace from one operator decodes that operator's bag and no other; and
// WriteTo writes the held stream, the same bytes on every call.
func TestCaptureIsLazyFromTheStart(t *testing.T) {
	for _, name := range []string{"T3", "D1"} {
		t.Run(name, func(t *testing.T) {
			sc, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cap, err := core.Session{Partitions: 4}.Capture(sc.Build(), sc.Input(workload.DefaultScale(1), 4))
			if err != nil {
				t.Fatal(err)
			}
			run := cap.Provenance
			total := run.AssocBytesTotal()
			if total <= 0 || run.AssocBytesDecoded() != 0 {
				t.Fatalf("after Capture: %d association bytes, %d decoded; want some, none decoded", total, run.AssocBytesDecoded())
			}
			// The operator after the first source: its bag is the only one a
			// trace from it reads (a source's is never looked up), and the
			// question is one of its own outputs.
			op := run.Operators()[1]
			if run.Operators()[0].Type != engine.OpSource || op.Type == engine.OpSource {
				t.Fatalf("operators 1 and 2 are %s and %s, want a source and not", run.Operators()[0].Type, op.Type)
			}
			q := backtrace.NewStructure()
			q.Add(op.Columns().Out[0], backtrace.NewTree())
			decoded := run.AssocBytesDecoded()
			if decoded <= 0 || decoded >= total {
				t.Errorf("operator %d's bag is %d of %d association bytes", op.OID, decoded, total)
			}
			if _, err := cap.TraceAt(op, q); err != nil {
				t.Fatal(err)
			}
			if got := run.AssocBytesDecoded(); got != decoded {
				t.Errorf("a trace from operator %d decoded %d association bytes, its own bag %d", op.OID, got, decoded)
			}
			var first, second bytes.Buffer
			if _, err := run.WriteTo(&first); err != nil {
				t.Fatal(err)
			}
			if _, err := run.WriteTo(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("two WriteTo calls wrote %d and %d different bytes", first.Len(), second.Len())
			}
		})
	}
}
