package provenance_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

var update = flag.Bool("update", false, "rewrite codec golden files under testdata/")

// goldenPipelines are deterministic captures whose serialised forms are
// committed under testdata/: <name>.golden holds the frozen v1 stream and
// <name>.v2.golden the frozen v2 stream — compatibility fixtures: archived
// provenance written before the current codec must decode forever; nothing
// in the binary writes them any more, the reference encoders in
// reference_test.go reproduce them — and <name>.v3.golden the stream WriteTo
// emits today. Together they exercise every association layout the codec
// knows: SourceIDs (1), Unary (2), Binary (3), Flatten (4), Agg (5), and the
// empty tag (0) via the ⊥-annotated map. Committed bytes pin the on-disk
// format: any codec change that silently alters the layout of existing
// streams fails here before it can strand archived provenance (capture and
// audit are days apart in practice).
var goldenPipelines = []struct {
	name  string
	parts int
	build func() *engine.Pipeline
}{
	// The paper's Fig. 1 pipeline: filter, select, flatten, union, aggregate.
	{"example", 3, workload.ExamplePipeline},
	// Map (A = M = ⊥) and join (binary associations plus input schemas).
	{"map-join", 2, func() *engine.Pipeline {
		p := engine.NewPipeline()
		l := p.Source("tweets.json")
		m := p.Map(l, engine.MapFunc{Name: "wrap", Fn: func(v nested.Value) (nested.Value, error) {
			return v, nil
		}})
		sel := p.Select(m, engine.Column("a1", "text"))
		r := p.Source("tweets.json")
		sel2 := p.Select(r, engine.Column("a2", "text"))
		p.Join(sel, sel2, engine.Col("a1"), engine.Col("a2"))
		return p
	}},
	// Set/order operators: distinct, order-by, limit.
	{"ordering", 2, func() *engine.Pipeline {
		p := engine.NewPipeline()
		s := p.Source("tweets.json")
		sel := p.Select(s, engine.Column("text", "text"), engine.Column("name", "user.name"))
		d := p.Distinct(sel)
		o := p.OrderBy(d, false, engine.Col("text"))
		p.Limit(o, 3)
		return p
	}},
}

func goldenRun(t *testing.T, parts int, build func() *engine.Pipeline) *provenance.Run {
	t.Helper()
	_, run, err := provenance.Capture(build(), workload.ExampleInput(parts),
		engine.Options{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// goldenVersions are the three committed streams of a golden pipeline: the
// file suffix, and the encoder that reproduces it — the test-only references
// for the frozen v1 and v2 fixtures, the capture's own stream for v3.
var goldenVersions = []struct {
	suffix string
	frozen bool
	encode func(t testing.TB, run *provenance.Run) []byte
}{
	{".golden", true, func(_ testing.TB, run *provenance.Run) []byte { return provenance.RefEncodeV1(run) }},
	{".v2.golden", true, func(_ testing.TB, run *provenance.Run) []byte { return provenance.RefEncodeV2(run) }},
	{".v3.golden", false, writeTo},
}

// writeTo returns the stream the run writes: for a capture, the v3 stream
// Finish encoded.
func writeTo(t testing.TB, run *provenance.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecGoldenFiles compares freshly captured runs against the committed
// streams byte for byte — the frozen v1 and v2 fixtures and the current v3
// stream — then proves decode → re-encode reproduces each committed stream
// exactly, that all three decode to the same run, and that v3 is never
// longer than v2. Regenerate the v3 stream (only) with:
//
//	go test ./internal/provenance -run TestCodecGoldenFiles -update
func TestCodecGoldenFiles(t *testing.T) {
	for _, g := range goldenPipelines {
		t.Run(g.name, func(t *testing.T) {
			run := goldenRun(t, g.parts, g.build)
			var streams [][]byte
			for _, v := range goldenVersions {
				got := v.encode(t, run)
				p := filepath.Join("testdata", g.name+v.suffix)
				if *update && !v.frozen {
					if err := os.WriteFile(p, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(p)
				if err != nil {
					t.Fatalf("missing golden file (regenerate the current one with -update): %v", err)
				}
				if !bytes.Equal(got, want) {
					if v.frozen {
						t.Fatalf("stream differs from frozen fixture %s (%d vs %d bytes); "+
							"the reference encoder must stay byte-stable so archived streams keep their meaning",
							p, len(got), len(want))
					}
					t.Fatalf("captured stream differs from %s (%d vs %d bytes); "+
						"if the format changed intentionally, add a codec version and rerun with -update",
						p, len(got), len(want))
				}
				// The committed stream decodes and re-encodes byte-identically
				// (a v3 run writes the stream it was loaded from).
				back, err := provenance.ReadRun(bytes.NewReader(want))
				if err != nil {
					t.Fatalf("decode %s: %v", p, err)
				}
				if re := v.encode(t, back); !bytes.Equal(re, want) {
					t.Errorf("decode → re-encode of %s is not byte-identical (%d vs %d bytes)", p, len(re), len(want))
				}
				// And describes the same run as the others: its v3 encoding is
				// the v3 golden.
				if re := provenance.EncodeV3(back); !bytes.Equal(re, writeTo(t, run)) {
					t.Errorf("%s decodes to a different run than was captured", p)
				}
				streams = append(streams, want)
			}
			// v3 run-codes a column only where that is shorter, and its run
			// bits ride in the tag byte: it is never longer than v2.
			if v2, v3 := streams[1], streams[2]; len(v3) > len(v2) {
				t.Errorf("v3 stream is %d bytes vs %d for v2", len(v3), len(v2))
			}
		})
	}
}
