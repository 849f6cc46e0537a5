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
// committed under testdata/: <name>.golden holds the frozen v1 stream (a
// compatibility fixture — archived provenance written before the columnar
// codec must decode forever; nothing in the binary writes it any more, the
// reference encoder in reference_test.go reproduces it) and <name>.v2.golden
// the stream WriteTo emits today. Together they exercise every association layout the codec knows:
// SourceIDs (1), Unary (2), Binary (3), Flatten (4), Agg (5), and the empty
// tag (0) via the ⊥-annotated map. Committed bytes pin the on-disk format:
// any codec change that silently alters the layout of existing streams fails
// here before it can strand archived provenance (capture and audit are days
// apart in practice).
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

// encodeVersion encodes the run as v2 through WriteTo, the only production
// encoder, or as v1 through the test-only reference encoder.
func encodeVersion(t *testing.T, run *provenance.Run, version int) []byte {
	t.Helper()
	if version == 1 {
		return provenance.RefEncodeV1(run)
	}
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecGoldenFiles compares freshly captured runs against the committed
// streams byte for byte — the frozen v1 fixture and the current v2 stream —
// then proves decode → re-encode reproduces each committed stream exactly
// and that both versions decode to the same run. Regenerate with:
//
//	go test ./internal/provenance -run TestCodecGoldenFiles -update
func TestCodecGoldenFiles(t *testing.T) {
	for _, g := range goldenPipelines {
		g := g
		t.Run(g.name, func(t *testing.T) {
			run := goldenRun(t, g.parts, g.build)
			gotV1 := encodeVersion(t, run, 1)
			gotV2 := encodeVersion(t, run, 2)
			pathV1 := filepath.Join("testdata", g.name+".golden")
			pathV2 := filepath.Join("testdata", g.name+".v2.golden")
			if *update {
				if err := os.WriteFile(pathV1, gotV1, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(pathV2, gotV2, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantV1, err := os.ReadFile(pathV1)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			wantV2, err := os.ReadFile(pathV2)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(gotV1, wantV1) {
				t.Fatalf("v1 stream differs from frozen fixture %s (%d vs %d bytes); "+
					"the reference v1 encoder must stay byte-stable so archived streams keep their meaning",
					pathV1, len(gotV1), len(wantV1))
			}
			if !bytes.Equal(gotV2, wantV2) {
				t.Fatalf("captured stream differs from %s (%d vs %d bytes); "+
					"if the format changed intentionally, add a codec version and rerun with -update",
					pathV2, len(gotV2), len(wantV2))
			}
			// The columnar layout must actually pay for itself on every
			// committed shape.
			if len(wantV2)*10 > len(wantV1)*6 {
				t.Errorf("v2 stream is %d bytes vs %d for v1 — above the 60%% budget",
					len(wantV2), len(wantV1))
			}
			// Both committed streams decode, re-encode byte-identically, and
			// describe the same run (compared through the v1 encoding, a pure
			// function of the run's structure).
			r1, err := provenance.ReadRun(bytes.NewReader(wantV1))
			if err != nil {
				t.Fatalf("decode %s: %v", pathV1, err)
			}
			r2, err := provenance.ReadRun(bytes.NewReader(wantV2))
			if err != nil {
				t.Fatalf("decode %s: %v", pathV2, err)
			}
			if re := encodeVersion(t, r1, 1); !bytes.Equal(re, wantV1) {
				t.Errorf("decode → re-encode of %s is not byte-identical (%d vs %d bytes)",
					pathV1, len(re), len(wantV1))
			}
			if re := encodeVersion(t, r2, 2); !bytes.Equal(re, wantV2) {
				t.Errorf("decode → re-encode of %s is not byte-identical (%d vs %d bytes)",
					pathV2, len(re), len(wantV2))
			}
			if !bytes.Equal(encodeVersion(t, r2, 1), wantV1) {
				t.Errorf("v1 and v2 streams of %s decode to different runs", g.name)
			}
		})
	}
}
