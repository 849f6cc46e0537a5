package oracle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pebble/internal/corpus"
	"pebble/internal/engine"
)

// testConfig is the deterministic corpus configuration: all four capture
// modes × the default worker counts.
func testConfig() Config {
	return Config{Partitions: 4, Workers: DefaultWorkers()}
}

// TestCorpusAgreement is the tier-1 differential gate: a deterministic
// corpus of generated pipelines must show full agreement across capture
// modes and worker counts.
func TestCorpusAgreement(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 50
	}
	cfg := testConfig()
	seen := make(map[int]bool)
	for _, w := range cfg.Workers {
		if seen[w] {
			t.Fatalf("worker counts %v check %d twice", cfg.Workers, w)
		}
		seen[w] = true
	}
	for seed := int64(0); seed < n; seed++ {
		if d := CheckSpec(corpus.Generate(seed), cfg); d != nil {
			t.Fatalf("%v", d)
		}
	}
}

// TestReplayCommittedRepros re-runs every spec committed under testdata/;
// these are regression seeds that once exposed interesting shapes (joins,
// aggregates behind flattens, ...). All must agree.
func TestReplayCommittedRepros(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "seed-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed repro specs under testdata/")
	}
	cfg := testConfig()
	for _, p := range paths {
		spec, err := ReadRepro(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if d := CheckSpec(spec, cfg); d != nil {
			t.Errorf("%s: %v", p, d)
		}
	}
}

// TestAggregateKeyOnlyGranularity pins the one place structural provenance
// is legitimately finer than lineage, found by the soak runner (seed 881,
// shrunk): a projection after an aggregate drops the aggregate output, so a
// full-value query addresses only the grouping key and Alg. 4 marks no
// group member relevant (Ex. 6.6). The oracle must classify such specs as
// non-strict and settle for eager ⊆ lineage rather than flag a
// disagreement.
func TestAggregateKeyOnlyGranularity(t *testing.T) {
	spec, err := ReadRepro(filepath.Join("testdata", "seed-881.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.HasStep(corpus.StepAggregate) || !spec.HasStep(corpus.StepSelect) {
		t.Fatalf("committed granularity spec lost its shape: %+v", spec.Steps)
	}
	if spec.AggOutputsReachSink() {
		t.Fatal("spec drops the aggregate output but is classified strict")
	}
	if d := CheckSpec(spec, testConfig()); d != nil {
		t.Fatalf("documented granularity difference flagged as disagreement: %v", d)
	}
	// The flip side: the generator still produces non-strict specs (seed 881
	// is one), so the relaxed path keeps being exercised by the soak.
	strict, relaxed := 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		if corpus.Generate(seed).AggOutputsReachSink() {
			strict++
		} else {
			relaxed++
		}
	}
	if strict == 0 || relaxed == 0 {
		t.Errorf("corpus regime split strict=%d relaxed=%d; both must occur", strict, relaxed)
	}
}

// droppingSink wraps a capture sink and suppresses unary associations whose
// input id is congruent to 3 mod 7 — a deterministic "lost association"
// fault that is independent of scheduling, so it models a collector shard
// losing writes without tripping the cross-worker checks first. It
// interposes on the morsel handles: Partition wraps the inner sink's
// PartitionSink, so the drop applies on the lock-free append path the
// engine actually uses.
type droppingSink struct {
	engine.CaptureSink
}

func (d *droppingSink) Partition(oid, part int) engine.PartitionSink {
	return &droppingPartition{PartitionSink: d.CaptureSink.Partition(oid, part)}
}

type droppingPartition struct {
	engine.PartitionSink
}

func (d *droppingPartition) Unary(inID, outID int64) {
	if inID%7 == 3 {
		return
	}
	d.PartitionSink.Unary(inID, outID)
}

// UnaryRange must intercept the bulk form too — it is how every fixed-width
// unary association arrives, and embedding would otherwise forward the whole
// range unfiltered, so the injected fault would silently vanish.
func (d *droppingPartition) UnaryRange(inIDs []int64, base int64) {
	for i, in := range inIDs {
		d.Unary(in, base+int64(i))
	}
}

// TestInjectedFaultIsCaughtAndShrunk proves the oracle end to end: dropping
// associations in the eager collector must be detected as a disagreement
// with lineage, and the shrinker must reduce the failing pipeline to at
// most 3 operators while preserving the disagreement kind. The reproducer
// is then emitted and replayed from its JSON form.
func TestInjectedFaultIsCaughtAndShrunk(t *testing.T) {
	cfg := testConfig()
	cfg.WrapSink = func(s engine.CaptureSink) engine.CaptureSink { return &droppingSink{CaptureSink: s} }

	var spec *corpus.Spec
	var d *Disagreement
	for seed := int64(0); seed < 50; seed++ {
		s := corpus.Generate(seed)
		if got := CheckSpec(s, cfg); got != nil {
			spec, d = s, got
			break
		}
	}
	if spec == nil {
		t.Fatal("injected fault was not detected on any of 50 seeds")
	}
	if d.Kind != KindEagerMissed && d.Kind != KindForward {
		t.Fatalf("unexpected disagreement kind %q: %v", d.Kind, d)
	}

	shrunk, sd := Shrink(spec, cfg)
	if sd == nil {
		t.Fatal("shrunk spec no longer fails")
	}
	if sd.Kind != d.Kind {
		t.Fatalf("shrinking changed the kind: %q -> %q", d.Kind, sd.Kind)
	}
	if shrunk.NumOps() > 3 {
		t.Fatalf("shrunk reproducer has %d operators, want <= 3\nsteps: %+v", shrunk.NumOps(), shrunk.Steps)
	}
	if len(shrunk.Rows) >= len(spec.Rows) && len(spec.Rows) > 1 {
		t.Errorf("row shrinking removed nothing: %d rows before and after", len(spec.Rows))
	}

	dir := t.TempDir()
	jsonPath, goPath, err := WriteRepro(dir, shrunk, sd)
	if err != nil {
		t.Fatal(err)
	}
	snippet, err := os.ReadFile(goPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snippet), "Disagreement: "+sd.Kind) ||
		!strings.Contains(string(snippet), "package main") {
		t.Errorf("snippet missing header or body:\n%s", snippet)
	}
	back, err := ReadRepro(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	rd := CheckSpec(back, cfg)
	if rd == nil || rd.Kind != sd.Kind {
		t.Fatalf("replayed reproducer does not fail the same way: %v", rd)
	}
	// Without the fault the reproducer must be clean.
	if clean := CheckSpec(back, testConfig()); clean != nil {
		t.Fatalf("reproducer fails without the injected fault: %v", clean)
	}
}

// TestShrinkIsNoOpOnAgreeingSpec: shrinking a healthy spec returns it
// unchanged with no disagreement.
func TestShrinkIsNoOpOnAgreeingSpec(t *testing.T) {
	s := corpus.Generate(1)
	out, d := Shrink(s, testConfig())
	if d != nil {
		t.Fatalf("healthy spec reported %v", d)
	}
	if out != s {
		t.Error("healthy spec was modified by Shrink")
	}
}
