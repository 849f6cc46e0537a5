package oracle

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/provenance"
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

// TestPinnedInvariantSeeds runs the seed ranges of the whole-stack
// property tests the oracle absorbed through CheckSpec, one subtest each,
// and keeps their guards against generator drift: at least a count of the
// range must satisfy the guard.
func TestPinnedInvariantSeeds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		first, n int64
		guard    func(*corpus.Spec) bool
		atLeast  int
	}{
		// Half the sufficiency range must be strict, or the check is vacuous.
		{"Sufficiency", 1000, 60, (*corpus.Spec).AggOutputsReachSink, 30},
		{"AssociationClosure", 5000, 40, nil, 0},
		{"Determinism", 9000, 25, nil, 0},
		{"BacktraceTotalCoverage", 7000, 20, nil, 0},
		// Some spec of the optimizer range must fire a rewrite.
		{"OptimizerPreservesResultsAndProvenance", 3000, 40, firesRewrite, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			guarded := 0
			for seed := tc.first; seed < tc.first+tc.n; seed++ {
				s := corpus.Generate(seed)
				if d := CheckSpec(s, testConfig()); d != nil {
					t.Errorf("%v", d)
				}
				if tc.guard != nil && tc.guard(s) {
					guarded++
				}
			}
			if guarded < tc.atLeast {
				t.Errorf("only %d of %d seeds pass the guard, want %d; the generator drifted", guarded, tc.n, tc.atLeast)
			}
		})
	}
}

// firesRewrite reports whether engine.Optimize rewrites the spec's plan.
func firesRewrite(s *corpus.Spec) bool {
	p, err := s.Build()
	if err != nil {
		return false
	}
	_, rules, err := engine.Optimize(p)
	return err == nil && len(rules) > 0
}

// TestReplayCommittedRepros re-runs every spec committed under testdata/;
// these are regression seeds that once exposed interesting shapes (joins,
// aggregates behind flattens, ...). All must agree, and each file must be
// exactly what WriteRepro writes for the spec and disagreement it holds, so
// the one reproducer form cannot drift from its writer.
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
		spec, recorded, err := ReadRepro(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		committed, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, written, err := WriteRepro(t.TempDir(), spec, recorded); err != nil {
			t.Fatalf("%s: %v", p, err)
		} else if !bytes.Equal(written, committed) {
			t.Errorf("%s is not WriteRepro's encoding of the spec it holds", p)
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
	spec, _, err := ReadRepro(filepath.Join("testdata", "seed-881.json"))
	if err != nil {
		t.Fatal(err)
	}
	hasStep := func(op string) bool {
		return slices.ContainsFunc(spec.Steps, func(st corpus.Step) bool { return st.Op == op })
	}
	if !hasStep(corpus.StepAggregate) || !hasStep(corpus.StepSelect) {
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

// TestLimitCutsFanOutIsExcluded pins the sufficiency finding of the soak
// (seed 358, shrunk): join, then limit, then aggregate. The limit keeps some
// join rows of an input row and cuts others, so re-running on the inputs a
// group traced to brings the cut rows back and the group's count grows. The
// finding is kept: the reproducer must still fail the sufficiency check
// itself, and CheckSpec must skip it by the named corpus predicate.
func TestLimitCutsFanOutIsExcluded(t *testing.T) {
	spec, _, err := ReadRepro(filepath.Join("testdata", "seed-358.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.LimitCutsFanOut() || !spec.AggOutputsReachSink() {
		t.Fatalf("committed spec lost its shape: %+v", spec.Steps)
	}
	if d := CheckSpec(spec, testConfig()); d != nil {
		t.Fatalf("excluded spec flagged: %v", d)
	}
	pipe, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs, opts := spec.Inputs(4), spec.ExecOptions(engine.Options{Partitions: 4})
	res, run, err := provenance.Capture(pipe, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	fail := func(kind, detail string) *Disagreement { return &Disagreement{Kind: kind, Detail: detail} }
	for _, row := range res.Output.Rows() {
		_, orig, err := traceRow(run, pipe.Sink().ID(), row)
		if err != nil {
			t.Fatal(err)
		}
		if d := checkSufficiency(pipe, inputs, opts, row, orig, fail); d != nil && d.Kind == KindSufficiency {
			return
		}
	}
	t.Error("every result row is reproduced by its traced inputs; the LimitCutsFanOut exclusion may be obsolete")
}

// faultSink wraps a capture sink and, in the morsels of the unary operators
// that write one input id per row (filter, select, map, orderBy, limit),
// records fault(inIDs, i) in place of each input id congruent to 3 mod 7 — a
// deterministic fault that is independent of scheduling, so it does not trip
// the cross-worker checks first. A source writes its ids in the same column;
// StartOperator tells which operators are sources, and they are left alone.
type faultSink struct {
	engine.CaptureSink
	fault func(inIDs []int64, i int) int64

	mu      sync.Mutex
	sources map[int]bool
}

func (f *faultSink) StartOperator(info engine.OpInfo, parts int) {
	f.mu.Lock()
	if info.Type == engine.OpSource {
		f.sources[info.OID] = true
	}
	f.mu.Unlock()
	f.CaptureSink.StartOperator(info, parts)
}

func (f *faultSink) Morsel(oid, part int, base int64, n int, a engine.Assocs) {
	f.mu.Lock()
	source := f.sources[oid]
	f.mu.Unlock()
	if !source && a.Right == nil && a.Pos == nil && a.Lists == nil {
		in := slices.Clone(a.In)
		for i, id := range a.In {
			if id%7 == 3 {
				in[i] = f.fault(a.In, i)
			}
		}
		a.In = in
	}
	f.CaptureSink.Morsel(oid, part, base, n, a)
}

// TestInjectedFaultIsCaughtAndShrunk proves the oracle end to end: each
// injected collector fault must be detected with its expected kind, and the
// shrinker must reduce the failing pipeline to at most 3 operators while
// preserving the kind. The reproducer is then emitted — the bytes WriteRepro
// returns are the file's — and replayed from the file.
func TestInjectedFaultIsCaughtAndShrunk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(inIDs []int64, i int) int64
		kinds []string
	}{
		// An output attributed to the next input of its range: every id is
		// one the predecessor produced, so a trace kind must catch it.
		{"misattributed", func(inIDs []int64, i int) int64 { return inIDs[(i+1)%len(inIDs)] },
			[]string{KindEagerMissed, KindForward}},
		// An input id no operator produced: only closure sees it.
		{"foreign-input", func(inIDs []int64, i int) int64 { return inIDs[i] + 1<<40 },
			[]string{KindClosure}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.WrapSink = func(s engine.CaptureSink) engine.CaptureSink {
				return &faultSink{CaptureSink: s, fault: tc.fault, sources: make(map[int]bool)}
			}
			checkFaultCaughtAndShrunk(t, cfg, tc.kinds)
		})
	}
}

func checkFaultCaughtAndShrunk(t *testing.T, cfg Config, kinds []string) {
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
	if !slices.Contains(kinds, d.Kind) {
		t.Fatalf("disagreement kind %q, want one of %v: %v", d.Kind, kinds, d)
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

	path, data, err := WriteRepro(t.TempDir(), shrunk, sd)
	if err != nil {
		t.Fatal(err)
	}
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, data) {
		t.Fatalf("WriteRepro returned bytes other than the file's (read error %v)", err)
	}
	back, recorded, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if recorded == nil || recorded.Kind != sd.Kind {
		t.Fatalf("reproducer records %v, want kind %q", recorded, sd.Kind)
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

// TestReproRecordsItsDisagreement: WriteRepro's file reads back through
// ReadRepro as the spec it was given and the kind and detail of its
// disagreement (none when it was written without one), the bytes it returns
// are the file's, and a file without a spec is refused.
func TestReproRecordsItsDisagreement(t *testing.T) {
	spec := corpus.Generate(7)
	for _, d := range []*Disagreement{nil, {Kind: KindSufficiency, Detail: "row 3 not reproduced", Seed: spec.Seed}} {
		path, data, err := WriteRepro(t.TempDir(), spec, d)
		if err != nil {
			t.Fatal(err)
		}
		if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, data) {
			t.Fatalf("WriteRepro returned bytes other than the file's (read error %v)", err)
		}
		back, recorded, err := ReadRepro(path)
		if err != nil {
			t.Fatal(err)
		}
		// A spec holds parsed predicates and patterns, so it is compared in
		// its JSON form, the form a reproducer keeps.
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := json.Marshal(spec); err != nil || !bytes.Equal(got, want) {
			t.Errorf("spec read back differs (marshal error %v):\n%s\nwant\n%s", err, got, want)
		}
		if !reflect.DeepEqual(recorded, d) {
			t.Errorf("disagreement read back as %v, want %v", recorded, d)
		}
	}
	empty := filepath.Join(t.TempDir(), "seed-0.json")
	if err := os.WriteFile(empty, []byte(`{"kind":"`+KindSufficiency+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadRepro(empty); err == nil {
		t.Error("ReadRepro accepted a reproducer without a spec")
	}
}
