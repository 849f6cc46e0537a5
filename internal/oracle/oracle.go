// Package oracle differentially tests the provenance stack: every corpus
// pipeline is executed under all four capture modes — none, eager structural
// provenance, Titian-style lineage, and PROVision-style lazy recomputation —
// across several worker counts, and the runs are cross-checked for result
// equality, backtrace agreement (modulo each model's documented granularity),
// and forward/backward tracing consistency. The independent recomputation
// paths act as each other's ground truth, in the spirit of how ProvSQL
// validates provenance engines; after the logical/physical split of PR 1,
// agreement across schedules is the strongest correctness signal available.
// Each spec is also held to the whole-stack properties of the paper: the
// captured associations are closed, one result row's inputs suffice to
// reproduce it (§6, Def. 6.3), and the optimized plan answers the same.
//
// On disagreement, Shrink reduces the failing spec to a minimal reproducer
// (greedy operator-dropping, then ddmin-style row-dropping) and WriteRepro
// writes it as a JSON seed file that CheckSpec replays.
package oracle

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/lazy"
	"pebble/internal/lineage"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
)

// Disagreement kinds, ordered by the sequence in which CheckSpec tests them.
// Shrinking preserves the kind so a reduction never wanders onto a different
// bug.
const (
	KindBuild       = "build-error"
	KindRun         = "run-error"
	KindResult      = "result-mismatch"
	KindProvBytes   = "provenance-bytes-differ"
	KindLineageDet  = "lineage-nondeterministic"
	KindLazyDet     = "lazy-nondeterministic"
	KindClosure     = "association-not-closed"
	KindEagerExtra  = "eager-exceeds-lineage"
	KindEagerMissed = "eager-misses-lineage"
	KindLazyVsEager = "lazy-vs-eager-pattern"
	KindPatternSub  = "pattern-not-subset-of-full"
	KindForward     = "forward-backward-inconsistent"
	KindCoverage    = "row-trace-not-subset-of-full"
	KindSufficiency = "traced-inputs-insufficient"
	KindOptimizer   = "optimizer-changed-answer"
)

// Config tunes a differential check.
type Config struct {
	// Partitions is the logical parallelism; it must stay fixed across the
	// compared runs (it determines ids). Default 4.
	Partitions int
	// Workers lists the physical worker counts to cross-check. Default
	// DefaultWorkers().
	Workers []int
	// WrapSink, when set, wraps the eager provenance collector before the
	// capture run — the fault-injection hook the oracle's own tests use to
	// prove disagreements are caught and shrunk.
	WrapSink func(engine.CaptureSink) engine.CaptureSink
}

func (c Config) withDefaults() Config {
	if c.Partitions == 0 {
		c.Partitions = 4
	}
	if len(c.Workers) == 0 {
		c.Workers = DefaultWorkers()
	}
	return c
}

// DefaultWorkers returns the worker counts the oracle cross-checks by
// default: 1, 2, and NumCPU when it is more than 2, each once.
func DefaultWorkers() []int {
	workers := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		workers = append(workers, n)
	}
	return workers
}

// Disagreement describes one oracle failure: which check tripped and a
// human-readable detail. It implements error.
type Disagreement struct {
	Kind    string
	Detail  string
	Workers int // worker count of the failing run (0 when cross-mode)
	Seed    int64
}

func (d *Disagreement) Error() string {
	return fmt.Sprintf("oracle: seed %d: %s (workers=%d): %s", d.Seed, d.Kind, d.Workers, d.Detail)
}

// artifacts holds everything one worker count produced that must agree with
// the other worker counts and capture modes.
type artifacts struct {
	rows      []string // sink rows as "id:value", in output order
	provBytes []byte
	res       *engine.Result
	run       *provenance.Run
	lineageBy map[int][]int64 // source OID -> run-space contributing ids
	lineageFP string
	lazyRes   *lazy.Result
	lazyFP    string
}

// CheckSpec runs the full differential check for one corpus spec and returns
// the first disagreement found, or nil when every mode and schedule agrees.
func CheckSpec(s *corpus.Spec, cfg Config) *Disagreement {
	cfg = cfg.withDefaults()
	fail := func(kind, detail string, workers int) *Disagreement {
		return &Disagreement{Kind: kind, Detail: detail, Workers: workers, Seed: s.Seed}
	}
	pipe, err := s.Build()
	if err != nil {
		return fail(KindBuild, err.Error(), 0)
	}
	inputs := s.Inputs(cfg.Partitions)
	pattern := s.Pattern
	if pattern == nil {
		pattern = treepattern.New()
	}

	var base *artifacts
	for _, w := range cfg.Workers {
		a, d := runModes(s, pipe, inputs, pattern, cfg, w)
		if d != nil {
			return d
		}
		if base == nil {
			base = a
			continue
		}
		// Cross-schedule agreement: the worker count must change nothing.
		if diff := firstDiff(base.rows, a.rows); diff != "" {
			return fail(KindResult, fmt.Sprintf("vs workers=%d: %s", cfg.Workers[0], diff), w)
		}
		if !bytes.Equal(base.provBytes, a.provBytes) {
			return fail(KindProvBytes, fmt.Sprintf("serialized run differs from workers=%d (%d vs %d bytes)",
				cfg.Workers[0], len(a.provBytes), len(base.provBytes)), w)
		}
		if base.lineageFP != a.lineageFP {
			return fail(KindLineageDet, fmt.Sprintf("lineage trace differs from workers=%d", cfg.Workers[0]), w)
		}
		if base.lazyFP != a.lazyFP {
			return fail(KindLazyDet, fmt.Sprintf("lazy query differs from workers=%d", cfg.Workers[0]), w)
		}
	}
	opts := s.ExecOptions(engine.Options{Partitions: cfg.Partitions, Workers: cfg.Workers[0]})
	return crossMode(s, pipe, inputs, pattern, opts, base)
}

// runModes executes the pipeline once per capture mode at one worker count
// and checks that the modes produced identical results.
func runModes(s *corpus.Spec, pipe *engine.Pipeline, inputs map[string]*engine.Dataset,
	pattern *treepattern.Pattern, cfg Config, workers int) (*artifacts, *Disagreement) {

	fail := func(kind, detail string) (*artifacts, *Disagreement) {
		return nil, &Disagreement{Kind: kind, Detail: detail, Workers: workers, Seed: s.Seed}
	}
	opts := s.ExecOptions(engine.Options{Partitions: cfg.Partitions, Workers: workers})

	// Mode 1: no capture — the plain run is the result baseline.
	resNone, err := engine.Run(pipe, inputs, opts)
	if err != nil {
		return fail(KindRun, "none: "+err.Error())
	}
	a := &artifacts{rows: rowStrings(resNone.Output)}

	// Mode 2: eager structural provenance. The collector is wired manually
	// (rather than through provenance.Capture) so WrapSink can interpose.
	col := provenance.NewCollector()
	var sink engine.CaptureSink = col
	if cfg.WrapSink != nil {
		sink = cfg.WrapSink(col)
	}
	eagerOpts := opts
	eagerOpts.Sink = sink
	resEager, err := engine.Run(pipe, inputs, eagerOpts)
	if err != nil {
		return fail(KindRun, "eager: "+err.Error())
	}
	a.res = resEager
	if a.run, err = col.Finish(); err != nil {
		return fail(KindRun, "eager finish: "+err.Error())
	}
	if diff := firstDiff(a.rows, rowStrings(resEager.Output)); diff != "" {
		return fail(KindResult, "eager capture changed the result: "+diff)
	}
	var buf bytes.Buffer
	if _, err := a.run.WriteTo(&buf); err != nil {
		return fail(KindRun, "serialize provenance: "+err.Error())
	}
	a.provBytes = buf.Bytes()

	// Mode 3: Titian-style lineage, fingerprinted by a full-result trace.
	resLin, lrun, err := lineage.Capture(pipe, inputs, opts)
	if err != nil {
		return fail(KindRun, "lineage: "+err.Error())
	}
	if diff := firstDiff(a.rows, rowStrings(resLin.Output)); diff != "" {
		return fail(KindResult, "lineage capture changed the result: "+diff)
	}
	outIDs := make([]int64, 0, len(resLin.Output.Rows()))
	for _, row := range resLin.Output.Rows() {
		outIDs = append(outIDs, row.ID)
	}
	a.lineageBy, err = lrun.Trace(pipe.Sink().ID(), outIDs)
	if err != nil {
		return fail(KindRun, "lineage trace: "+err.Error())
	}
	a.lineageFP = fmtIDMap(a.lineageBy)

	// Mode 4: PROVision-style lazy recomputation of the pattern question,
	// fingerprinted in raw-input id space (each rerun assigns fresh ids).
	lres, _, err := lazy.Query(func() *engine.Pipeline {
		p, _ := s.Build() // s already built once; rebuilding cannot fail
		return p
	}, inputs, pattern, opts)
	if err != nil {
		return fail(KindRun, "lazy: "+err.Error())
	}
	a.lazyRes = lres
	a.lazyFP = fmtIDMap(lazyOrigSets(lres))
	return a, nil
}

// crossMode checks trace agreement between the capture modes using the
// first worker count's artifacts, which ran under opts.
//
// Agreement semantics (see DESIGN.md):
//   - Before any trace, the eager run's associations must be closed: every
//     input id an operator recorded was produced by its predecessor, and
//     every result row is an output of the sink (KindClosure).
//   - Eager full-value backtraces must never reach an input row lineage does
//     not contain: lineage is complete row-level provenance, so an eager
//     extra is always a bug (KindEagerExtra).
//   - For full-value backtracing trees the two models coincide row-wise —
//     structural pruning removes attributes *within* trees (join sides keep
//     their rows through the accessed join key), so eager full traces and
//     lineage must be equal as row sets (KindEagerMissed) — provided every
//     aggregate output survives into the sink values. When a downstream
//     projection drops an aggregate output, the query addresses only the
//     grouping key and Alg. 4 marks no group member relevant (Ex. 6.6):
//     structural provenance is then legitimately finer than lineage and
//     only the subset direction is checked
//     (corpus.Spec.AggOutputsReachSink decides which regime applies).
//     Other granularity differences only appear for pattern-shaped trees,
//     which are compared against lazy recomputation instead.
//   - Lazy recomputation answers the same pattern question by rerunning
//     with capture, so its per-source raw-input id sets must equal the
//     eager pattern trace exactly (KindLazyVsEager).
//   - A pattern trace addresses a subset of the full result value, so per
//     source it must be a subset of the full-value trace (KindPatternSub).
//   - Forward tracing the full-trace contributors must cover exactly the
//     result rows with non-empty structural provenance (KindForward).
//   - One result row, picked from the seed, is traced alone: its trace must
//     lie within the full trace (KindCoverage), re-running on only its raw
//     inputs must reproduce it when the spec is strict (KindSufficiency), and
//     the optimized plan must return the same rows with a duplicate of it
//     tracing to the same raw inputs (KindOptimizer).
func crossMode(s *corpus.Spec, pipe *engine.Pipeline, inputs map[string]*engine.Dataset,
	pattern *treepattern.Pattern, opts engine.Options, a *artifacts) *Disagreement {
	fail := func(kind, detail string) *Disagreement {
		return &Disagreement{Kind: kind, Detail: detail, Seed: s.Seed}
	}
	sinkOID := pipe.Sink().ID()
	if detail := checkClosure(a.run, a.res, sinkOID); detail != "" {
		return fail(KindClosure, detail)
	}

	// Full-value backtrace of every result row.
	full := core.FullStructure(a.res.Output)
	tracedFull, err := backtrace.Trace(a.run, sinkOID, full)
	if err != nil {
		return fail(KindRun, "full trace: "+err.Error())
	}
	fullBy := make(map[int][]int64, len(tracedFull.BySource))
	for oid, st := range tracedFull.BySource {
		fullBy[oid] = sortedIDs(st.IDs())
	}

	// Eager vs lineage, in run-space ids (identical across sinks because id
	// assignment is capture-independent). Equality is only owed when every
	// aggregate output is addressed by the full-value trees; otherwise
	// structural provenance is finer (Alg. 4, Ex. 6.6) and only ⊆ holds.
	strictEager := s.AggOutputsReachSink()
	lineageBy := a.lineageBy
	for _, oid := range unionKeys(fullBy, lineageBy) {
		eagerSet, linSet := toSet(fullBy[oid]), toSet(lineageBy[oid])
		for _, id := range fullBy[oid] {
			if !linSet[id] {
				return fail(KindEagerExtra,
					fmt.Sprintf("source %d: eager traced id %d that lineage did not", oid, id))
			}
		}
		if !strictEager {
			continue
		}
		for _, id := range lineageBy[oid] {
			if !eagerSet[id] {
				return fail(KindEagerMissed,
					fmt.Sprintf("source %d: lineage traced id %d that eager did not", oid, id))
			}
		}
	}

	// Eager pattern trace vs lazy recomputation, in raw-input id space.
	b := pattern.Match(a.res.Output)
	tracedPat, err := backtrace.Trace(a.run, sinkOID, b)
	if err != nil {
		return fail(KindRun, "pattern trace: "+err.Error())
	}
	patBy := make(map[int][]int64, len(tracedPat.BySource))
	patOrig := make(map[int][]int64, len(tracedPat.BySource))
	for _, oid := range sortedOIDs(tracedPat.BySource) {
		st := tracedPat.BySource[oid]
		ids := sortedIDs(st.IDs())
		patBy[oid] = ids
		orig, err := toOrigIDs(a.run, oid, ids)
		if err != nil {
			return fail(KindRun, err.Error())
		}
		patOrig[oid] = orig
	}
	lazyBy := lazyOrigSets(a.lazyRes)
	for _, oid := range unionKeys(patOrig, lazyBy) {
		if df := firstDiff(fmtIDs(patOrig[oid]), fmtIDs(lazyBy[oid])); df != "" {
			return fail(KindLazyVsEager, fmt.Sprintf("source %d: eager pattern trace vs lazy: %s", oid, df))
		}
	}

	// Pattern trace ⊆ full trace, per source.
	if oid, id, ok := firstOutside(patBy, fullBy); ok {
		return fail(KindPatternSub, fmt.Sprintf("source %d: pattern trace reached id %d outside the full trace", oid, id))
	}

	// Forward/backward consistency: tracing the full-trace contributors
	// forward must reach every result row, except rows whose own structural
	// provenance is empty (then nothing points at them).
	reached := map[int64]bool{}
	for _, oid := range sortedOIDs(fullBy) {
		ids := fullBy[oid]
		if len(ids) == 0 {
			continue
		}
		fwd, err := backtrace.TraceForward(a.run, oid, ids)
		if err != nil {
			return fail(KindRun, fmt.Sprintf("forward trace from source %d: %v", oid, err))
		}
		for _, id := range fwd.AffectedIDs(sinkOID) {
			reached[id] = true
		}
	}
	outIDs := map[int64]bool{}
	for _, row := range a.res.Output.Rows() {
		outIDs[row.ID] = true
	}
	for _, id := range sortedIDSet(reached) {
		if !outIDs[id] {
			return fail(KindForward, fmt.Sprintf("forward trace reached id %d that is not a result row", id))
		}
	}
	for _, row := range a.res.Output.Rows() {
		if reached[row.ID] {
			continue
		}
		by, _, err := traceRow(a.run, sinkOID, row)
		if err != nil {
			return fail(KindRun, "row trace: "+err.Error())
		}
		for _, oid := range sortedOIDs(by) {
			if len(by[oid]) > 0 {
				return fail(KindForward, fmt.Sprintf(
					"result row %d has provenance in source %d but no forward path reaches it", row.ID, oid))
			}
		}
	}

	rows := a.res.Output.Rows()
	if len(rows) == 0 {
		return nil
	}
	row := rows[rand.New(rand.NewSource(s.Seed)).Intn(len(rows))]
	rowBy, rowOrig, err := traceRow(a.run, sinkOID, row)
	if err != nil {
		return fail(KindRun, "row trace: "+err.Error())
	}
	if oid, id, ok := firstOutside(rowBy, fullBy); ok {
		return fail(KindCoverage, fmt.Sprintf(
			"source %d: trace of result row %d reached id %d outside the full trace", oid, row.ID, id))
	}
	// Sufficiency is promised only where every aggregate output reaches the
	// sink (otherwise Alg. 4 marks no group member relevant, Ex. 6.6) and no
	// limit cuts rows that share an input (corpus.Spec.LimitCutsFanOut).
	if s.AggOutputsReachSink() && !s.LimitCutsFanOut() {
		if d := checkSufficiency(pipe, inputs, opts, row, rowOrig, fail); d != nil {
			return d
		}
	}
	return checkOptimizer(pipe, inputs, opts, a.res, row, rowOrig, fail)
}

// checkClosure returns why the run's associations are not closed, or "":
// every input id an operator recorded must be an output of its predecessor
// on that side (-1 is a left-outer join's missing match), and every result
// row an output of the sink.
func checkClosure(run *provenance.Run, res *engine.Result, sinkOID int) string {
	produced := map[int]map[int64]bool{}
	for _, op := range run.Operators() {
		produced[op.OID] = toSet(op.Columns().Out)
	}
	for _, op := range run.Operators() {
		if op.Type == engine.OpSource {
			continue
		}
		c := op.Columns()
		for side, ids := range [][]int64{c.In, c.Right} {
			for _, id := range ids {
				if pred := op.Inputs[side].Pred; id != -1 && !produced[pred][id] {
					return fmt.Sprintf("operator %d recorded input id %d that operator %d never produced", op.OID, id, pred)
				}
			}
		}
	}
	for _, row := range res.Output.Rows() {
		if !produced[sinkOID][row.ID] {
			return fmt.Sprintf("result row %d is no output of sink %d", row.ID, sinkOID)
		}
	}
	return ""
}

// checkSufficiency is the paper's central claim at row level: re-running
// the pipeline on only the raw input rows the queried row traced to (orig)
// reproduces the row. The reduced run partitions its rows differently, so
// collection order is ignored.
func checkSufficiency(pipe *engine.Pipeline, inputs map[string]*engine.Dataset, opts engine.Options,
	row engine.Row, orig []int64, fail func(kind, detail string) *Disagreement) *Disagreement {
	if len(orig) == 0 {
		return fail(KindSufficiency, fmt.Sprintf("result row %d traced to no input", row.ID))
	}
	keep := toSet(orig) // raw ids are unique across datasets (corpus.Spec.Inputs)
	gen := engine.NewIDGen(1)
	reduced := make(map[string]*engine.Dataset, len(inputs))
	for _, name := range []string{corpus.DatasetIn, corpus.DatasetAux} {
		ds, ok := inputs[name]
		if !ok {
			continue
		}
		var vals []nested.Value
		for _, r := range ds.Rows() {
			if keep[r.ID] {
				vals = append(vals, r.Value)
			}
		}
		reduced[name] = engine.NewDataset(name, vals, opts.Partitions, gen)
	}
	res, err := engine.Run(pipe, reduced, opts)
	if err != nil {
		return fail(KindRun, "reduced run: "+err.Error())
	}
	want := normalize(row.Value)
	for _, r := range res.Output.Rows() {
		if nested.Equal(normalize(r.Value), want) {
			return nil
		}
	}
	return fail(KindSufficiency, fmt.Sprintf("re-running on the %d inputs of result row %d does not reproduce %s",
		len(orig), row.ID, row.Value))
}

// checkOptimizer runs the optimized plan with capture when a rewrite fires:
// its result multiset must equal res's, and among its rows equal to the
// queried row one must trace to the same raw inputs (orig). Duplicates of a
// value may carry different provenance, so any one of them will do.
func checkOptimizer(pipe *engine.Pipeline, inputs map[string]*engine.Dataset, opts engine.Options,
	res *engine.Result, row engine.Row, orig []int64, fail func(kind, detail string) *Disagreement) *Disagreement {
	opt, rules, err := engine.Optimize(pipe)
	if err != nil {
		return fail(KindRun, "optimize: "+err.Error())
	}
	if len(rules) == 0 {
		return nil
	}
	optRes, optRun, err := provenance.Capture(opt, inputs, opts)
	if err != nil {
		return fail(KindRun, "optimized run: "+err.Error())
	}
	if df := firstDiff(valueMultiset(res.Output), valueMultiset(optRes.Output)); df != "" {
		return fail(KindOptimizer, fmt.Sprintf("rules %v changed the result multiset: %s", rules, df))
	}
	want, wantIDs := normalize(row.Value), fmtIDs(orig)
	for _, r := range optRes.Output.Rows() {
		if !nested.Equal(normalize(r.Value), want) {
			continue
		}
		_, got, err := traceRow(optRun, opt.Sink().ID(), r)
		if err != nil {
			return fail(KindRun, "optimized row trace: "+err.Error())
		}
		if firstDiff(wantIDs, fmtIDs(got)) == "" {
			return nil
		}
	}
	return fail(KindOptimizer, fmt.Sprintf("rules %v: no optimized duplicate of result row %d traces to its inputs %v",
		rules, row.ID, orig))
}

// traceRow backtraces one result row by its full value and returns the
// run-space ids it reached per source and, over all sources, their sorted
// raw-input ids.
func traceRow(run *provenance.Run, sinkOID int, row engine.Row) (map[int][]int64, []int64, error) {
	b := backtrace.NewStructure()
	b.Add(row.ID, core.TreeFromValue(row.Value))
	tr, err := backtrace.Trace(run, sinkOID, b)
	if err != nil {
		return nil, nil, err
	}
	by := make(map[int][]int64, len(tr.BySource))
	var orig []int64
	for _, oid := range sortedOIDs(tr.BySource) {
		by[oid] = sortedIDs(tr.BySource[oid].IDs())
		o, err := toOrigIDs(run, oid, by[oid])
		if err != nil {
			return nil, nil, err
		}
		orig = append(orig, o...)
	}
	return by, sortedIDs(orig), nil
}

// normalize sorts every (transitively) contained collection, so values
// compare independently of partition-induced element order.
func normalize(v nested.Value) nested.Value {
	switch v.Kind() {
	case nested.KindItem:
		fields := make([]nested.Field, v.NumFields())
		for i := range fields {
			fields[i] = nested.F(v.FieldName(i), normalize(v.FieldValue(i)))
		}
		return nested.Item(fields...)
	case nested.KindBag, nested.KindSet:
		elems := make([]nested.Value, len(v.Elems()))
		for i, e := range v.Elems() {
			elems[i] = normalize(e)
		}
		return nested.Bag(elems...).SortElems()
	default:
		return v
	}
}

// valueMultiset renders a dataset's normalized values in sorted order.
func valueMultiset(d *engine.Dataset) []string {
	out := make([]string, 0, d.Len())
	for _, r := range d.Rows() {
		out = append(out, normalize(r.Value).String())
	}
	sort.Strings(out)
	return out
}

// lazyOrigSets flattens a lazy result to sorted raw-input id lists per
// source operator.
func lazyOrigSets(r *lazy.Result) map[int][]int64 {
	out := make(map[int][]int64, len(r.BySource))
	for oid, st := range r.BySource {
		ids := st.IDs()
		orig := make([]int64, 0, len(ids))
		for _, id := range ids {
			orig = append(orig, r.OrigIDs[oid][id])
		}
		out[oid] = sortedIDs(orig)
	}
	return out
}

// toOrigIDs translates run-space source ids to raw-input ids using the
// eager run's source associations.
func toOrigIDs(run *provenance.Run, oid int, ids []int64) ([]int64, error) {
	op, ok := run.Op(oid)
	if !ok {
		return nil, fmt.Errorf("no captured operator %d", oid)
	}
	m := op.OrigIDs()
	out := make([]int64, 0, len(ids))
	for _, id := range ids {
		orig, ok := m[id]
		if !ok {
			return nil, fmt.Errorf("source %d: traced id %d has no source association", oid, id)
		}
		out = append(out, orig)
	}
	return sortedIDs(out), nil
}

func rowStrings(d *engine.Dataset) []string {
	rows := d.Rows()
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%d:%s", r.ID, r.Value))
	}
	return out
}

func firstDiff(a, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d: %q vs %q", i, a[i], b[i])
		}
	}
	return ""
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Trace results may contain duplicates (merged structures); the oracle
	// compares sets.
	dedup := out[:0]
	for _, id := range out {
		if len(dedup) > 0 && id == dedup[len(dedup)-1] {
			continue
		}
		dedup = append(dedup, id)
	}
	return dedup
}

// sortedOIDs returns the keys of a per-operator map in ascending order, so
// oracle checks visit sources deterministically and a disagreement always
// produces the same first-failure message.
func sortedOIDs[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for oid := range m {
		out = append(out, oid)
	}
	sort.Ints(out)
	return out
}

// sortedIDSet flattens an id set to an ascending slice.
func sortedIDSet(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// firstOutside returns the first id of by, in ascending source order, that
// full lacks for the same source.
func firstOutside(by, full map[int][]int64) (int, int64, bool) {
	for _, oid := range sortedOIDs(by) {
		fullSet := toSet(full[oid])
		for _, id := range by[oid] {
			if !fullSet[id] {
				return oid, id, true
			}
		}
	}
	return 0, 0, false
}

func toSet(ids []int64) map[int64]bool {
	m := make(map[int64]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func unionKeys(ms ...map[int][]int64) []int {
	seen := map[int]bool{}
	for _, m := range ms {
		for k := range m {
			seen[k] = true
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func fmtIDs(ids []int64) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, fmt.Sprintf("%d", id))
	}
	return out
}

// fmtIDMap renders a per-operator id-set map canonically for fingerprint
// comparison across worker counts.
func fmtIDMap(m map[int][]int64) string {
	oids := make([]int, 0, len(m))
	for oid := range m {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	var b strings.Builder
	for _, oid := range oids {
		fmt.Fprintf(&b, "%d:[", oid)
		for i, id := range sortedIDs(m[oid]) {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", id)
		}
		b.WriteString("] ")
	}
	return b.String()
}
