// Package core is the "Pebble Core" module of the system architecture
// (Fig. 5): it ties the capture submodule (running pipelines under
// structural provenance capture) to the query submodule (tree-pattern
// matching followed by backtracing), realising the paper's holistic
// meet-in-the-middle approach — eager lightweight capture during execution,
// succinct backtracing at query time.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/jsonenc"
	"pebble/internal/nested"
	"pebble/internal/obs"
	"pebble/internal/path"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
)

// Session configures capture and query executions.
type Session struct {
	// Partitions is the logical data parallelism of pipeline runs (default
	// engine.DefaultPartitions). It fixes identifiers and result order, not
	// the goroutine count.
	Partitions int
	// Workers sizes the engine's morsel pool (0 = NumCPU); at 1 there is no
	// pool, and only independent plan branches may overlap (engine.Options).
	// Results are byte-identical for every value; only wall time changes.
	Workers int
	// Recorder, when non-nil, receives per-operator execution metrics and
	// query-side timing spans for every run of this session. Nil (the
	// default) disables observability at near-zero cost.
	Recorder *obs.Recorder
}

// Option configures a Session built with NewSession.
type Option func(*Session)

// WithPartitions sets the logical data parallelism (identifier assignment
// and result order); values < 1 keep the engine default.
func WithPartitions(n int) Option { return func(s *Session) { s.Partitions = n } }

// WithWorkers sets the size of the engine's morsel pool (0 = NumCPU; 1 = no
// pool, see Session.Workers).
func WithWorkers(n int) Option { return func(s *Session) { s.Workers = n } }

// WithRecorder attaches an observability recorder to the session.
func WithRecorder(rec *obs.Recorder) Option { return func(s *Session) { s.Recorder = rec } }

// NewSession builds a session from functional options; a bare
// NewSession() is a ready-to-use default session. The zero Session struct
// literal remains equivalent and supported.
func NewSession(opts ...Option) Session {
	var s Session
	for _, o := range opts {
		o(&s)
	}
	return s
}

// ResolvePartitions is the single partition-precedence rule of the system:
// an explicit positive count wins, then the session's positive Partitions,
// then the engine default. Every partition decision — Session.options,
// Session.NewDataset, pebble.NewDataset — routes through it, so a session
// and the datasets built for it can never disagree regardless of which
// other options (WithWorkers, WithRecorder) the session was built
// with. Pinned by TestPartitionPrecedence.
func (s Session) ResolvePartitions(explicit int) int {
	if explicit > 0 {
		return explicit
	}
	if s.Partitions > 0 {
		return s.Partitions
	}
	return engine.DefaultPartitions
}

func (s Session) options() engine.Options {
	return engine.Options{Partitions: s.ResolvePartitions(0), Workers: s.Workers, Recorder: s.Recorder}
}

// NewDataset partitions values into the session's logical partition count,
// assigning each row a unique provenance identifier. parts <= 0 inherits
// Session.Partitions (which itself defaults to engine.DefaultPartitions);
// an explicit positive parts overrides the session (precedence: explicit >
// session > engine default, see ResolvePartitions). Datasets and sessions
// must agree on the partition count for byte-identical reproducible runs,
// so prefer this over hand-picking counts per dataset.
func (s Session) NewDataset(name string, values []nested.Value, parts int) *engine.Dataset {
	return engine.NewDataset(name, values, s.ResolvePartitions(parts), engine.NewIDGen(1))
}

// Captured is a pipeline execution with its structural provenance, ready for
// provenance queries.
type Captured struct {
	Pipeline   *engine.Pipeline
	Result     *engine.Result
	Provenance *provenance.Run

	tracerMu sync.Mutex
	tracer   *backtrace.Tracer // guarded by tracerMu

	// rec is the session recorder active when the capture ran; queries on
	// this capture report their match and backtrace spans into it.
	rec *obs.Recorder
}

// Tracer returns the query tracer over the captured provenance: the one
// Reattached was given, or one built on first use. Its association indexes
// are built lazily and shared across all queries on this capture.
func (c *Captured) Tracer() *backtrace.Tracer {
	c.tracerMu.Lock()
	defer c.tracerMu.Unlock()
	if c.tracer == nil {
		c.tracer = backtrace.NewTracer(c.Provenance).Observe(c.rec)
	}
	return c.tracer
}

// Recorder returns the session recorder attached when the capture ran (nil
// when the session had none) — reload paths report their load and
// index-install phases into it.
func (c *Captured) Recorder() *obs.Recorder { return c.rec }

// Reattached assembles a query-capable Captured from reloaded pieces — the
// one way the daemon and the shell make a reloaded capture: the pipeline
// and execution result of the original run, a provenance run reloaded from
// persisted bytes, and optionally a tracer over that run, which the capture
// then queries through (the benchmark's trace replay hands in the tracer it
// timed); with nil the capture makes its own on the first query, as a
// captured one does. rec, when non-nil, observes every query on the
// capture, same as a session recorder would. A Captured's provenance is set
// here or by the capture and never replaced.
func Reattached(p *engine.Pipeline, res *engine.Result, run *provenance.Run, tr *backtrace.Tracer, rec *obs.Recorder) *Captured {
	c := &Captured{Pipeline: p, Result: res, Provenance: run, rec: rec}
	if tr != nil {
		c.tracer = tr.Observe(rec)
	}
	return c
}

// Stats returns the observability snapshot for this capture. With a session
// recorder attached it is the full per-operator counter and span report —
// every counter of the obs taxonomy plus the phase spans, accumulated across
// every run and query the recorder observed.
//
// Without a recorder, Stats synthesises a reduced fallback view from what
// the engine and collector retain anyway, so it never returns nil. The
// fallback covers exactly rows_out (from the engine's per-operator row
// counts), assoc_rows, and prov_bytes (from the captured run), plus
// per-operator elapsed times; rows_in, expr_evals, keys_hashed, enc_bytes,
// and all spans read as zero, and the view is per-capture rather than
// session-cumulative. Callers needing the full taxonomy must attach a
// recorder (pebble.WithRecorder) before running.
func (c *Captured) Stats() *obs.Stats {
	if c.rec != nil {
		return c.rec.Snapshot()
	}
	st := &obs.Stats{}
	for _, os := range c.Result.Stats {
		op := obs.OpStat{OID: os.OID, Type: string(os.Type), Elapsed: os.Elapsed}
		op.Counters[obs.RowsOut] = int64(os.Rows)
		if c.Provenance != nil {
			if pop, ok := c.Provenance.Op(os.OID); ok {
				op.Counters[obs.AssocRows] = int64(pop.AssocCount())
				op.Counters[obs.ProvBytes] = pop.Sizes().Total()
			}
		}
		st.Ops = append(st.Ops, op)
	}
	return st
}

// Run executes the pipeline without provenance capture (plain Spark
// semantics, the baseline bars of Figs. 6 and 7). It is RunContext with a
// background context.
func (s Session) Run(p *engine.Pipeline, inputs map[string]*engine.Dataset) (*engine.Result, error) {
	return s.RunContext(context.Background(), p, inputs)
}

// RunContext is Run with cooperative cancellation: the engine checks the
// context at every morsel boundary, so cancelling ctx stops the run from
// scheduling new work promptly (see engine.RunContext).
func (s Session) RunContext(ctx context.Context, p *engine.Pipeline, inputs map[string]*engine.Dataset) (*engine.Result, error) {
	return engine.RunContext(ctx, p, inputs, s.options())
}

// Capture executes the pipeline with structural provenance capture. It is
// CaptureContext with a background context.
func (s Session) Capture(p *engine.Pipeline, inputs map[string]*engine.Dataset) (*Captured, error) {
	return s.CaptureContext(context.Background(), p, inputs)
}

// CaptureContext is Capture with cooperative cancellation: the engine checks
// the context at every morsel boundary, so a cancelled capture stops
// scheduling new morsels promptly and discards its partial provenance. This
// is the execution entry point pebbled's async jobs run through.
func (s Session) CaptureContext(ctx context.Context, p *engine.Pipeline, inputs map[string]*engine.Dataset) (*Captured, error) {
	res, run, err := provenance.CaptureContext(ctx, p, inputs, s.options())
	if err != nil {
		return nil, err
	}
	return &Captured{Pipeline: p, Result: res, Provenance: run, rec: s.Recorder}, nil
}

// QueryResult is the answer to one structural provenance question.
type QueryResult struct {
	// Matched is the backtracing structure the tree-pattern produced on the
	// result data (the right tree of Fig. 2, per matched item).
	Matched *backtrace.Structure
	// Traced maps each source operator to its backtracing structure on the
	// input (the left trees of Fig. 2).
	Traced *backtrace.Result
	// Sources resolves provenance identifiers to the annotated source rows.
	Sources map[int]*engine.Dataset
}

// Query matches the tree-pattern against the captured result and backtraces
// the matches to the inputs (Alg. 1 over the captured operator provenance).
func (c *Captured) Query(pattern *treepattern.Pattern) (*QueryResult, error) {
	return c.QueryStructure(c.Match(pattern))
}

// Match matches the tree-pattern against the captured result — the first
// half of Query — and reports its two phases into the capture's recorder:
// obs.SpanPatternCompile around the pattern's compilation (which happens
// once per pattern; on a pattern already compiled the span is a cache
// lookup) and obs.SpanPatternMatch around the match proper. Together with the
// tracer's backtrace span this splits query time into its shares.
func (c *Captured) Match(pattern *treepattern.Pattern) *backtrace.Structure {
	compileDone := c.rec.StartSpan(obs.SpanPatternCompile)
	compiled := pattern.Compile()
	compileDone()
	defer c.rec.StartSpan(obs.SpanPatternMatch)()
	return compiled.Match(c.Result.Output)
}

// QueryStructure backtraces an explicitly built backtracing structure.
func (c *Captured) QueryStructure(b *backtrace.Structure) (*QueryResult, error) {
	sink, ok := c.Provenance.OpByID(provenance.OpID(c.Pipeline.Sink().ID()))
	if !ok {
		return nil, fmt.Errorf("core: sink operator %d missing from captured provenance", c.Pipeline.Sink().ID())
	}
	return c.TraceAt(sink, b)
}

// TraceAt backtraces a structure from a specific captured operator — the
// typed replacement for the free Trace(run, startOID, b) helper. Resolve
// the operator with c.Provenance.OpByID (or Operators()); tracing from an
// intermediate operator answers "which inputs fed *this* stage" instead of
// the sink's full result.
func (c *Captured) TraceAt(op *provenance.Operator, b *backtrace.Structure) (*QueryResult, error) {
	return c.TraceAtContext(context.Background(), op, b)
}

// TraceAtContext is TraceAt with cooperative cancellation: the context is
// checked at every operator step of the backtracing walk, so a cancelled
// query (e.g. a pebbled trace job whose submitter went away) stops before
// building further association indexes.
func (c *Captured) TraceAtContext(ctx context.Context, op *provenance.Operator, b *backtrace.Structure) (*QueryResult, error) {
	if op == nil {
		return nil, fmt.Errorf("core: TraceAt on nil operator")
	}
	traced, err := c.Tracer().TraceContext(ctx, op.OID, b)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Matched: b, Traced: traced, Sources: c.Result.Sources}, nil
}

// QueryAll builds a full-coverage query: every result item with all its
// leaves contributing. Use-case analyses (auditing, data-usage patterns)
// merge such full queries across a workload.
func (c *Captured) QueryAll() (*QueryResult, error) {
	return c.QueryStructure(FullStructure(c.Result.Output))
}

// FullStructure is the full-coverage backtracing structure of a result:
// every item with every one of its paths contributing.
func FullStructure(d *engine.Dataset) *backtrace.Structure {
	b := backtrace.NewStructure()
	for _, row := range d.Rows() {
		b.Add(row.ID, TreeFromValue(row.Value))
	}
	return b
}

// TreeFromValue builds a backtracing tree covering every path of the value,
// all contributing.
func TreeFromValue(v nested.Value) *backtrace.Tree {
	t := backtrace.NewTree()
	for _, p := range path.Enumerate(v, 0) {
		t.EnsureContributing(p)
	}
	return t
}

// SourceItem pairs a traced input item with its data.
type SourceItem struct {
	SourceOID int
	Item      *backtrace.Item
	Row       engine.Row
	Found     bool
}

// tracedSource is one source operator's share of a query result: its
// dataset (nil when the source is unknown) and its traced items in
// ascending identifier order, each paired with its source row.
type tracedSource struct {
	oid     int
	dataset *engine.Dataset
	items   []SourceItem
}

// resolve pairs every traced item with its source row, ordered by source
// operator and identifier. Each source dataset is read once, whatever the
// number of traced items: the rows are matched against the sorted wanted
// identifiers, first occurrence winning, until every identifier is found.
func (q *QueryResult) resolve() []tracedSource {
	oids := make([]int, 0, len(q.Traced.BySource))
	for oid := range q.Traced.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	out := make([]tracedSource, len(oids))
	for s, oid := range oids {
		traced := append([]*backtrace.Item(nil), q.Traced.BySource[oid].Items...)
		sort.Slice(traced, func(i, j int) bool { return traced[i].ID < traced[j].ID })
		items := make([]SourceItem, len(traced))
		for i, it := range traced {
			items[i] = SourceItem{SourceOID: oid, Item: it}
		}
		ds := q.Sources[oid]
		if ds != nil {
			attachRows(items, ds)
		}
		out[s] = tracedSource{oid: oid, dataset: ds, items: items}
	}
	return out
}

// attachRows fills Row and Found of items, which are sorted by identifier,
// from one pass over the dataset.
func attachRows(items []SourceItem, ds *engine.Dataset) {
	missing := len(items)
	for _, part := range ds.Partitions {
		for _, row := range part {
			if missing == 0 {
				return
			}
			i := sort.Search(len(items), func(i int) bool { return items[i].Item.ID >= row.ID })
			// Items sharing an identifier are adjacent and share the row.
			for ; i < len(items) && items[i].Item.ID == row.ID && !items[i].Found; i++ {
				items[i].Row, items[i].Found = row, true
				missing--
			}
		}
	}
}

// Items resolves every traced item against the source datasets, ordered by
// source operator and identifier.
func (q *QueryResult) Items() []SourceItem {
	var out []SourceItem
	for _, src := range q.resolve() {
		out = append(out, src.items...)
	}
	return out
}

// Report renders the query result for humans: per source, the contributing
// input items with their backtracing trees (contributing vs influencing
// attributes and the operators that accessed/manipulated them). A panic of
// a render goroutine is raised again on the caller's goroutine, as an
// *engine.PanicError.
func (q *QueryResult) Report() string {
	report, err := q.report(q.resolve())
	if err != nil {
		panic(err)
	}
	return report
}

// previewBytes is how much of a source row the report shows.
const previewBytes = 120

// report renders the report of sources; it fails only where a render
// goroutine panicked.
func (q *QueryResult) report(sources []tracedSource) (string, error) {
	buf := fmt.Appendf(nil, "query matched %d result item(s)\n", q.Matched.Len())
	// The items of a trace share their trees (backtrace.Tree), so a tree is
	// rendered once and its lines are copied from then on.
	trees := make(map[*backtrace.Tree][]byte)
	empty := true
	for _, src := range sources {
		if len(src.items) == 0 {
			continue
		}
		empty = false
		name := "?"
		if src.dataset != nil {
			name = src.dataset.Name
		}
		buf = fmt.Appendf(buf, "source operator %d (%s):\n", src.oid, name)
		var err error
		if buf, err = appendItems(buf, src.items, trees, appendReportItem); err != nil {
			return "", err
		}
	}
	if empty {
		buf = append(buf, "no contributing input items\n"...)
	}
	return string(buf), nil
}

// appendReportItem appends one traced item's report lines: identifier, row
// preview when the source has the row, and the tree's lines — from trees
// when the tree was rendered before.
func appendReportItem(dst []byte, si SourceItem, trees map[*backtrace.Tree][]byte) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, "  input item "...), si.Item.ID, 10)
	if si.Found {
		dst = appendPreview(append(dst, ": "...), si.Row.Value, previewBytes)
	}
	dst = append(dst, '\n')
	lines, ok := trees[si.Item.Tree]
	if !ok {
		lines = treeLines(si.Item.Tree)
		trees[si.Item.Tree] = lines
	}
	return append(dst, lines...), nil
}

// splitItems is the item count from which a source's items are rendered in
// two halves, one per goroutine.
const splitItems = 64

// itemRenderer appends one traced item in one answer form; trees memoizes
// the form's fragment of each tree rendered before.
type itemRenderer func(dst []byte, si SourceItem, trees map[*backtrace.Tree][]byte) ([]byte, error)

// appendItems appends the items of one source in item order. From
// splitItems items on, the second half is rendered on another goroutine into
// its own buffer, with its own tree memo, and appended to the first: every
// item sits at the same depth, so a tree's fragment is the same bytes
// wherever it recurs, and the answer is the bytes a sequential rendering
// gives. The first error in item order wins; a panic of the second half is
// its error.
func appendItems(dst []byte, items []SourceItem, trees map[*backtrace.Tree][]byte, render itemRenderer) ([]byte, error) {
	if len(items) < splitItems {
		return appendRange(dst, items, len(items), trees, render)
	}
	mid := len(items) / 2
	var (
		rest    []byte
		restErr error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		defer engine.Recover(&restErr)
		// The second half follows an item, so its buffer starts with the
		// '}' that closes a JSON item — a separator then finds its
		// predecessor. The byte is dropped when the halves are joined.
		rest, restErr = appendRange([]byte{'}'}, items[mid:], len(items)-mid, make(map[*backtrace.Tree][]byte), render)
	}()
	dst, err := appendRange(dst, items[:mid], len(items), trees, render)
	<-done
	if err == nil {
		err = restErr
	}
	if err != nil {
		return dst, err
	}
	return append(dst, rest[1:]...), nil
}

// appendRange renders items sequentially. After the first it grows dst for
// total items the size of the first: an answer's buffer is grown once per
// source rather than by doubling from 4 kB through the megabytes.
func appendRange(dst []byte, items []SourceItem, total int, trees map[*backtrace.Tree][]byte, render itemRenderer) ([]byte, error) {
	for i, si := range items {
		start := len(dst)
		var err error
		if dst, err = render(dst, si, trees); err != nil {
			return dst, err
		}
		if i == 0 {
			dst = slices.Grow(dst, (len(dst)-start)*(total-1))
		}
	}
	return dst, nil
}

// treeLines renders a tree as the report shows it: its non-empty lines,
// indented under the item.
func treeLines(t *backtrace.Tree) []byte {
	var out []byte
	for _, line := range strings.Split(strings.TrimRight(t.String(), "\n"), "\n") {
		if line != "" {
			out = append(append(append(out, "    "...), line...), '\n')
		}
	}
	return out
}

// appendPreview appends the first limit bytes of v.String() — rendered only
// that far — and an ellipsis when there is more. The cut never splits a
// rune: it falls on the last rune boundary at or before the limit.
func appendPreview(dst []byte, v nested.Value, limit int) []byte {
	start := len(dst)
	dst = v.AppendString(dst, limit)
	if len(dst)-start <= limit {
		return dst
	}
	cut := start + limit
	// A rune that straddles the limit starts at most UTFMax-1 bytes before it.
	for p := cut; p > cut-utf8.UTFMax && p > start; p-- {
		if utf8.RuneStart(dst[p]) {
			if _, size := utf8.DecodeRune(dst[p:]); p+size > cut {
				cut = p
			}
			break
		}
	}
	return append(dst[:cut], "…"...)
}

// JSON encodes the query result for machine consumption: the matched result
// count and, per source, the traced input items with their row data and
// backtracing trees. This is the exchange format a provenance front-end
// would consume. The document is written once, already indented; its bytes
// are what json.MarshalIndent(_, "", "  ") gives for
//
//	{"matched": n, "sources": [{"source_oid", "dataset"?, "items": [{"id", "row"?, "tree"}]}]}
//
// with absent lists as null. A row that cannot be encoded (a non-finite
// double) fails the call.
func (q *QueryResult) JSON() ([]byte, error) { return q.json(q.resolve()) }

func (q *QueryResult) json(sources []tracedSource) ([]byte, error) {
	buf := append(make([]byte, 0, 4096), '{')
	buf = strconv.AppendInt(jsonenc.Key(buf, 1, "matched"), int64(q.Matched.Len()), 10)
	buf = jsonenc.Key(buf, 1, "sources")
	if len(sources) == 0 {
		return jsonenc.Close(append(buf, "null"...), 0, '}'), nil
	}
	buf = append(buf, '[')
	// Shared trees are encoded once; every item sits at the same depth, so
	// the encoding of a tree is the same bytes wherever it recurs.
	trees := make(map[*backtrace.Tree][]byte)
	for _, src := range sources {
		var err error
		if buf, err = src.appendJSON(jsonenc.Sep(buf, 2), 2, trees); err != nil {
			return nil, err
		}
	}
	return jsonenc.Close(jsonenc.Close(buf, 1, ']'), 0, '}'), nil
}

// Answer is Report and JSON together, for a caller that wants both forms of
// one result: the traced items are paired with their source rows once, and
// the two forms are rendered concurrently. A panic of a render goroutine is
// the call's error.
func (q *QueryResult) Answer() (report string, result []byte, err error) {
	sources := q.resolve()
	var reportErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer engine.Recover(&reportErr)
		report, reportErr = q.report(sources)
	}()
	result, err = q.json(sources)
	<-done
	if err == nil {
		err = reportErr
	}
	if err != nil {
		return "", nil, err
	}
	return report, result, nil
}

// appendJSON appends one source, an object at depth: operator, dataset name
// when known, and traced items.
func (src tracedSource) appendJSON(dst []byte, depth int, trees map[*backtrace.Tree][]byte) ([]byte, error) {
	in := depth + 1
	dst = append(dst, '{')
	dst = strconv.AppendInt(jsonenc.Key(dst, in, "source_oid"), int64(src.oid), 10)
	if src.dataset != nil && src.dataset.Name != "" {
		dst = jsonenc.String(jsonenc.Key(dst, in, "dataset"), src.dataset.Name)
	}
	dst = jsonenc.Key(dst, in, "items")
	if len(src.items) == 0 {
		return jsonenc.Close(append(dst, "null"...), depth, '}'), nil
	}
	dst, err := appendItems(append(dst, '['), src.items, trees, func(dst []byte, si SourceItem, trees map[*backtrace.Tree][]byte) ([]byte, error) {
		return si.appendJSON(jsonenc.Sep(dst, in+1), in+1, trees)
	})
	if err != nil {
		return dst, err
	}
	return jsonenc.Close(jsonenc.Close(dst, in, ']'), depth, '}'), nil
}

// appendJSON appends one traced item, an object at depth: identifier, row
// data when the source has it, and backtracing tree — from trees when the
// tree was encoded before.
func (si SourceItem) appendJSON(dst []byte, depth int, trees map[*backtrace.Tree][]byte) ([]byte, error) {
	in := depth + 1
	dst = append(dst, '{')
	dst = strconv.AppendInt(jsonenc.Key(dst, in, "id"), si.Item.ID, 10)
	if si.Found {
		var err error
		if dst, err = si.Row.Value.AppendJSON(jsonenc.Key(dst, in, "row"), in); err != nil {
			return dst, fmt.Errorf("core: encode row of input item %d: %w", si.Item.ID, err)
		}
	}
	dst = jsonenc.Key(dst, in, "tree")
	if si.Item.Tree == nil {
		dst = append(dst, "null"...)
	} else if enc, ok := trees[si.Item.Tree]; ok {
		dst = append(dst, enc...)
	} else {
		start := len(dst)
		dst = si.Item.Tree.AppendJSON(dst, in)
		trees[si.Item.Tree] = dst[start:len(dst):len(dst)]
	}
	return jsonenc.Close(dst, depth, '}'), nil
}
