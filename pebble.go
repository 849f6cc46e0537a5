// Package pebble is a Go reproduction of Pebble, the structural provenance
// system for nested data in big data analytics of Diestelkämper & Herschel,
// "Tracing nested data with structural provenance for big data analytics"
// (EDBT 2020).
//
// Pebble traces *structural provenance*: in addition to which top-level
// input items contribute to which result items (lineage), it records — on
// schema level, at negligible cost — which attribute paths each operator
// accesses and which it structurally manipulates. At query time a
// tree-pattern selects result items (including individual elements of nested
// collections) and the backtracing algorithm walks the captured operator
// provenance back to the inputs, returning per input item a backtracing
// tree that distinguishes contributing attributes (needed to reproduce the
// queried result) from influencing attributes (accessed during processing
// but not part of the result).
//
// The package bundles everything the paper builds on: a nested data model,
// a partitioned dataflow engine with filter, select, map, join, union,
// flatten, and grouping/aggregation operators, the lightweight capture, the
// tree-pattern matcher, and the backtracing algorithms.
//
// A minimal session looks like this:
//
//	p := pebble.NewPipeline()
//	src := p.Source("tweets.json")
//	filt := p.Filter(src, pebble.Eq(pebble.Col("retweet_cnt"), pebble.LitInt(0)))
//	...
//	session := pebble.NewSession(pebble.WithPartitions(4))
//	cap, err := session.Capture(p, inputs)
//	q, err := cap.Query(pebble.NewPattern(
//	    pebble.Desc("id_str").WithEq(pebble.String("lp")),
//	))
//	fmt.Println(q.Report())
//
// Attach a Recorder (pebble.WithRecorder(pebble.NewRecorder())) to collect
// per-operator execution metrics and query timing spans; read them back via
// cap.Stats().
package pebble

import (
	"context"
	"fmt"
	"io"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/obs"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
)

// Session configures pipeline executions; see core.Session.
type Session = core.Session

// Option configures a Session built with NewSession.
type Option = core.Option

// NewSession builds a session from functional options; NewSession() with no
// options is a ready-to-use default session. The struct-literal form
// (pebble.Session{Partitions: 4}) remains supported.
func NewSession(opts ...Option) Session { return core.NewSession(opts...) }

// WithPartitions sets the logical data parallelism (identifier assignment
// and result order; default engine partition count).
func WithPartitions(n int) Option { return core.WithPartitions(n) }

// WithWorkers sets the size of the engine's morsel pool (0 = NumCPU). At 1
// there is no pool: a stage runs its partitions one after another, and only
// independent plan branches may overlap. Results are byte-identical for
// every value.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithRecorder attaches an observability recorder to the session; every run
// reports per-operator counters and timing spans into it.
func WithRecorder(rec *Recorder) Option { return core.WithRecorder(rec) }

// Recorder collects per-operator execution metrics and timing spans; create
// one with NewRecorder, attach it via WithRecorder (or Session.Recorder),
// and read it with Snapshot or Captured.Stats. A nil *Recorder disables all
// collection at near-zero cost.
type Recorder = obs.Recorder

// NewRecorder returns an empty metrics recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// Stats is a merged snapshot of recorded metrics; render it with Render or
// inspect per-operator OpStat entries.
type Stats = obs.Stats

// OpStat is the merged per-operator counter row of a Stats snapshot.
type OpStat = obs.OpStat

// Captured is an executed pipeline with its structural provenance.
type Captured = core.Captured

// QueryResult is the answer to a structural provenance question.
type QueryResult = core.QueryResult

// SourceItem pairs one traced input item with its resolved source row.
type SourceItem = core.SourceItem

// Pipeline is a DAG of dataflow operators; build it with NewPipeline and the
// builder methods Source, Filter, Select, Map, Join, Union, Flatten, and
// Aggregate.
type Pipeline = engine.Pipeline

// Op is one operator node of a pipeline.
type Op = engine.Op

// Dataset is a partitioned collection of provenance-annotated nested items.
type Dataset = engine.Dataset

// Row is one top-level item with its provenance identifier.
type Row = engine.Row

// Result is the outcome of a pipeline execution.
type Result = engine.Result

// Tree is a backtracing tree distinguishing contributing from influencing
// attributes (Def. 6.3). The trees inside a match (Pattern.Match,
// Captured.Match) or a trace result are shared — many items may point at one
// *Tree — and read-only: build or modify only trees of your own (NewTree,
// Tree.Clone, Structure.Clone).
type Tree = backtrace.Tree

// TreeNode is one node of a backtracing tree.
type TreeNode = backtrace.Node

// Structure is a backtracing structure: provenance identifiers paired with
// backtracing trees (Def. 6.2). A trace only reads the structure it is given
// and may hand its trees on in the result; items that carry the same tree
// cost the trace one tree. Structure.Clone() gives a private deep copy, one
// tree per item.
type Structure = backtrace.Structure

// TraceResult maps source operators to their backtraced structures. Items
// whose trees have the same content share one *Tree, across sources too; the
// trees are read-only (see Tree).
type TraceResult = backtrace.Result

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline { return engine.NewPipeline() }

// NewDataset partitions values into parts partitions, assigning each row a
// unique provenance identifier. parts <= 0 means the engine default
// partition count, matching a default Session — for a dataset that should
// follow a specific session's partitioning, prefer Session.NewDataset
// (precedence: explicit positive parts > session partitions > engine
// default). Sessions and datasets must agree on the partition count for
// byte-identical reproducible runs.
func NewDataset(name string, values []Value, parts int) *Dataset {
	if parts <= 0 {
		parts = engine.DefaultPartitions
	}
	return engine.NewDataset(name, values, parts, engine.NewIDGen(1))
}

// Pattern is a tree-pattern provenance query (Sec. 6.1).
type Pattern = treepattern.Pattern

// PatternNode is one node of a tree pattern.
type PatternNode = treepattern.Node

// NewPattern returns a tree pattern whose implicit root is the top-level
// result item.
func NewPattern(children ...*PatternNode) *Pattern { return treepattern.New(children...) }

// Child returns a parent-child pattern node.
func Child(attr string, children ...*PatternNode) *PatternNode {
	return treepattern.Child(attr, children...)
}

// Desc returns an ancestor-descendant pattern node.
func Desc(attr string, children ...*PatternNode) *PatternNode {
	return treepattern.Desc(attr, children...)
}

// TreeFromValue builds a full-coverage backtracing tree for a result value;
// use it to query the complete provenance of an item.
func TreeFromValue(v Value) *Tree { return core.TreeFromValue(v) }

// NewStructure returns an empty backtracing structure for hand-built
// provenance questions.
func NewStructure() *Structure { return backtrace.NewStructure() }

// ProvenanceRun is the captured structural provenance of one execution. A
// capture ends by encoding it, and the run is the lazy view of those bytes,
// exactly as a reload is: WriteTo persists them verbatim, and ReadProvenance
// reloads them so queries can run long after the pipeline did (e.g. during a
// breach investigation).
type ProvenanceRun = provenance.Run

// ReadProvenance loads a provenance run persisted with (*ProvenanceRun).WriteTo.
func ReadProvenance(r io.Reader) (*ProvenanceRun, error) { return provenance.ReadRun(r) }

// ReadProvenanceLazy loads a run from its encoded bytes with on-demand
// association decode: the stream is validated and indexed up front, but an
// operator's association columns materialise only when a trace first touches
// them — a backtrace visiting three operators of a large run decodes three
// column regions. The bytes are all a reload needs: a tracer over the run
// reads its indexes off those columns.
func ReadProvenanceLazy(data []byte) (*ProvenanceRun, error) { return provenance.ReadRunLazy(data) }

// Tracer answers provenance queries over one captured or reloaded run. An
// operator's index is its own association columns, decoded on the first
// trace through it and kept across queries: the engine numbers an operator's
// output in row order, so a lookup is a subtraction. An operator whose rows
// are out of order (a run the engine did not write) is sorted on the first
// trace through it.
type Tracer = backtrace.Tracer

// NewTracer returns a tracer over the run. On reload paths, load the run
// with ReadProvenanceLazy, so that a trace decodes only the operators it
// walks through.
func NewTracer(run *ProvenanceRun) *Tracer { return backtrace.NewTracer(run) }

// CompiledPattern is the executable form of a tree pattern (see
// (*Pattern).Compile); it is immutable and safe for concurrent matching.
type CompiledPattern = treepattern.Compiled

// OpID identifies an operator within a pipeline and its captured provenance
// run; it is stable across serialisation, so an OpID noted at capture time
// still addresses the same operator after ReadProvenance.
type OpID = provenance.OpID

// ProvOperator is one operator's captured provenance within a run; resolve
// it with (*ProvenanceRun).OpByID and trace from it with TraceFrom or
// Captured.TraceAt.
type ProvOperator = provenance.Operator

// TraceFrom answers a provenance question over a (possibly reloaded)
// provenance run without a Session: it backtraces the structure from the
// given captured operator. Resolve the operator with run.OpByID or
// run.Operators(). (The former pebble.Trace, which took a raw operator id,
// is gone — the typed form catches stale identifiers at resolution time
// rather than deep inside the walk.)
func TraceFrom(run *ProvenanceRun, op *ProvOperator, b *Structure) (*TraceResult, error) {
	return backtrace.TraceOp(run, op, b)
}

// TraceFromContext is TraceFrom with cooperative cancellation: the context
// is checked at every operator step of the backtracing walk, so a cancelled
// provenance query (e.g. a pebbled trace job whose client went away) stops
// promptly instead of building further association indexes.
func TraceFromContext(ctx context.Context, run *ProvenanceRun, op *ProvOperator, b *Structure) (*TraceResult, error) {
	if op == nil {
		return nil, fmt.Errorf("pebble: TraceFromContext on nil operator")
	}
	return backtrace.NewTracer(run).TraceContext(ctx, op.OID, b)
}

// ParsePattern builds a tree-pattern query from its textual form, e.g. the
// paper's Fig. 4 question: `//id_str == "lp", tweets(text == "Hello World" #[2,2])`.
// See treepattern.Parse for the grammar.
func ParsePattern(query string) (*Pattern, error) { return treepattern.Parse(query) }

// Optimize applies provenance-safe plan rewrites (filter merging and
// pushdown below select/flatten/union) and returns the rewritten pipeline
// with a log of applied rules. Structural provenance is captured on whatever
// plan executes, so optimization never changes the backtraced input items.
func Optimize(p *Pipeline) (*Pipeline, []string, error) { return engine.Optimize(p) }

// Analyze type-checks the pipeline against declared input item types before
// running it, catching unknown columns, flattening of scalars, union type
// mismatches, join collisions, and ill-typed aggregations at plan time.
// It returns each operator's inferred output type.
func Analyze(p *Pipeline, inputTypes map[string]Type) (map[int]Type, error) {
	return engine.Analyze(p, inputTypes)
}

// InferInputTypes derives input types from datasets by merging the types of
// sampled rows (semi-structured inputs yield the union of attributes).
func InferInputTypes(inputs map[string]*Dataset) map[string]Type {
	return engine.InferInputTypes(inputs)
}
