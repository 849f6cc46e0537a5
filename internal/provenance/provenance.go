// Package provenance holds the lightweight structural provenance model of
// Sec. 5.1: for every operator a 5-tuple P = ⟨oid, type, I, M, P⟩ whose
// static part (accessed paths I.A and manipulation mapping M, both on schema
// level) is recorded once per operator, and whose association bag P records
// per-item top-level identifiers in the operator-dependent layouts of Tab. 6.
// A bag has one in-memory form, from the collector to the tracer: Columns.
package provenance

import (
	"fmt"
	"slices"
	"strings"

	"pebble/internal/engine"
)

// AssocKind enumerates the association bag layouts of Tab. 6; the values
// coincide with the codec's wire tags.
type AssocKind uint8

const (
	// AssocNone marks an operator that captured no association bag.
	AssocNone AssocKind = iota
	// AssocSource is the ⟨id, orig_id⟩ layout of source operators: the
	// identifier a read assigned and the one the row carried in the raw input.
	AssocSource
	// AssocUnary is the ⟨id_i, id_o⟩ layout of map, select, and filter.
	AssocUnary
	// AssocBinary is the ⟨id_i1, id_i2, id_o⟩ layout of join and union; for
	// union the absent side is -1.
	AssocBinary
	// AssocFlatten is the ⟨id_i, pos, id_o⟩ layout of flatten, with the
	// 1-based position of the flattened element within its collection.
	AssocFlatten
	// AssocAgg is the ⟨ids_i, id_o⟩ layout of grouping/aggregation; the order
	// of ids_i equals the element order of every nested collection the
	// aggregation produced for the group.
	AssocAgg
)

// Columns is one operator's association bag as parallel columns, one entry
// per association row in captured order: the layout the collector merges
// into, the run stream stores and the tracer looks identifiers up in
// (internal/backtrace) — where Out is non-decreasing, the columns are the
// index.
type Columns struct {
	Kind  AssocKind
	Out   []int64 // id_o (a source's id)
	In    []int64 // id_i (binary: id_i1; source: orig_id; aggregate: all rows' ids_i, concatenated)
	Right []int64 // binary: id_i2
	Pos   []int64 // flatten: pos
	Offs  []int32 // aggregate: row i owns In[Offs[i]:Offs[i+1]]
}

// Operator is the captured provenance P of one operator. Its static part is
// read through accessors: a loaded run has been checked against it (see
// ReadRunLazy), so it is shared and read-only, like the columns.
type Operator struct {
	OID            int
	typ            engine.OpType
	inputs         []engine.InputInfo
	manip          []engine.Mapping
	manipUndefined bool

	// The association bag P: what is known of it without its columns (all the
	// load-time scan of a lazily loaded run establishes; fixed from then on,
	// so read without synchronisation), and the columns, which a lazily
	// loaded operator writes once, under lazy.once.
	kind       AssocKind
	n          int  // association rows
	totalIns   int  // AssocAgg only: len(cols.In)
	outOfOrder bool // the Out column decreases somewhere
	cols       Columns
	// lazy, while non-nil, is the validated region of a lazily loaded run
	// that cols decodes from on first touch (see Columns).
	lazy *lazyAssoc
	// bytes is the operator's share of the stream (EncodedBytes).
	bytes int64
}

// setColumns installs decoded columns as the operator's bag and derives the
// facts the other methods answer from.
func (o *Operator) setColumns(c Columns) {
	o.kind, o.n, o.totalIns, o.cols = c.Kind, len(c.Out), 0, c
	if c.Kind == AssocAgg {
		o.totalIns = len(c.In)
	}
	o.outOfOrder = !slices.IsSorted(c.Out)
}

// Columns returns the operator's association bag. The columns are shared —
// with the run, with every tracer that indexes it and with every other
// caller — and read-only. A lazily loaded operator decodes them from its
// validated region on first touch, once, whichever reader comes first.
func (o *Operator) Columns() Columns {
	if l := o.lazy; l != nil {
		l.once.Do(func() { o.cols = l.decode(o) })
	}
	return o.cols
}

// Type returns the operator's type.
func (o *Operator) Type() engine.OpType { return o.typ }

// Inputs mirrors I: per input the predecessor operator (or, for a source, the
// dataset) and the accessed paths A on schema level. Shared and read-only.
func (o *Operator) Inputs() []engine.InputInfo { return o.inputs }

// Manipulated is the schema-level manipulation mapping M. Shared and
// read-only.
func (o *Operator) Manipulated() []engine.Mapping { return o.manip }

// ManipUndefined reports M = ⊥ (map operator).
func (o *Operator) ManipUndefined() bool { return o.manipUndefined }

// AssocKind returns the layout of the operator's association bag.
func (o *Operator) AssocKind() AssocKind { return o.kind }

// AssocCount returns the number of association rows of the operator.
func (o *Operator) AssocCount() int { return o.n }

// OutOrdered reports whether the operator's Out column is non-decreasing. The
// engine writes no other: identifiers are assigned in partition-concatenated
// row order.
func (o *Operator) OutOrdered() bool { return !o.outOfOrder }

// OrigIDs maps the identifiers a source operator assigned to the ones the
// rows carried in the raw input dataset, so analyses can correlate several
// reads of one input. It is empty for any other operator.
func (o *Operator) OrigIDs() map[int64]int64 {
	if o.kind != AssocSource {
		return map[int64]int64{}
	}
	c := o.Columns()
	m := make(map[int64]int64, len(c.Out))
	for i, id := range c.Out {
		m[id] = c.In[i]
	}
	return m
}

// OpID identifies an operator within a pipeline and its captured
// provenance run. The engine's pipeline builder assigns them in plan order
// (1-based); they are stable across serialisation, so an OpID noted when
// the run was captured still addresses the same operator after reload.
type OpID int

// Run is the provenance captured during one pipeline execution.
type Run struct {
	ops   map[int]*Operator
	order []int

	// stream is the encoded form the run was loaded from — a capture's is
	// the one Collector.Finish encoded — which WriteTo writes and
	// ContentHash fingerprints; lazy is its shared backing state while bags
	// remain undecoded (nil once ReadRun has decoded every bag).
	stream []byte
	lazy   *lazyStream
	sizes  Sizes // of stream, measured by the load scan
}

// Op returns the operator provenance for the given operator identifier.
func (r *Run) Op(oid int) (*Operator, bool) {
	op, ok := r.ops[oid]
	return op, ok
}

// OpByID returns the operator provenance addressed by the typed OpID — the
// query-side entry point for backtracing from a specific operator (see
// Captured.TraceAt and pebble.TraceFrom).
func (r *Run) OpByID(id OpID) (*Operator, bool) {
	return r.Op(int(id))
}

// ID returns the operator's typed identifier.
func (o *Operator) ID() OpID { return OpID(o.OID) }

// Operators returns the captured operators in execution order.
func (r *Run) Operators() []*Operator {
	out := make([]*Operator, 0, len(r.order))
	for _, oid := range r.order {
		out = append(out, r.ops[oid])
	}
	return out
}

// String summarises the captured provenance.
func (r *Run) String() string {
	var sb strings.Builder
	for _, op := range r.Operators() {
		fmt.Fprintf(&sb, "P%d type=%s assocs=%d\n", op.OID, op.typ, op.AssocCount())
	}
	return sb.String()
}

// Sizes splits a run's stream the way Fig. 8 stacks its bars, as the load
// scan measured it; the shares sum to the stream's length. LineageBytes are
// the association regions less flatten's Pos columns: the id columns (with
// row counts and group lengths) a lineage solution such as Titian stores
// too. StructuralExtra is what structural provenance adds: the Pos columns
// and each operator's header (type, inputs, paths, mappings, tag). Framing
// is what no operator owns: magic, version, string dictionary, op count.
type Sizes struct {
	LineageBytes    int64
	StructuralExtra int64
	Framing         int64
}

// Sizes returns the split of the run's stream the load scan measured. A v1
// stream has no columnar layout to split and reports zeros.
func (r *Run) Sizes() Sizes { return r.sizes }

// EncodedBytes returns the operator's share of the stream, its header and
// its bag: what the encoder reported as its obs.ProvBytes (0 in a v1 run).
func (o *Operator) EncodedBytes() int64 { return o.bytes }
