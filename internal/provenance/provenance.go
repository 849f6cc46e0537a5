// Package provenance holds the lightweight structural provenance model of
// Sec. 5.1: for every operator a 5-tuple P = ⟨oid, type, I, M, P⟩ whose
// static part (accessed paths I.A and manipulation mapping M, both on schema
// level) is recorded once per operator, and whose association bag P records
// per-item top-level identifiers in the operator-dependent layouts of Tab. 6.
package provenance

import (
	"fmt"
	"strings"

	"pebble/internal/engine"
	"pebble/internal/obs"
)

// UnaryAssoc is ⟨id_i, id_o⟩ for map, select, and filter.
type UnaryAssoc struct {
	In, Out int64
}

// BinaryAssoc is ⟨id_i1, id_i2, id_o⟩ for join and union; for union the
// absent side is -1.
type BinaryAssoc struct {
	Left, Right, Out int64
}

// FlattenAssoc is ⟨id_i, pos, id_o⟩ with the 1-based position of the
// flattened element within its collection.
type FlattenAssoc struct {
	In  int64
	Pos int
	Out int64
}

// AggAssoc is ⟨ids_i, id_o⟩; the order of Ins equals the element order of
// every nested collection the aggregation produced for this group.
type AggAssoc struct {
	Ins []int64
	Out int64
}

// SourceAssoc links a source-assigned identifier to the identifier the row
// carried in the raw input dataset.
type SourceAssoc struct {
	ID     int64
	OrigID int64
}

// Operator is the captured provenance P of one operator.
type Operator struct {
	OID  int
	Type engine.OpType
	// Inputs mirrors I: predecessor operator (or source dataset) plus the
	// accessed paths A on schema level.
	Inputs []engine.InputInfo
	// Manipulated is the schema-level manipulation mapping M.
	Manipulated []engine.Mapping
	// ManipUndefined marks M = ⊥ (map operator).
	ManipUndefined bool

	// The association bag P, in the operator-dependent layout of Tab. 6.
	// Exactly one of the following is populated (by operator type). For
	// lazily loaded runs (ReadRunLazy) the populated field stays nil until
	// first touch — read the bag through the *Assocs accessors in lazy.go,
	// which materialise on demand.
	Unary     []UnaryAssoc
	Binary    []BinaryAssoc
	Flatten   []FlattenAssoc
	Agg       []AggAssoc
	SourceIDs []SourceAssoc

	// lazy, when non-nil, defers the association columns of a lazily loaded
	// run to first touch (see lazy.go).
	lazy *lazyAssoc
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

	// lazy is the shared backing stream of a lazily loaded run (nil for
	// eagerly built or decoded runs); hash is the FNV-1a content hash of the
	// encoded stream when the run was loaded from bytes (see ContentHash).
	lazy    *lazyStream
	hash    uint64
	hasHash bool

	// rec is the recorder the run was captured under (nil for a reloaded or
	// unobserved run); WriteTo reports encoded bytes into it.
	rec *obs.Recorder
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
		fmt.Fprintf(&sb, "P%d type=%s assocs=%d\n", op.OID, op.Type, op.AssocCount())
	}
	return sb.String()
}

// AssocCount returns the number of association rows of the operator. For a
// lazily loaded operator the count comes from the load-time scan, without
// materialising the columns.
func (o *Operator) AssocCount() int {
	if o.lazy != nil {
		return o.lazy.n
	}
	switch {
	case o.Unary != nil:
		return len(o.Unary)
	case o.Binary != nil:
		return len(o.Binary)
	case o.Flatten != nil:
		return len(o.Flatten)
	case o.Agg != nil:
		return len(o.Agg)
	case o.SourceIDs != nil:
		return len(o.SourceIDs)
	}
	return 0
}

// Sizes reports the storage footprint of the captured provenance, split the
// way Fig. 8 stacks its bars: the lineage share (top-level identifier
// associations, which a Titian-style solution stores too) and the structural
// extra (flatten positions plus the schema-level path and mapping strings).
type Sizes struct {
	LineageBytes    int64
	StructuralExtra int64
}

// Total returns the combined footprint.
func (s Sizes) Total() int64 { return s.LineageBytes + s.StructuralExtra }

const idBytes = 8

// Sizes computes the storage footprint of one operator's provenance.
func (o *Operator) Sizes() Sizes {
	var s Sizes
	if o.lazy != nil {
		// Lazily loaded: the footprint model is a pure function of the row
		// and element counts the load-time scan recorded, so Sizes never
		// forces materialisation.
		switch o.lazy.tag {
		case AssocUnary:
			s.LineageBytes = int64(o.lazy.n) * 2 * idBytes
		case AssocBinary:
			s.LineageBytes = int64(o.lazy.n) * 3 * idBytes
		case AssocFlatten:
			s.LineageBytes = int64(o.lazy.n) * 2 * idBytes
			s.StructuralExtra = int64(o.lazy.n) * idBytes
		case AssocAgg:
			s.LineageBytes = int64(o.lazy.totalIns+o.lazy.n) * idBytes
		case AssocSource:
			s.LineageBytes = int64(o.lazy.n) * idBytes
		}
		return o.addStaticSizes(s)
	}
	switch {
	case o.Unary != nil:
		s.LineageBytes = int64(len(o.Unary)) * 2 * idBytes
	case o.Binary != nil:
		s.LineageBytes = int64(len(o.Binary)) * 3 * idBytes
	case o.Flatten != nil:
		s.LineageBytes = int64(len(o.Flatten)) * 2 * idBytes
		// Lineage solutions do not capture the element positions (Sec. 7.3.2).
		s.StructuralExtra = int64(len(o.Flatten)) * idBytes
	case o.Agg != nil:
		for _, a := range o.Agg {
			s.LineageBytes += int64(len(a.Ins)+1) * idBytes
		}
	case o.SourceIDs != nil:
		s.LineageBytes = int64(len(o.SourceIDs)) * idBytes
	}
	return o.addStaticSizes(s)
}

// addStaticSizes adds the schema-level paths and mappings, recorded once per
// operator.
func (o *Operator) addStaticSizes(s Sizes) Sizes {
	for _, in := range o.Inputs {
		for _, p := range in.Accessed {
			s.StructuralExtra += int64(len(p.String()))
		}
	}
	for _, m := range o.Manipulated {
		s.StructuralExtra += int64(len(m.In.String()) + len(m.Out.String()))
	}
	return s
}

// Sizes sums the per-operator footprints of the whole run.
func (r *Run) Sizes() Sizes {
	var total Sizes
	for _, op := range r.ops {
		s := op.Sizes()
		total.LineageBytes += s.LineageBytes
		total.StructuralExtra += s.StructuralExtra
	}
	return total
}
