package engine

import (
	"pebble/internal/nested"
	"pebble/internal/path"
)

// Mapping is one structural manipulation ⟨p_in, p_out⟩ ∈ M: the operator
// copies/moves the data reachable at the input path to the output path
// (Def. 4.9). Paths are on schema level; positions appear as the [pos]
// placeholder.
type Mapping struct {
	In  path.Path
	Out path.Path
	// GroupKey marks the grouping-attribute mappings of an aggregation
	// (⟨g_i, g_r⟩ in Tab. 5). Backtracing treats them specially: they
	// transform paths but never decide by themselves whether an input item
	// remains in the provenance (cf. Ex. 6.6, where group members at other
	// positions are removed).
	GroupKey bool
}

// InputInfo describes one input of an operator for provenance capture: which
// operator (or source dataset) produced it and which paths the operator
// accesses on it (the set A of Def. 4.10, on schema level).
type InputInfo struct {
	// Pred is the identifier of the preceding operator, or 0 when the input
	// is a raw source dataset.
	Pred int
	// SourceName names the source dataset when Pred == 0.
	SourceName string
	// Accessed lists the accessed paths. Nil with AccessUndefined unset
	// means A = ∅ (e.g. union); AccessUndefined set means A = ⊥ (map).
	Accessed []path.Path
	// AccessUndefined marks A = ⊥, used for opaque map functions.
	AccessUndefined bool
	// Schema lists the input's top-level attribute names for operators whose
	// backtracing needs them: join (to prune the other side's attributes)
	// and union (for symmetry).
	Schema []string
}

// OpInfo is the static, data-item-independent part of the lightweight
// operator provenance P = ⟨oid, type, I, M, P⟩ (Def. 5.1): everything but
// the per-item association bag P, which the sink receives morsel by morsel.
type OpInfo struct {
	OID    int
	Type   OpType
	Inputs []InputInfo
	// Manipulated is the schema-level manipulation mapping M. Nil with
	// ManipUndefined unset means M = ∅; ManipUndefined set means M = ⊥.
	Manipulated    []Mapping
	ManipUndefined bool
}

// CaptureSink receives provenance during execution. StartOperator is called
// once per operator before its rows flow; Morsel then hands over the
// association bag of every partition morsel, as the operator wrote it.
// StartOperator for one operator may race with Morsel calls of another (the
// engine executes independent DAG branches concurrently), and the partitions
// of one operator hand over concurrently, but the morsels of one (operator,
// partition) pair arrive in order from one goroutine at a time. A nil sink
// disables capture entirely.
type CaptureSink interface {
	// StartOperator announces an operator and its static provenance.
	StartOperator(info OpInfo, partitions int)
	// Morsel hands over the associations of n rows of partition part of an
	// announced operator, whose output identifiers are base, base+1, … in row
	// order. The sink owns a's slices from then on; the executor neither
	// reads nor reuses them.
	Morsel(oid, part int, base int64, n int, a Assocs)
}

// Assocs is a morsel's association bag P (Def. 5.1) as columns parallel to
// its rows; which of them are set follows the operator's layout (Tab. 6).
type Assocs struct {
	// In is each row's input id: the id the row carried in the raw dataset
	// for a source, the left id for join and union, and nil for aggregate
	// and distinct.
	In []int64
	// Right is a join's or union's right id; -1 marks the absent side of a
	// union row.
	Right []int64
	// Pos is flatten's 1-based position of the exploded element.
	Pos []int64
	// Lists holds, for aggregate and distinct, the ids of every input row
	// that contributes to each output row: for an aggregate in the element
	// order of every nested collection it produced, for distinct one unary
	// association per collapsed duplicate.
	Lists [][]int64
}

// opInfo derives the static provenance of an operator per the inference
// rules of Tab. 5. Join and union need the row types of both inputs (their
// top-level attributes give the identity mapping and the side pruning), and
// aggregation needs the type at each of its group keys, whose attribute names
// expand a struct-valued key into its leaf paths; the executor passes those
// types, read by datasetType, in types.
func opInfo(o *Op, types []nested.Type) OpInfo {
	info := OpInfo{OID: o.id, Type: o.typ}
	for _, in := range o.inputs {
		info.Inputs = append(info.Inputs, InputInfo{Pred: in.id})
	}
	switch o.typ {
	case OpSource:
		info.Inputs = []InputInfo{{Pred: 0, SourceName: o.sourceName}}
	case OpFilter:
		// A = paths of φ(i); M = ∅ (the item's structure is kept entirely).
		info.Inputs[0].Accessed = dedupPaths(o.pred.Paths())
	case OpSelect:
		var accessed []path.Path
		var manip []Mapping
		collectSelect(o.fields, nil, &accessed, &manip)
		info.Inputs[0].Accessed = dedupPaths(accessed)
		info.Manipulated = manip
	case OpMap:
		// A = ⊥ and M = ⊥: the internals of λ are unknown (Sec. 5.0.1).
		info.Inputs[0].AccessUndefined = true
		info.ManipUndefined = true
	case OpJoin:
		info.Inputs[0].Accessed = dedupPaths(o.leftKey.Paths())
		info.Inputs[1].Accessed = dedupPaths(o.rightKey.Paths())
		info.Inputs[0].Schema = fieldNames(types[0])
		info.Inputs[1].Schema = fieldNames(types[1])
		// M: every top-level attribute of either schema maps identically
		// into the result item r = ⟨i, j⟩.
		for _, in := range info.Inputs {
			for _, a := range in.Schema {
				info.Manipulated = append(info.Manipulated, Mapping{In: path.New(a), Out: path.New(a)})
			}
		}
	case OpUnion:
		// A = ∅ (schema comparison only) and M = ∅.
		info.Inputs[0].Schema = fieldNames(types[0])
		info.Inputs[1].Schema = fieldNames(types[1])
	case OpDistinct, OpLimit:
		// Identity structure; distinct compares whole items and limit reads
		// nothing, so both leave A = ∅ and M = ∅.
	case OpOrderBy:
		var accessed []path.Path
		for _, k := range o.sortKeys {
			accessed = append(accessed, k.Paths()...)
		}
		info.Inputs[0].Accessed = dedupPaths(accessed)
	case OpFlatten:
		// The accessed/manipulated path is a_col[pos]: the pos-th element of
		// the flattened collection.
		colPos := o.flattenCol.SchemaLevel().Clone()
		colPos[len(colPos)-1].Index = path.Pos
		info.Inputs[0].Accessed = []path.Path{colPos}
		info.Manipulated = []Mapping{{In: colPos, Out: path.New(o.flattenNew)}}
	case OpAggregate:
		var accessed []path.Path
		var manip []Mapping
		for i, g := range o.groupBy {
			// Grouping by a struct-valued key compares every leaf of the
			// struct, so all its leaf attributes are accessed (Ex. 6.6 marks
			// user and its children).
			accessed = leafPaths(types[i], g.Path.SchemaLevel(), accessed)
			manip = append(manip, Mapping{In: g.Path.SchemaLevel(), Out: path.New(g.Name), GroupKey: true})
		}
		for _, a := range o.aggs {
			if len(a.In) > 0 {
				accessed = append(accessed, a.In.SchemaLevel())
			}
			out := path.New(a.Out)
			if a.Func == AggCollectList {
				// Bag nesting: the aggregated value lands at out[pos], the
				// position matching the input id's position in ids_i (Alg. 4).
				// collect_set deduplicates and so loses the id↔position
				// alignment; its mapping targets the whole collection, which
				// is conservative but sound.
				out[len(out)-1].Index = path.Pos
			}
			in := a.In.SchemaLevel()
			if len(in) == 0 {
				in = nil
			}
			manip = append(manip, Mapping{In: in, Out: out})
		}
		info.Inputs[0].Accessed = dedupPaths(accessed)
		info.Manipulated = manip
	}
	return info
}

// collectSelect walks select fields, accumulating accessed paths and
// manipulation mappings. outPrefix is the output path of the enclosing
// struct fields.
func collectSelect(fields []SelectField, outPrefix path.Path, accessed *[]path.Path, manip *[]Mapping) {
	for _, f := range fields {
		out := outPrefix.Append(path.Step{Attr: f.Name, Index: path.NoIndex})
		switch {
		case len(f.Col) > 0:
			in := f.Col.SchemaLevel()
			*accessed = append(*accessed, in)
			*manip = append(*manip, Mapping{In: in, Out: out})
		case len(f.Struct) > 0:
			collectSelect(f.Struct, out, accessed, manip)
		case f.Expr != nil:
			// Computed field: accessed paths are known, the mapping is not.
			*accessed = append(*accessed, f.Expr.Paths()...)
		}
	}
}

// leafPaths appends to out the leaf paths under p of t, the type at p: a
// type with attribute names, an item's or those a kind conflict kept,
// expands into them, and any other yields p itself.
func leafPaths(t nested.Type, p path.Path, out []path.Path) []path.Path {
	if len(t.Fields) == 0 {
		return append(out, p)
	}
	for _, f := range t.Fields {
		out = leafPaths(f.Type, p.Append(path.Step{Attr: f.Name, Index: path.NoIndex}), out)
	}
	return out
}

func dedupPaths(paths []path.Path) []path.Path {
	s := path.NewSet(paths...)
	return s.Paths()
}

// datasetType merges into one type (nested.Type.Merge) the values gather
// reads at p off every row of d, the rows themselves when p is empty; ok is
// false when d has no rows.
func datasetType(d *Dataset, p path.Path) (t nested.Type, ok bool) {
	vals := make([]nested.Value, batchSize)
	for _, part := range d.Partitions {
		for lo := 0; lo < len(part); lo += batchSize {
			rows := part[lo:min(lo+batchSize, len(part))]
			gather(p, rows, vals, 0, 1)
			for i := range rows {
				t.Merge(vals[i])
			}
			ok = true
		}
	}
	return t, ok
}

// fieldNames returns the attribute names of t in order, nil when it has
// none.
func fieldNames(t nested.Type) []string {
	var names []string
	for _, f := range t.Fields {
		names = append(names, f.Name)
	}
	return names
}
