package engine

import (
	"fmt"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// Analyze type-checks the pipeline against the declared input item types,
// propagating schemas operator by operator like Spark's analyzer: unknown
// columns in predicates and projections, flattening non-collections, union
// type mismatches, join attribute collisions, and ill-typed aggregations are
// reported at plan time instead of failing mid-execution.
//
// Map functions are opaque; their output schema is unknown, so checking is
// suspended downstream of a map until an operator re-establishes a schema
// (none can, so everything below a map is accepted).
//
// The returned map holds each operator's output item type (absent for
// operators below a map).
func Analyze(p *Pipeline, inputTypes map[string]nested.Type) (map[int]nested.Type, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make(map[int]nested.Type, len(p.ops))
	known := make(map[int]bool, len(p.ops))
	for _, o := range p.ops {
		t, ok, err := analyzeOp(o, inputTypes, out, known)
		if err != nil {
			return nil, fmt.Errorf("engine: analyze %s: %w", o, err)
		}
		known[o.id] = ok
		if ok {
			out[o.id] = t
		}
	}
	return out, nil
}

// InferInputTypes derives declared input types from the datasets: each
// input's type is the merge (nested.Type.Merge) of its every row, so
// semi-structured inputs (like the DBLP dataset, whose record types carry
// different attributes) yield the union of their attributes, int and double
// widen to double, and conflicting kinds are recorded as unknown (null,
// compatible with anything). Empty inputs are left out.
func InferInputTypes(inputs map[string]*Dataset) map[string]nested.Type {
	out := make(map[string]nested.Type, len(inputs))
	for name, d := range inputs {
		if t, ok := datasetType(d, nil); ok {
			out[name] = t
		}
	}
	return out
}

func analyzeOp(o *Op, inputTypes map[string]nested.Type, schemas map[int]nested.Type, known map[int]bool) (nested.Type, bool, error) {
	in := func(i int) (nested.Type, bool) {
		id := o.inputs[i].id
		return schemas[id], known[id]
	}
	switch o.typ {
	case OpSource:
		t, ok := inputTypes[o.sourceName]
		if !ok {
			// Undeclared inputs are legal (e.g. empty datasets); checking is
			// suspended downstream.
			return nested.Type{}, false, nil
		}
		if t.Kind != nested.KindItem {
			return nested.Type{}, false, fmt.Errorf("input %q is %s, want an item type", o.sourceName, t.Kind)
		}
		return t, true, nil
	case OpFilter:
		t, ok := in(0)
		if !ok {
			return nested.Type{}, false, nil
		}
		if err := checkExprPaths(o.pred, t); err != nil {
			return nested.Type{}, false, err
		}
		return t, true, nil
	case OpSelect:
		t, ok := in(0)
		if !ok {
			return nested.Type{}, false, nil
		}
		outT, err := selectType(o.fields, t)
		if err != nil {
			return nested.Type{}, false, err
		}
		return outT, true, nil
	case OpMap:
		// Opaque: schema unknown downstream.
		return nested.Type{}, false, nil
	case OpJoin:
		lt, lok := in(0)
		rt, rok := in(1)
		if !lok || !rok {
			return nested.Type{}, false, nil
		}
		if err := checkExprPaths(o.leftKey, lt); err != nil {
			return nested.Type{}, false, fmt.Errorf("left key: %w", err)
		}
		if err := checkExprPaths(o.rightKey, rt); err != nil {
			return nested.Type{}, false, fmt.Errorf("right key: %w", err)
		}
		fields := append([]nested.FieldType(nil), lt.Fields...)
		for _, f := range rt.Fields {
			for _, lf := range lt.Fields {
				if lf.Name == f.Name {
					return nested.Type{}, false, fmt.Errorf("attribute %q exists on both sides", f.Name)
				}
			}
			fields = append(fields, f)
		}
		return nested.Type{Kind: nested.KindItem, Fields: fields}, true, nil
	case OpUnion:
		lt, lok := in(0)
		rt, rok := in(1)
		if !lok || !rok {
			return nested.Type{}, false, nil
		}
		if !nested.Compatible(lt, rt) {
			return nested.Type{}, false, fmt.Errorf("incompatible input types %s and %s", lt, rt)
		}
		return lt, true, nil
	case OpFlatten:
		t, ok := in(0)
		if !ok {
			return nested.Type{}, false, nil
		}
		colT, err := typeAt(t, o.flattenCol)
		if err != nil {
			return nested.Type{}, false, err
		}
		if !colT.Kind.IsCollection() {
			return nested.Type{}, false, fmt.Errorf("%s is %s, want bag or set", o.flattenCol, colT.Kind)
		}
		var elemT nested.Type
		if colT.Elem != nil {
			elemT = *colT.Elem
		} else {
			elemT = nested.Type{Kind: nested.KindNull}
		}
		for _, f := range t.Fields {
			if f.Name == o.flattenNew {
				return nested.Type{}, false, fmt.Errorf("flatten output attribute %q already exists", o.flattenNew)
			}
		}
		fields := append(append([]nested.FieldType(nil), t.Fields...),
			nested.FieldType{Name: o.flattenNew, Type: elemT})
		return nested.Type{Kind: nested.KindItem, Fields: fields}, true, nil
	case OpAggregate:
		t, ok := in(0)
		if !ok {
			return nested.Type{}, false, nil
		}
		var fields []nested.FieldType
		seen := map[string]bool{}
		addField := func(name string, ft nested.Type) error {
			if seen[name] {
				return fmt.Errorf("duplicate output attribute %q", name)
			}
			seen[name] = true
			fields = append(fields, nested.FieldType{Name: name, Type: ft})
			return nil
		}
		for _, g := range o.groupBy {
			gt, err := typeAt(t, g.Path)
			if err != nil {
				return nested.Type{}, false, fmt.Errorf("group key %s: %w", g.Path, err)
			}
			if err := addField(g.Name, gt); err != nil {
				return nested.Type{}, false, err
			}
		}
		for _, a := range o.aggs {
			at, err := aggType(a, t)
			if err != nil {
				return nested.Type{}, false, err
			}
			if err := addField(a.Out, at); err != nil {
				return nested.Type{}, false, err
			}
		}
		return nested.Type{Kind: nested.KindItem, Fields: fields}, true, nil
	case OpDistinct, OpLimit:
		t, ok := in(0)
		return t, ok, nil
	case OpOrderBy:
		t, ok := in(0)
		if !ok {
			return nested.Type{}, false, nil
		}
		for _, k := range o.sortKeys {
			if err := checkExprPaths(k, t); err != nil {
				return nested.Type{}, false, fmt.Errorf("sort key: %w", err)
			}
		}
		return t, true, nil
	}
	return nested.Type{}, false, fmt.Errorf("unknown operator type %q", o.typ)
}

// typeAt resolves an access path against an item type, descending through
// collection element types for positional or un-indexed collection steps.
func typeAt(t nested.Type, p path.Path) (nested.Type, error) {
	cur := t
	for _, s := range p {
		if cur.Kind == nested.KindNull {
			// Unknown (merged-conflict) type: anything below it is accepted
			// and stays unknown.
			return nested.Type{Kind: nested.KindNull}, nil
		}
		if s.Attr != "" {
			if cur.Kind != nested.KindItem {
				return nested.Type{}, fmt.Errorf("path %s: %s is not an item", p, cur)
			}
			next, ok := cur.Get(s.Attr)
			if !ok {
				return nested.Type{}, fmt.Errorf("unknown column %q (path %s) in %s", s.Attr, p, cur)
			}
			cur = next
		}
		if s.Index != path.NoIndex {
			if !cur.Kind.IsCollection() {
				return nested.Type{}, fmt.Errorf("path %s: positional access into %s", p, cur.Kind)
			}
			if cur.Elem == nil {
				return nested.Type{Kind: nested.KindNull}, nil
			}
			cur = *cur.Elem
		}
	}
	return cur, nil
}

// checkExprPaths verifies every column an expression reads exists in the
// schema.
func checkExprPaths(e Expr, t nested.Type) error {
	for _, p := range e.Paths() {
		if _, err := typeAt(t, p); err != nil {
			return err
		}
	}
	return nil
}

func selectType(fields []SelectField, in nested.Type) (nested.Type, error) {
	var out []nested.FieldType
	seen := map[string]bool{}
	for _, f := range fields {
		if seen[f.Name] {
			return nested.Type{}, fmt.Errorf("duplicate output attribute %q", f.Name)
		}
		seen[f.Name] = true
		switch {
		case len(f.Col) > 0:
			ft, err := typeAt(in, f.Col)
			if err != nil {
				return nested.Type{}, err
			}
			out = append(out, nested.FieldType{Name: f.Name, Type: ft})
		case len(f.Struct) > 0:
			st, err := selectType(f.Struct, in)
			if err != nil {
				return nested.Type{}, err
			}
			out = append(out, nested.FieldType{Name: f.Name, Type: st})
		case f.Expr != nil:
			if err := checkExprPaths(f.Expr, in); err != nil {
				return nested.Type{}, err
			}
			// The expression's result type is unknown statically; record it
			// as null (compatible with anything).
			out = append(out, nested.FieldType{Name: f.Name, Type: nested.Type{Kind: nested.KindNull}})
		default:
			return nested.Type{}, fmt.Errorf("select field %q has no column, struct, or expression", f.Name)
		}
	}
	return nested.Type{Kind: nested.KindItem, Fields: out}, nil
}

// aggType derives the output type of one aggregation.
func aggType(a AggSpec, in nested.Type) (nested.Type, error) {
	var inT nested.Type
	if len(a.In) > 0 {
		t, err := typeAt(in, a.In)
		if err != nil {
			return nested.Type{}, fmt.Errorf("aggregate input %s: %w", a.In, err)
		}
		inT = t
	}
	switch a.Func {
	case AggCount:
		return nested.Type{Kind: nested.KindInt}, nil
	case AggSum, AggMax, AggMin:
		if len(a.In) == 0 {
			return nested.Type{}, fmt.Errorf("aggregate %s needs an input path", a.Func)
		}
		switch inT.Kind {
		case nested.KindInt, nested.KindDouble, nested.KindNull:
			return inT, nil
		case nested.KindString, nested.KindBool:
			if a.Func == AggSum {
				return nested.Type{}, fmt.Errorf("sum over %s", inT.Kind)
			}
			return inT, nil // max/min are defined on the total order
		default:
			return nested.Type{}, fmt.Errorf("aggregate %s over %s", a.Func, inT.Kind)
		}
	case AggAvg:
		if inT.Kind != nested.KindInt && inT.Kind != nested.KindDouble && inT.Kind != nested.KindNull {
			return nested.Type{}, fmt.Errorf("avg over %s", inT.Kind)
		}
		return nested.Type{Kind: nested.KindDouble}, nil
	case AggCollectList:
		return nested.Type{Kind: nested.KindBag, Elem: &inT}, nil
	case AggCollectSet:
		return nested.Type{Kind: nested.KindSet, Elem: &inT}, nil
	}
	return nested.Type{}, fmt.Errorf("unknown aggregate function %q", a.Func)
}
