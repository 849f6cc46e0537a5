package engine

import (
	"fmt"
	"strings"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// OpType enumerates the supported operators (Sec. 5: filter, select, map,
// join, union, flatten, grouping and aggregation; grouping+aggregation form
// one pipeline node as in Fig. 1's operator 9).
type OpType string

// The operator types.
const (
	OpSource    OpType = "source"
	OpFilter    OpType = "filter"
	OpSelect    OpType = "select"
	OpMap       OpType = "map"
	OpJoin      OpType = "join"
	OpUnion     OpType = "union"
	OpFlatten   OpType = "flatten"
	OpAggregate OpType = "aggregate"

	// Extension operators beyond the paper's Sec. 5 set. They follow the
	// same capture model: distinct records one association per duplicate
	// (all witnesses contribute), orderBy and limit are identity
	// transformations whose sort keys are accessed paths.
	OpDistinct OpType = "distinct"
	OpOrderBy  OpType = "orderby"
	OpLimit    OpType = "limit"
)

// SelectField is one projection of a select operator: either a column (an
// access path, possibly nested such as user.id_str), a struct constructed
// from further fields (the <id_str,name> → user form of Fig. 1's operator 8),
// or a computed expression. Exactly one of Col, Struct, Expr is set.
type SelectField struct {
	Name   string
	Col    path.Path
	Struct []SelectField
	Expr   Expr
}

// Column returns a projection of an access path under the given output name.
func Column(name, col string) SelectField {
	return SelectField{Name: name, Col: path.MustParse(col)}
}

// StructField returns a projection constructing a nested item from fields.
func StructField(name string, fields ...SelectField) SelectField {
	return SelectField{Name: name, Struct: fields}
}

// Computed returns a projection evaluating an expression. Its provenance
// records the expression's paths as accessed but no manipulation mapping
// (the internals of the computation are opaque).
func Computed(name string, e Expr) SelectField {
	return SelectField{Name: name, Expr: e}
}

// AggFunc enumerates aggregation functions. Count, Sum, Max, Min, Avg return
// constants (the paper's A_c); CollectList and CollectSet return nested
// collections (A_B).
type AggFunc string

// The aggregation functions.
const (
	AggCount       AggFunc = "count"
	AggSum         AggFunc = "sum"
	AggMax         AggFunc = "max"
	AggMin         AggFunc = "min"
	AggAvg         AggFunc = "avg"
	AggCollectList AggFunc = "collect_list"
	AggCollectSet  AggFunc = "collect_set"
)

// AggSpec is one aggregation: Func applied to the values at In, stored in
// the output attribute Out. In may be empty for AggCount (count of items).
type AggSpec struct {
	Func AggFunc
	In   path.Path
	Out  string
}

// GroupKey is one grouping attribute: the value at Path becomes output
// attribute Name.
type GroupKey struct {
	Name string
	Path path.Path
}

// MapFunc is an opaque user-defined transformation for the map operator. The
// function must return a data item (τ(λ(i)) ⇒ ⟨...⟩). Name identifies the
// function in plans.
type MapFunc struct {
	Name string
	Fn   func(nested.Value) (nested.Value, error)
}

// Op is one node of the operator DAG. Construct operators through the
// Pipeline builder methods, which assign identifiers and wire edges.
type Op struct {
	id     int
	typ    OpType
	inputs []*Op

	// Parameters, by type.
	sourceName string // source
	pred       Expr   // filter
	fields     []SelectField
	mapFn      MapFunc
	leftKey    Expr // join
	rightKey   Expr
	leftOuter  bool
	flattenCol path.Path // flatten
	flattenNew string
	groupBy    []GroupKey // aggregate
	aggs       []AggSpec
	sortKeys   []Expr // orderBy
	sortDesc   bool
	limit      int // limit
}

// ID returns the operator's unique identifier within its pipeline.
func (o *Op) ID() int { return o.id }

// Type returns the operator type.
func (o *Op) Type() OpType { return o.typ }

// Inputs returns the operator's input operators.
func (o *Op) Inputs() []*Op { return o.inputs }

// String renders the operator like the labels in Fig. 1.
func (o *Op) String() string {
	switch o.typ {
	case OpSource:
		return fmt.Sprintf("%d:source(%s)", o.id, o.sourceName)
	case OpFilter:
		return fmt.Sprintf("%d:filter[%s]", o.id, o.pred)
	case OpSelect:
		names := make([]string, len(o.fields))
		for i, f := range o.fields {
			names[i] = f.Name
		}
		return fmt.Sprintf("%d:select(%s)", o.id, strings.Join(names, ", "))
	case OpMap:
		return fmt.Sprintf("%d:map[%s]", o.id, o.mapFn.Name)
	case OpJoin:
		kind := "join"
		if o.leftOuter {
			kind = "leftjoin"
		}
		return fmt.Sprintf("%d:%s[%s == %s]", o.id, kind, o.leftKey, o.rightKey)
	case OpUnion:
		return fmt.Sprintf("%d:union", o.id)
	case OpFlatten:
		return fmt.Sprintf("%d:flatten(%s -> %s)", o.id, o.flattenCol, o.flattenNew)
	case OpDistinct:
		return fmt.Sprintf("%d:distinct", o.id)
	case OpOrderBy:
		dir := "asc"
		if o.sortDesc {
			dir = "desc"
		}
		keys := make([]string, len(o.sortKeys))
		for i, k := range o.sortKeys {
			keys[i] = k.String()
		}
		return fmt.Sprintf("%d:orderBy(%s %s)", o.id, strings.Join(keys, ","), dir)
	case OpLimit:
		return fmt.Sprintf("%d:limit(%d)", o.id, o.limit)
	case OpAggregate:
		keys := make([]string, len(o.groupBy))
		for i, g := range o.groupBy {
			keys[i] = g.Name
		}
		aggs := make([]string, len(o.aggs))
		for i, a := range o.aggs {
			aggs[i] = fmt.Sprintf("%s(%s)->%s", a.Func, a.In, a.Out)
		}
		return fmt.Sprintf("%d:aggregate[groupBy(%s), %s]", o.id, strings.Join(keys, ","), strings.Join(aggs, ","))
	}
	return fmt.Sprintf("%d:%s", o.id, o.typ)
}

// Pipeline is a DAG of operators with a single sink (Def. 4.6). Operators
// are created through the builder methods; the last operator added is the
// sink unless SetSink overrides it.
type Pipeline struct {
	ops  []*Op
	sink *Op
}

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline { return &Pipeline{} }

// Ops returns all operators in creation order.
func (p *Pipeline) Ops() []*Op { return p.ops }

// Op returns the operator with the given identifier.
func (p *Pipeline) Op(id int) (*Op, bool) {
	for _, o := range p.ops {
		if o.id == id {
			return o, true
		}
	}
	return nil, false
}

// Sink returns the pipeline's sink operator.
func (p *Pipeline) Sink() *Op { return p.sink }

// SetSink overrides the sink operator (by default the last added operator).
func (p *Pipeline) SetSink(o *Op) { p.sink = o }

func (p *Pipeline) add(o *Op) *Op {
	o.id = len(p.ops) + 1
	p.ops = append(p.ops, o)
	p.sink = o
	return o
}

// Source adds a source operator reading the named input dataset.
func (p *Pipeline) Source(name string) *Op {
	return p.add(&Op{typ: OpSource, sourceName: name})
}

// Filter adds a filter keeping items for which pred evaluates to true.
func (p *Pipeline) Filter(in *Op, pred Expr) *Op {
	return p.add(&Op{typ: OpFilter, inputs: []*Op{in}, pred: pred})
}

// Select adds a projection to the given fields.
func (p *Pipeline) Select(in *Op, fields ...SelectField) *Op {
	return p.add(&Op{typ: OpSelect, inputs: []*Op{in}, fields: fields})
}

// Map adds a map operator applying the opaque function fn to each item.
func (p *Pipeline) Map(in *Op, fn MapFunc) *Op {
	return p.add(&Op{typ: OpMap, inputs: []*Op{in}, mapFn: fn})
}

// Join adds an equi-join associating items of left and right whose key
// expressions are equal; the result item concatenates the attributes of both
// sides (r = ⟨i, j⟩).
func (p *Pipeline) Join(left, right *Op, leftKey, rightKey Expr) *Op {
	return p.add(&Op{typ: OpJoin, inputs: []*Op{left, right}, leftKey: leftKey, rightKey: rightKey})
}

// LeftJoin adds a left outer equi-join: every left item appears in the
// result; unmatched left items carry null values for the right side's
// attributes and their provenance records the absent side as -1 (like
// union's absent side). Extension beyond the paper's operator set.
func (p *Pipeline) LeftJoin(left, right *Op, leftKey, rightKey Expr) *Op {
	return p.add(&Op{typ: OpJoin, inputs: []*Op{left, right}, leftKey: leftKey, rightKey: rightKey, leftOuter: true})
}

// Union adds a bag union of two inputs with compatible types.
func (p *Pipeline) Union(left, right *Op) *Op {
	return p.add(&Op{typ: OpUnion, inputs: []*Op{left, right}})
}

// Flatten adds a flatten (explode) of the collection at col: each result
// item extends the input item with attribute newAttr holding one element of
// the collection. Items whose collection is empty produce no output.
func (p *Pipeline) Flatten(in *Op, col, newAttr string) *Op {
	return p.add(&Op{typ: OpFlatten, inputs: []*Op{in}, flattenCol: path.MustParse(col), flattenNew: newAttr})
}

// Distinct adds a duplicate-elimination operator: equal items collapse to
// one result item whose provenance lists every duplicate as contributing
// (all witnesses, why-provenance style). Extension beyond the paper's
// operator set.
func (p *Pipeline) Distinct(in *Op) *Op {
	return p.add(&Op{typ: OpDistinct, inputs: []*Op{in}})
}

// OrderBy adds a total sort of the dataset by the given key expressions.
// Extension beyond the paper's operator set.
func (p *Pipeline) OrderBy(in *Op, desc bool, keys ...Expr) *Op {
	return p.add(&Op{typ: OpOrderBy, inputs: []*Op{in}, sortKeys: keys, sortDesc: desc})
}

// Limit adds an operator keeping the first n items (in partition-major
// order; combine with OrderBy for a deterministic top-n). Extension beyond
// the paper's operator set.
func (p *Pipeline) Limit(in *Op, n int) *Op {
	return p.add(&Op{typ: OpLimit, inputs: []*Op{in}, limit: n})
}

// Aggregate adds a grouping followed by aggregations: items are grouped by
// the key paths and each group is reduced to one item carrying the group
// keys and the aggregate results. This is the combined grouping+aggregation
// node of Fig. 1 (operator 9).
func (p *Pipeline) Aggregate(in *Op, keys []GroupKey, aggs []AggSpec) *Op {
	return p.add(&Op{typ: OpAggregate, inputs: []*Op{in}, groupBy: keys, aggs: aggs})
}

// Key returns a GroupKey grouping by the given access path under the output
// name of the path's last attribute.
func Key(col string) GroupKey {
	pp := path.MustParse(col)
	return GroupKey{Name: pp[len(pp)-1].Attr, Path: pp}
}

// KeyAs returns a GroupKey with an explicit output name.
func KeyAs(name, col string) GroupKey {
	return GroupKey{Name: name, Path: path.MustParse(col)}
}

// Agg returns an AggSpec for fn over the values at col, output as out.
func Agg(fn AggFunc, col, out string) AggSpec {
	var pp path.Path
	if col != "" {
		pp = path.MustParse(col)
	}
	return AggSpec{Func: fn, In: pp, Out: out}
}

// Validate checks structural well-formedness: every non-source operator has
// the right number of inputs, all inputs belong to the pipeline, the DAG has
// exactly one sink, and no operator precedes its inputs.
func (p *Pipeline) Validate() error {
	if len(p.ops) == 0 {
		return fmt.Errorf("engine: empty pipeline")
	}
	index := make(map[*Op]int, len(p.ops))
	for i, o := range p.ops {
		index[o] = i
	}
	consumed := make(map[*Op]int)
	for i, o := range p.ops {
		wantInputs := 1
		switch o.typ {
		case OpSource:
			wantInputs = 0
		case OpJoin, OpUnion:
			wantInputs = 2
		}
		if len(o.inputs) != wantInputs {
			return fmt.Errorf("engine: operator %s has %d inputs, want %d", o, len(o.inputs), wantInputs)
		}
		for _, in := range o.inputs {
			j, ok := index[in]
			if !ok {
				return fmt.Errorf("engine: operator %s has input from another pipeline", o)
			}
			if j >= i {
				return fmt.Errorf("engine: operator %s consumes later operator %s", o, in)
			}
			consumed[in]++
		}
	}
	if p.sink == nil {
		return fmt.Errorf("engine: pipeline has no sink")
	}
	if consumed[p.sink] != 0 {
		return fmt.Errorf("engine: sink %s is consumed by another operator", p.sink)
	}
	return nil
}

// String renders the pipeline plan, one operator per line.
func (p *Pipeline) String() string {
	lines := make([]string, 0, len(p.ops))
	for _, o := range p.ops {
		ins := make([]string, len(o.inputs))
		for i, in := range o.inputs {
			ins[i] = fmt.Sprintf("%d", in.id)
		}
		line := o.String()
		if len(ins) > 0 {
			line += " <- [" + strings.Join(ins, ",") + "]"
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}

// shuffleKey declaratively describes the key of a shuffle. Exactly one of
// the three shapes is set: an expression key (join sides), a
// grouping-attribute key (aggregate), or the identity key (distinct, which
// shuffles whole rows).
type shuffleKey struct {
	expr     Expr
	groupBy  []GroupKey
	shape    *nested.Shape // of the groupBy key items
	identity bool
}

// exprShuffleKey wraps a join-side key expression.
func exprShuffleKey(e Expr) shuffleKey { return shuffleKey{expr: e} }

// groupShuffleKey wraps an aggregate's grouping attributes; the key value is
// the item ⟨Name: value-at-Path, ...⟩ with absent paths as null.
func groupShuffleKey(gs []GroupKey) shuffleKey {
	return shuffleKey{groupBy: gs, shape: groupShape(gs, nil)}
}

// groupShape returns the shape of the items that hold the grouping
// attributes, then one attribute per aggregation: an aggregate's shuffle keys
// (no aggregations) and its output rows.
func groupShape(gs []GroupKey, aggs []AggSpec) *nested.Shape {
	names := make([]string, 0, len(gs)+len(aggs))
	for _, g := range gs {
		names = append(names, g.Name)
	}
	for _, spec := range aggs {
		names = append(names, spec.Out)
	}
	return nested.NewShape(names...)
}

// identityShuffleKey keys every row by its own value (distinct).
func identityShuffleKey() shuffleKey { return shuffleKey{identity: true} }

// evalMorsel evaluates the key for every row of a morsel — the one key
// function behind the shuffle map phase and both sides of the broadcast
// join. Pure column keys (a column join key, a groupBy list) are gathered off
// the rows; group keys share one shape and one flat value array per morsel
// instead of one allocation per row. Computed keys evaluate row by row and
// return the first error in row order.
func (k shuffleKey) evalMorsel(rows []Row) ([]nested.Value, error) {
	keys := make([]nested.Value, len(rows))
	switch x := k.expr.(type) {
	case nil:
		if k.identity {
			for i, r := range rows {
				keys[i] = r.Value
			}
			return keys, nil
		}
		// Each row gets a distinct full-capacity subslice because Shape.Item
		// retains it.
		width := len(k.groupBy)
		flat := make([]nested.Value, len(rows)*width)
		for gi, g := range k.groupBy {
			gather(g.Path, rows, flat, gi, width)
		}
		for i := range rows {
			keys[i] = k.shape.Item(flat[i*width : (i+1)*width : (i+1)*width]...)
		}
	case colExpr:
		gather(x.p, rows, keys, 0, 1)
	default:
		for i, r := range rows {
			v, err := x.Eval(r.Value)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
	}
	return keys, nil
}

// evalOps is the static per-row expression cost of the key (see EvalOps).
func (k shuffleKey) evalOps() int {
	switch {
	case k.identity:
		return 0
	case k.expr != nil:
		return EvalOps(k.expr)
	}
	return len(k.groupBy)
}
