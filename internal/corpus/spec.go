package corpus

import (
	"fmt"
	"sort"

	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/treepattern"
)

// Step operator kinds. They mirror engine.OpType but stay plain strings so a
// Spec is trivially serializable and diffable.
const (
	StepSource    = "source"
	StepFilter    = "filter"
	StepSelect    = "select"
	StepFlatten   = "flatten"
	StepAggregate = "aggregate"
	StepUnion     = "union"
	StepJoin      = "join"
	StepDistinct  = "distinct"
	StepOrderBy   = "orderby"
	StepLimit     = "limit"
)

// The dataset names generated specs read from.
const (
	DatasetIn  = "in"
	DatasetAux = "aux"
)

// Pred is a serializable filter predicate: Col <op> literal, with op one of
// "eq", "ne", "le", "gt". True short-circuits to a constant-true predicate.
type Pred struct {
	Col   string `json:"col,omitempty"`
	Op    string `json:"op,omitempty"`
	Int   int64  `json:"int,omitempty"`
	Str   string `json:"str,omitempty"`
	IsStr bool   `json:"isStr,omitempty"`
	True  bool   `json:"true,omitempty"`
}

// Expr builds the engine expression for the predicate.
func (p *Pred) Expr() engine.Expr {
	if p == nil || p.True {
		return engine.LitBool(true)
	}
	var lit engine.Expr
	if p.IsStr {
		lit = engine.LitString(p.Str)
	} else {
		lit = engine.LitInt(p.Int)
	}
	col := engine.Col(p.Col)
	switch p.Op {
	case "eq":
		return engine.Eq(col, lit)
	case "ne":
		return engine.Ne(col, lit)
	case "le":
		return engine.Le(col, lit)
	case "gt":
		return engine.Gt(col, lit)
	}
	return engine.LitBool(true)
}

// FieldSpec is one select projection: output name plus the access path.
type FieldSpec struct {
	Name string `json:"name"`
	Col  string `json:"col"`
}

// AggStep is one aggregate computation inside an aggregate step: function
// name (an engine.AggFunc string), input attribute, and output attribute.
type AggStep struct {
	Fn  string `json:"fn"`
	In  string `json:"in"`
	Out string `json:"out"`
}

// Step is one declarative pipeline operator. In and In2 index into
// Spec.Steps (-1 when absent). Parameter fields are populated by Op kind.
type Step struct {
	Op  string `json:"op"`
	In  int    `json:"in"`
	In2 int    `json:"in2"`

	Dataset      string      `json:"dataset,omitempty"`
	Pred         *Pred       `json:"pred,omitempty"`
	Fields       []FieldSpec `json:"fields,omitempty"`
	FlattenCol   string      `json:"flattenCol,omitempty"`
	FlattenAs    string      `json:"flattenAs,omitempty"`
	GroupBys     []string    `json:"groupBys,omitempty"`
	Aggs         []AggStep   `json:"aggs,omitempty"`
	JoinLeftKey  string      `json:"joinLeftKey,omitempty"`
	JoinRightKey string      `json:"joinRightKey,omitempty"`
	SortKey      string      `json:"sortKey,omitempty"`
	SortDesc     bool        `json:"sortDesc,omitempty"`
	Limit        int         `json:"limit,omitempty"`
}

// Spec is one generated test case: datasets, pipeline, and the tree-pattern
// provenance question, in treepattern's JSON form (the form a trace job's
// pattern takes). A nil Pattern means "trace the whole result". Rows and Aux
// encode as JSON values and decode through nested.ParseJSON.
type Spec struct {
	Seed    int64                `json:"seed"`
	Rows    []nested.Value       `json:"rows"`
	Aux     []nested.Value       `json:"aux,omitempty"`
	Steps   []Step               `json:"steps"`
	Sink    int                  `json:"sink"`
	Pattern *treepattern.Pattern `json:"pattern,omitempty"`
	// ShuffleJoin pins every join in the spec to the repartition (shuffle)
	// path by disabling the broadcast threshold. Corpus datasets are small
	// enough that the default threshold would otherwise route every join
	// through the broadcast kernels; carrying the shape on the spec means
	// both kernels get differential coverage and a shrunk reproducer replays
	// with the join shape that exposed the disagreement. pebbled refuses a
	// spec that sets it: its joins follow the session's options.
	ShuffleJoin bool `json:"shuffleJoin,omitempty"`
}

// ExecOptions returns base with the spec's execution-shape knobs applied;
// every harness that executes a spec (oracle, fuzz, soak) must build
// its engine options through this so serialized specs replay faithfully.
func (s *Spec) ExecOptions(base engine.Options) engine.Options {
	if s.ShuffleJoin {
		base.BroadcastJoinThreshold = -1
	}
	return base
}

// push appends a step and returns its index.
func (s *Spec) push(st Step) int {
	s.Steps = append(s.Steps, st)
	return len(s.Steps) - 1
}

// Build constructs the engine pipeline described by the spec. It validates
// structural well-formedness; a panic from a malformed parameter (e.g. an
// unparsable access path in a hand-edited spec) is converted into an error.
func (s *Spec) Build() (p *engine.Pipeline, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("corpus: build panic: %v", r)
		}
	}()
	p = engine.NewPipeline()
	ops := make([]*engine.Op, len(s.Steps))
	in := func(idx int) (*engine.Op, error) {
		if idx < 0 || idx >= len(ops) || ops[idx] == nil {
			return nil, fmt.Errorf("corpus: step references invalid input %d", idx)
		}
		return ops[idx], nil
	}
	for i, st := range s.Steps {
		var a, b *engine.Op
		if st.Op != StepSource {
			if a, err = in(st.In); err != nil {
				return nil, err
			}
		}
		switch st.Op {
		case StepSource:
			ops[i] = p.Source(st.Dataset)
		case StepFilter:
			ops[i] = p.Filter(a, st.Pred.Expr())
		case StepSelect:
			fields := make([]engine.SelectField, 0, len(st.Fields))
			for _, f := range st.Fields {
				fields = append(fields, engine.Column(f.Name, f.Col))
			}
			ops[i] = p.Select(a, fields...)
		case StepFlatten:
			ops[i] = p.Flatten(a, st.FlattenCol, st.FlattenAs)
		case StepAggregate:
			if len(st.GroupBys) == 0 || len(st.Aggs) == 0 {
				return nil, fmt.Errorf("corpus: step %d: aggregate needs groupBys and aggs", i)
			}
			var keys []engine.GroupKey
			for _, k := range st.GroupBys {
				keys = append(keys, engine.Key(k))
			}
			var aggs []engine.AggSpec
			for _, ag := range st.Aggs {
				aggs = append(aggs, engine.Agg(engine.AggFunc(ag.Fn), ag.In, ag.Out))
			}
			ops[i] = p.Aggregate(a, keys, aggs)
		case StepUnion:
			if b, err = in(st.In2); err != nil {
				return nil, err
			}
			ops[i] = p.Union(a, b)
		case StepJoin:
			if b, err = in(st.In2); err != nil {
				return nil, err
			}
			ops[i] = p.Join(a, b, engine.Col(st.JoinLeftKey), engine.Col(st.JoinRightKey))
		case StepDistinct:
			ops[i] = p.Distinct(a)
		case StepOrderBy:
			ops[i] = p.OrderBy(a, st.SortDesc, engine.Col(st.SortKey))
		case StepLimit:
			ops[i] = p.Limit(a, st.Limit)
		default:
			return nil, fmt.Errorf("corpus: unknown step op %q", st.Op)
		}
	}
	if s.Sink < 0 || s.Sink >= len(ops) {
		return nil, fmt.Errorf("corpus: sink index %d out of range", s.Sink)
	}
	p.SetSink(ops[s.Sink])
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Inputs builds the raw input datasets with a fresh identifier generator, so
// independent executions see identical row identifiers.
func (s *Spec) Inputs(partitions int) map[string]*engine.Dataset {
	gen := engine.NewIDGen(1)
	inputs := map[string]*engine.Dataset{
		DatasetIn: engine.NewDataset(DatasetIn, s.Rows, partitions, gen),
	}
	for _, st := range s.Steps {
		if st.Op == StepSource && st.Dataset == DatasetAux {
			inputs[DatasetAux] = engine.NewDataset(DatasetAux, s.Aux, partitions, gen)
			break
		}
	}
	return inputs
}

// NumOps returns the number of pipeline operators (steps).
func (s *Spec) NumOps() int { return len(s.Steps) }

// AggOutputsReachSink reports whether every aggregate step's output
// attribute provably survives — possibly renamed by selects or consumed by
// a later aggregate — into the sink's row values. When it does, a
// full-result structural backtrace addresses the aggregated value, so every
// group member is marked contributing and the structural row set equals
// Titian-style lineage. When an aggregate output is dropped (e.g. by a
// downstream projection), queries can address only the grouping key and
// Alg. 4 deliberately marks no group member relevant (Ex. 6.6): structural
// provenance is then strictly finer than lineage, and callers comparing the
// two must settle for the subset relation. The propagation is conservative:
// any doubt returns false.
func (s *Spec) AggOutputsReachSink() bool {
	// alias[i] is the set of output attribute names of step i that stand in
	// for some aggregate's output. Steps only reference earlier indices, so
	// one forward pass suffices.
	alias := make([]map[string]bool, len(s.Steps))
	ok := true
	for i, st := range s.Steps {
		switch st.Op {
		case StepSource:
			alias[i] = nil
		case StepSelect:
			in := alias[st.In]
			out := map[string]bool{}
			kept := map[string]bool{}
			for _, f := range st.Fields {
				if in[f.Col] {
					out[f.Name] = true
					kept[f.Col] = true
				}
			}
			// kept ⊆ in by construction, so a dropped alias shows as a
			// smaller kept set.
			if len(kept) != len(in) {
				ok = false
			}
			alias[i] = out
		case StepAggregate:
			// The aggregate keeps only its group keys and its own outputs:
			// an upstream aggregate alias survives only by being consumed as
			// some aggregate's input.
			ins, out := map[string]bool{}, map[string]bool{}
			for _, ag := range st.Aggs {
				ins[ag.In], out[ag.Out] = true, true
			}
			// The body only ANDs into ok, so the map's order cannot show.
			for name := range alias[st.In] {
				if !ins[name] {
					ok = false
				}
			}
			alias[i] = out
		case StepFlatten:
			if alias[st.In][st.FlattenCol] {
				ok = false
			}
			alias[i] = alias[st.In]
		case StepUnion, StepJoin:
			out := map[string]bool{}
			for name := range alias[st.In] {
				out[name] = true
			}
			for name := range alias[st.In2] {
				out[name] = true
			}
			alias[i] = out
		default: // filter, distinct, orderby, limit: schema unchanged
			alias[i] = alias[st.In]
		}
	}
	return ok
}

// LimitCutsFanOut reports whether some limit step has a join, union or
// flatten among its inputs' ancestors: an operator that can derive several
// rows from one input row. Such a limit may keep one of those rows and cut
// its siblings, and a re-run on only the inputs a result row traced to
// brings the siblings back, where a later aggregate counts them. A limit is
// positional (which rows it keeps depends on rows that contribute nothing to
// the queried item), so row-level sufficiency (Def. 6.3) is not promised
// past such a limit.
func (s *Spec) LimitCutsFanOut() bool {
	fanOut := make([]bool, len(s.Steps))
	for i, st := range s.Steps {
		switch st.Op {
		case StepSource:
		case StepJoin, StepUnion, StepFlatten:
			fanOut[i] = true
		case StepLimit:
			if fanOut[st.In] {
				return true
			}
		default:
			fanOut[i] = fanOut[st.In]
		}
	}
	return false
}

// Clone returns a deep copy of the spec. Values and the pattern are
// read-only and shared.
func (s *Spec) Clone() *Spec {
	out := &Spec{Seed: s.Seed, Sink: s.Sink, Pattern: s.Pattern, ShuffleJoin: s.ShuffleJoin}
	out.Rows = append([]nested.Value(nil), s.Rows...)
	out.Aux = append([]nested.Value(nil), s.Aux...)
	out.Steps = make([]Step, len(s.Steps))
	for i, st := range s.Steps {
		cp := st
		if st.Pred != nil {
			p := *st.Pred
			cp.Pred = &p
		}
		cp.Fields = append([]FieldSpec(nil), st.Fields...)
		cp.GroupBys = append([]string(nil), st.GroupBys...)
		cp.Aggs = append([]AggStep(nil), st.Aggs...)
		out.Steps[i] = cp
	}
	return out
}

// DropStep returns a copy of the spec with non-source step i removed:
// consumers of i are rewired to i's primary input, the sink follows the same
// rule, and steps no longer reachable from the sink (for example an orphaned
// join side) are pruned. Returns ok == false when i cannot be dropped.
func (s *Spec) DropStep(i int) (*Spec, bool) {
	if i < 0 || i >= len(s.Steps) || s.Steps[i].Op == StepSource {
		return nil, false
	}
	c := s.Clone()
	redirect := c.Steps[i].In
	for j := range c.Steps {
		if c.Steps[j].In == i {
			c.Steps[j].In = redirect
		}
		if c.Steps[j].In2 == i {
			c.Steps[j].In2 = redirect
		}
	}
	if c.Sink == i {
		c.Sink = redirect
	}
	// Keep only steps reachable from the sink, preserving order.
	reach := make([]bool, len(c.Steps))
	var mark func(int)
	mark = func(idx int) {
		if idx < 0 || idx >= len(c.Steps) || reach[idx] {
			return
		}
		reach[idx] = true
		mark(c.Steps[idx].In)
		mark(c.Steps[idx].In2)
	}
	mark(c.Sink)
	reach[i] = false
	remap := make([]int, len(c.Steps))
	var kept []Step
	for j, st := range c.Steps {
		if !reach[j] {
			remap[j] = -1
			continue
		}
		remap[j] = len(kept)
		kept = append(kept, st)
	}
	for j := range kept {
		if kept[j].In >= 0 {
			kept[j].In = remap[kept[j].In]
		}
		if kept[j].In2 >= 0 {
			kept[j].In2 = remap[kept[j].In2]
		}
	}
	c.Steps = kept
	c.Sink = remap[c.Sink]
	if c.Sink < 0 || len(c.Steps) == 0 {
		return nil, false
	}
	// Drop the aux rows when the aux source is gone.
	hasAux := false
	for _, st := range c.Steps {
		if st.Op == StepSource && st.Dataset == DatasetAux {
			hasAux = true
		}
	}
	if !hasAux {
		c.Aux = nil
	}
	return c, true
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
