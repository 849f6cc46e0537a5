// Package corpus generates seeded random test cases — nested datasets plus
// well-formed operator pipelines plus tree-pattern provenance questions — in
// a declarative form that can be rebuilt, serialized, and mutated (shrunk to
// minimal reproducers).
//
// The differential oracle (internal/oracle), its native fuzz targets, and
// the cmd/oracle soak runner all draw from this one corpus: every generated
// pipeline is schema-tracked during construction, so all operators — filter,
// select, flatten, join, union, grouping/aggregation, distinct, orderBy,
// limit — can be combined freely without producing ill-typed plans, and
// every generated tree pattern (including the extended contains/range/count
// constraints) refers to attributes that actually exist in the sink schema.
package corpus

import (
	"fmt"
	"math/rand"

	"pebble/internal/nested"
	"pebble/internal/treepattern"
)

// Attribute type tags used while tracking the schema during generation.
const (
	typInt      = "int"
	typStr      = "str"
	typStrBag   = "strbag"
	typSubBag   = "subbag"
	typSubItem  = "subitem"
	typOther    = "other"
	typConsumed = "consumedbag"
)

var (
	cats  = []string{"a", "b", "c", "d"}
	words = []string{"x", "y", "z", "w"}
)

// The shapes of the generated rows.
var (
	rowShape = nested.NewShape("id", "cat", "val", "tags", "subs")
	subShape = nested.NewShape("k", "v")
	auxShape = nested.NewShape("acat", "aw")
)

// RandRows builds a random input for dataset "in" with the fixed base schema
// {id:int, cat:string, val:int, tags:{{string}}, subs:{{<k:string, v:int>}}}.
func RandRows(r *rand.Rand, n int) []nested.Value {
	out := make([]nested.Value, 0, n)
	for i := 0; i < n; i++ {
		nt := r.Intn(4)
		tags := make([]nested.Value, 0, nt)
		for j := 0; j < nt; j++ {
			tags = append(tags, nested.StringVal(words[r.Intn(len(words))]))
		}
		ns := r.Intn(3)
		subs := make([]nested.Value, 0, ns)
		for j := 0; j < ns; j++ {
			subs = append(subs, subShape.Item(nested.StringVal(words[r.Intn(len(words))]), nested.Int(int64(r.Intn(10)))))
		}
		out = append(out, rowShape.Item(
			nested.Int(int64(i)),
			nested.StringVal(cats[r.Intn(len(cats))]),
			nested.Int(int64(r.Intn(20))),
			nested.Bag(tags...),
			nested.Bag(subs...),
		))
	}
	return out
}

// RandAuxRows builds a random input for the join side dataset "aux" with the
// schema {acat:string|null, aw:int}. Categories repeat, so joins fan out;
// about one key in six is null, so every join exercises the null-key build
// and probe paths of both executors.
func RandAuxRows(r *rand.Rand, n int) []nested.Value {
	out := make([]nested.Value, 0, n)
	for i := 0; i < n; i++ {
		acat := nested.StringVal(cats[r.Intn(len(cats))])
		if r.Intn(6) == 0 {
			acat = nested.Null()
		}
		out = append(out, auxShape.Item(acat, nested.Int(int64(r.Intn(50)))))
	}
	return out
}

// genState tracks the sink schema while the generator appends steps, so every
// generated pipeline is well-formed. attrs maps attribute name to a coarse
// type tag (typInt, typStr, ...).
type genState struct {
	cur   int
	attrs map[string]string
}

func baseAttrs() map[string]string {
	return map[string]string{
		"id": typInt, "cat": typStr, "val": typInt, "tags": typStrBag, "subs": typSubBag,
	}
}

// Generate builds the deterministic random test case for a seed: a dataset,
// a pipeline of 2–6 operators (plus the aux source chain when a join is
// drawn), and a tree-pattern question over the sink schema.
func Generate(seed int64) *Spec {
	r := rand.New(rand.NewSource(seed))
	s := &Spec{Seed: seed}
	n := 12 + r.Intn(24)
	if r.Intn(12) == 0 {
		// Occasionally straddle the morsel boundary (the engine's batch size
		// is 256) so multi-morsel kernel paths — partial last batches, morsel
		// handoff in joins and aggregates — get corpus coverage end to end.
		n = 255 + r.Intn(3)
	}
	s.Rows = RandRows(r, n)
	s.Steps = append(s.Steps, Step{Op: StepSource, In: -1, In2: -1, Dataset: DatasetIn})
	st := &genState{cur: 0, attrs: baseAttrs()}
	steps := 2 + r.Intn(5)
	for i := 0; i < steps; i++ {
		randStep(r, s, st)
	}
	s.Sink = st.cur
	s.Pattern = randPattern(r, st.attrs)
	return s
}

// randStep appends one random well-formed step (or occasionally a two-step
// join subplan) and advances the state.
func randStep(r *rand.Rand, s *Spec, st *genState) {
	choices := []string{StepFilter, StepFilter, StepSelect}
	if st.attrs["tags"] == typStrBag || st.attrs["subs"] == typSubBag {
		choices = append(choices, StepFlatten, StepFlatten)
	}
	// Joins and aggregates get double weight: they are the operators with
	// kernel state (hash tables, accumulator arrays), so the corpus leans
	// toward join+aggregate-heavy plans.
	if st.attrs["cat"] == typStr && (st.attrs["val"] == typInt || st.attrs["id"] == typInt) {
		choices = append(choices, StepAggregate, StepAggregate)
	}
	if len(st.attrs) > 0 {
		choices = append(choices, StepUnion, StepDistinct, StepOrderBy, StepLimit)
	}
	if st.attrs["cat"] == typStr && len(s.Aux) == 0 {
		choices = append(choices, StepJoin, StepJoin)
	}
	switch choices[r.Intn(len(choices))] {
	case StepFilter:
		st.cur = s.push(Step{Op: StepFilter, In: st.cur, In2: -1, Pred: randPred(r, st.attrs)})
	case StepSelect:
		fields, attrs := randSelect(r, st.attrs)
		st.cur = s.push(Step{Op: StepSelect, In: st.cur, In2: -1, Fields: fields})
		st.attrs = attrs
	case StepFlatten:
		if st.attrs["tags"] == typStrBag && (st.attrs["subs"] != typSubBag || r.Intn(2) == 0) {
			attrs := copyAttrs(st.attrs)
			attrs["tag"] = typStr
			attrs["tags"] = typConsumed
			st.cur = s.push(Step{Op: StepFlatten, In: st.cur, In2: -1, FlattenCol: "tags", FlattenAs: "tag"})
			st.attrs = attrs
			return
		}
		attrs := copyAttrs(st.attrs)
		attrs["sub"] = typSubItem
		attrs["subs"] = typConsumed
		st.cur = s.push(Step{Op: StepFlatten, In: st.cur, In2: -1, FlattenCol: "subs", FlattenAs: "sub"})
		st.attrs = attrs
	case StepAggregate:
		aggIn := "val"
		if st.attrs["val"] != typInt {
			aggIn = "id"
		}
		// Grouping keys: always cat, sometimes joined by another string
		// attribute (a flattened tag or the join-side acat) for composite
		// group keys.
		keys := []string{"cat"}
		for _, extra := range []string{"tag", "acat"} {
			if st.attrs[extra] == typStr && r.Intn(3) == 0 {
				keys = append(keys, extra)
			}
		}
		// Aggregate inputs stay int-typed so numeric functions cannot fail;
		// 1–3 computations per step cover the shared-column decode (several
		// aggregates over one input) and the mixed-accumulator layouts.
		ints := []string{aggIn}
		for _, name := range []string{"aw", "subv"} {
			if st.attrs[name] == typInt {
				ints = append(ints, name)
			}
		}
		fns := []string{"collect_list", "collect_set", "sum", "count", "max", "min", "avg"}
		nAggs := 1 + r.Intn(3)
		aggs := make([]AggStep, 0, nAggs)
		attrs := map[string]string{}
		for _, k := range keys {
			attrs[k] = typStr
		}
		for j := 0; j < nAggs; j++ {
			out := "agg_out"
			if j > 0 {
				out = fmt.Sprintf("agg_out%d", j+1)
			}
			aggs = append(aggs, AggStep{Fn: fns[r.Intn(len(fns))], In: ints[r.Intn(len(ints))], Out: out})
			attrs[out] = typOther
		}
		st.cur = s.push(Step{Op: StepAggregate, In: st.cur, In2: -1, GroupBys: keys, Aggs: aggs})
		st.attrs = attrs
	case StepUnion:
		// Union with itself keeps the schema and doubles multiplicities; the
		// same source feeding two edges exercises the shared-predecessor
		// paths of backtracing.
		st.cur = s.push(Step{Op: StepUnion, In: st.cur, In2: st.cur})
	case StepDistinct:
		st.cur = s.push(Step{Op: StepDistinct, In: st.cur, In2: -1})
	case StepOrderBy:
		key := "cat"
		if st.attrs["val"] == typInt && r.Intn(2) == 0 {
			key = "val"
		}
		if st.attrs[key] == "" || st.attrs[key] == typConsumed {
			return
		}
		st.cur = s.push(Step{Op: StepOrderBy, In: st.cur, In2: -1, SortKey: key, SortDesc: r.Intn(2) == 0})
	case StepLimit:
		st.cur = s.push(Step{Op: StepLimit, In: st.cur, In2: -1, Limit: 5 + r.Intn(20)})
	case StepJoin:
		s.Aux = RandAuxRows(r, 6+r.Intn(8))
		// Half the specs with a join pin it to the shuffle path; the other
		// half keep the default threshold, which broadcasts at corpus sizes.
		s.ShuffleJoin = r.Intn(2) == 0
		aux := s.push(Step{Op: StepSource, In: -1, In2: -1, Dataset: DatasetAux})
		st.cur = s.push(Step{Op: StepJoin, In: st.cur, In2: aux,
			JoinLeftKey: "cat", JoinRightKey: "acat"})
		attrs := copyAttrs(st.attrs)
		attrs["acat"] = typStr
		attrs["aw"] = typInt
		st.attrs = attrs
	}
}

func randPred(r *rand.Rand, attrs map[string]string) *Pred {
	var preds []*Pred
	if attrs["val"] == typInt {
		preds = append(preds, &Pred{Col: "val", Op: "le", Int: int64(5 + r.Intn(15))})
	}
	if attrs["cat"] == typStr {
		preds = append(preds, &Pred{Col: "cat", Op: "ne", Str: cats[r.Intn(len(cats))], IsStr: true})
	}
	if attrs["tag"] == typStr {
		preds = append(preds, &Pred{Col: "tag", Op: "ne", Str: "w", IsStr: true})
	}
	if attrs["sub"] == typSubItem {
		preds = append(preds, &Pred{Col: "sub.v", Op: "le", Int: int64(2 + r.Intn(7))})
	}
	if attrs["aw"] == typInt {
		preds = append(preds, &Pred{Col: "aw", Op: "gt", Int: int64(r.Intn(25))})
	}
	if len(preds) == 0 {
		return &Pred{True: true}
	}
	return preds[r.Intn(len(preds))]
}

func randSelect(r *rand.Rand, in map[string]string) ([]FieldSpec, map[string]string) {
	var fields []FieldSpec
	attrs := map[string]string{}
	for _, name := range sortedKeys(in) {
		typ := in[name]
		if typ == typConsumed {
			continue
		}
		if r.Intn(4) == 0 { // drop ~25% of attributes
			continue
		}
		fields = append(fields, FieldSpec{Name: name, Col: name})
		attrs[name] = typ
	}
	// Occasionally project a nested access path out of the sub item,
	// exercising attribute-level (rather than item-level) projections.
	if in["sub"] == typSubItem && r.Intn(3) == 0 {
		fields = append(fields, FieldSpec{Name: "subv", Col: "sub.v"})
		attrs["subv"] = typInt
	}
	// Keep at least cat and one more attribute so later steps stay possible.
	if _, ok := attrs["cat"]; !ok && in["cat"] != "" && in["cat"] != typConsumed {
		fields = append(fields, FieldSpec{Name: "cat", Col: "cat"})
		attrs["cat"] = in["cat"]
	}
	if len(attrs) < 2 {
		for _, name := range sortedKeys(in) {
			typ := in[name]
			if typ == typConsumed || attrs[name] != "" {
				continue
			}
			fields = append(fields, FieldSpec{Name: name, Col: name})
			attrs[name] = typ
			break
		}
	}
	return fields, attrs
}

// randPattern draws a tree-pattern question over the sink schema: half the
// time the match-all pattern (trace the whole result), otherwise a single
// constrained node covering the extended constraint set — value equality,
// substring containment, open range bounds, and occurrence counts.
func randPattern(r *rand.Rand, attrs map[string]string) *treepattern.Pattern {
	if r.Intn(2) == 0 {
		return nil // match-all
	}
	var cands []*treepattern.Node
	for _, name := range sortedKeys(attrs) {
		switch attrs[name] {
		case typInt:
			cands = append(cands,
				treepattern.Child(name).WithLt(nested.Int(int64(3+r.Intn(18)))),
				treepattern.Child(name).WithGt(nested.Int(int64(r.Intn(15)))),
				treepattern.Child(name).WithEq(nested.Int(int64(r.Intn(20)))),
			)
		case typStr:
			cands = append(cands,
				treepattern.Child(name).WithEq(nested.StringVal(cats[r.Intn(len(cats))])),
				treepattern.Child(name).WithContains(words[r.Intn(len(words))]),
			)
		case typSubBag:
			c := treepattern.Desc("k").WithEq(nested.StringVal(words[r.Intn(len(words))]))
			if r.Intn(2) == 0 {
				c.WithCount(1, 2)
			}
			cands = append(cands, c,
				treepattern.Desc("v").WithLt(nested.Int(int64(2+r.Intn(8)))))
		case typSubItem:
			cands = append(cands, treepattern.Desc("v").WithLt(nested.Int(int64(2+r.Intn(8)))))
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return treepattern.New(cands[r.Intn(len(cands))])
}

func copyAttrs(in map[string]string) map[string]string {
	out := make(map[string]string, len(in)+1)
	for k, v := range in {
		out[k] = v
	}
	return out
}
