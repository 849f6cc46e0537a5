package provenance

import "pebble/internal/engine"

// ChainInfo is the static provenance of operator oid of type typ in a
// synthetic run that keeps the load rules: a source reads its dataset, any
// other operator reads operator oid−1 (a join or union reads it twice).
func ChainInfo(oid int, typ engine.OpType) engine.OpInfo {
	info := engine.OpInfo{OID: oid, Type: typ, Inputs: []engine.InputInfo{{Pred: oid - 1}}}
	switch typ {
	case engine.OpSource:
		info.Inputs[0].Pred = 0
	case engine.OpJoin, engine.OpUnion:
		info.Inputs = append(info.Inputs, info.Inputs[0])
	}
	return info
}

// RuleBreak is a hand-made stream that breaks one load rule, at one operator.
type RuleBreak struct {
	Name   string
	Rule   string // as the loader's error names it: "breaks the <Rule> rule"
	OID    int    // the operator that breaks it
	Stream []byte
}

// RuleBreakingStreams returns, per load rule, v3 streams of the reference
// encoder whose runs break that rule at one operator and keep the other two.
// Each starts with source 1, which read rows 1 and 2 of its dataset.
func RuleBreakingStreams() []RuleBreak {
	op := func(oid int, typ engine.OpType, c Columns, preds ...int) *Operator {
		o := &Operator{OID: oid, typ: typ}
		for _, p := range preds {
			o.inputs = append(o.inputs, engine.InputInfo{Pred: p})
		}
		o.setColumns(c)
		return o
	}
	ids := []int64{1, 2}
	source := func(oid int, pred int) *Operator {
		return op(oid, engine.OpSource, Columns{Kind: AssocSource, Out: ids, In: ids}, pred)
	}
	unary := Columns{Kind: AssocUnary, In: ids, Out: []int64{3, 4}}
	flatten := Columns{Kind: AssocFlatten, In: []int64{1, 1}, Pos: []int64{1, 2}, Out: []int64{3, 4}}
	var out []RuleBreak
	add := func(name, rule string, oid int, ops ...*Operator) {
		r := &Run{ops: make(map[int]*Operator)}
		for _, o := range append([]*Operator{source(1, 0)}, ops...) {
			r.ops[o.OID] = o
			r.order = append(r.order, o.OID)
		}
		out = append(out, RuleBreak{Name: name, Rule: rule, OID: oid, Stream: RefEncodeV3(r)})
	}
	add("a join with one input", "input count", 2, op(2, engine.OpJoin, Columns{}, 1))
	add("a filter with two inputs", "input count", 2, op(2, engine.OpFilter, Columns{}, 1, 1))
	add("a source reading an operator", "input count", 2, source(2, 1))
	add("a flatten relabelled a join", "input count", 2, op(2, engine.OpJoin, flatten, 1))
	add("a filter with a flatten's bag", "layout", 2, op(2, engine.OpFilter, flatten, 1))
	add("a join with a source's bag", "layout", 2, op(2, engine.OpJoin, Columns{Kind: AssocSource, Out: ids, In: ids}, 1, 1))
	add("a filter reading itself", "Pred", 2, op(2, engine.OpFilter, unary, 2))
	add("a filter reading a later operator", "Pred", 2, op(2, engine.OpFilter, unary, 3), op(3, engine.OpFilter, Columns{}, 2))
	add("a filter reading an absent operator", "Pred", 2, op(2, engine.OpFilter, unary, 9))
	add("a join reading itself on one side", "Pred", 2, op(2, engine.OpJoin, Columns{}, 1, 2))
	add("an operator twice", "Pred", 2, op(2, engine.OpFilter, unary, 1), op(2, engine.OpFilter, unary, 1))
	return out
}
