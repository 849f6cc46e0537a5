package corpus

import (
	"fmt"
	"go/format"
	"strings"

	"pebble/internal/nested"
)

// GoSnippet renders the spec as a self-contained runnable Go file that
// rebuilds the failing pipeline and dataset with the plain engine builder
// API — no corpus dependency — so a reproducer can be pasted into a
// regression test and stepped through directly.
func GoSnippet(s *Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Reproducer generated from corpus seed %d.\n", s.Seed)
	b.WriteString(`package main

import (
	"fmt"

	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
)

func main() {
`)
	writeRows(&b, "rows", s.Rows)
	if len(s.Aux) > 0 {
		writeRows(&b, "aux", s.Aux)
	}
	b.WriteString("\tp := engine.NewPipeline()\n")
	for i, st := range s.Steps {
		fmt.Fprintf(&b, "\top%d := %s\n", i, stepCall(st))
	}
	fmt.Fprintf(&b, "\tp.SetSink(op%d)\n", s.Sink)
	b.WriteString("\tgen := engine.NewIDGen(1)\n")
	b.WriteString("\tinputs := map[string]*engine.Dataset{\n")
	fmt.Fprintf(&b, "\t\t%q: engine.NewDataset(%q, rows, engine.DefaultPartitions, gen),\n", DatasetIn, DatasetIn)
	if len(s.Aux) > 0 {
		fmt.Fprintf(&b, "\t\t%q: engine.NewDataset(%q, aux, engine.DefaultPartitions, gen),\n", DatasetAux, DatasetAux)
	}
	b.WriteString("\t}\n")
	fmt.Fprintf(&b, "\tpattern := %s\n", patternExpr(s.Pattern))
	optsExpr := "engine.Options{}"
	if s.ShuffleJoin {
		optsExpr = "engine.Options{BroadcastJoinThreshold: -1}"
	}
	fmt.Fprintf(&b, "\tres, run, err := provenance.Capture(p, inputs, %s)\n", optsExpr)
	b.WriteString(`	if err != nil {
		panic(err)
	}
	_ = pattern
	fmt.Printf("rows=%d operators=%d\n", len(res.Output.Values()), len(run.Operators()))
}
`)
	// Reproducers land in testdata and regression tests verbatim, so they
	// must be gofmt-clean (alignment of literals depends on their widths). A
	// failure to format means the template emitted invalid Go; return it raw
	// so the caller's parse error points at the real problem.
	src := b.String()
	if fmtd, err := format.Source([]byte(src)); err == nil {
		return string(fmtd)
	}
	return src
}

func writeRows(b *strings.Builder, name string, rows []nested.Value) {
	fmt.Fprintf(b, "\t%s := []nested.Value{\n", name)
	for _, v := range rows {
		fmt.Fprintf(b, "\t\t%s,\n", valueExpr(v))
	}
	b.WriteString("\t}\n")
}

// valueExpr renders a nested value as a Go constructor expression.
func valueExpr(v nested.Value) string {
	switch v.Kind() {
	case nested.KindInt:
		i, _ := v.AsInt()
		return fmt.Sprintf("nested.Int(%d)", i)
	case nested.KindString:
		s, _ := v.AsString()
		return fmt.Sprintf("nested.StringVal(%q)", s)
	case nested.KindBool:
		bv, _ := v.AsBool()
		return fmt.Sprintf("nested.Bool(%v)", bv)
	case nested.KindBag:
		parts := make([]string, 0, len(v.Elems()))
		for _, e := range v.Elems() {
			parts = append(parts, valueExpr(e))
		}
		return "nested.Bag(" + strings.Join(parts, ", ") + ")"
	case nested.KindItem:
		parts := make([]string, 0, v.NumFields())
		for i := 0; i < v.NumFields(); i++ {
			parts = append(parts, fmt.Sprintf("nested.F(%q, %s)", v.FieldName(i), valueExpr(v.FieldValue(i))))
		}
		return "nested.Item(" + strings.Join(parts, ", ") + ")"
	default:
		return "nested.Null()"
	}
}

func predExpr(p *Pred) string {
	if p == nil || p.True {
		return "engine.LitBool(true)"
	}
	lit := fmt.Sprintf("engine.LitInt(%d)", p.Int)
	if p.IsStr {
		lit = fmt.Sprintf("engine.LitString(%q)", p.Str)
	}
	op := map[string]string{"eq": "Eq", "ne": "Ne", "le": "Le", "gt": "Gt"}[p.Op]
	if op == "" {
		return "engine.LitBool(true)"
	}
	return fmt.Sprintf("engine.%s(engine.Col(%q), %s)", op, p.Col, lit)
}

func stepCall(st Step) string {
	switch st.Op {
	case StepSource:
		return fmt.Sprintf("p.Source(%q)", st.Dataset)
	case StepFilter:
		return fmt.Sprintf("p.Filter(op%d, %s)", st.In, predExpr(st.Pred))
	case StepSelect:
		parts := make([]string, 0, len(st.Fields))
		for _, f := range st.Fields {
			parts = append(parts, fmt.Sprintf("engine.Column(%q, %q)", f.Name, f.Col))
		}
		return fmt.Sprintf("p.Select(op%d, %s)", st.In, strings.Join(parts, ", "))
	case StepFlatten:
		return fmt.Sprintf("p.Flatten(op%d, %q, %q)", st.In, st.FlattenCol, st.FlattenAs)
	case StepAggregate:
		keys := make([]string, 0, 2)
		for _, k := range st.groupKeys() {
			keys = append(keys, fmt.Sprintf("engine.Key(%q)", k))
		}
		aggs := make([]string, 0, 3)
		for _, ag := range st.aggSpecs() {
			aggs = append(aggs, fmt.Sprintf("engine.Agg(%q, %q, %q)", ag.Fn, ag.In, ag.Out))
		}
		return fmt.Sprintf("p.Aggregate(op%d, []engine.GroupKey{%s}, []engine.AggSpec{%s})",
			st.In, strings.Join(keys, ", "), strings.Join(aggs, ", "))
	case StepUnion:
		return fmt.Sprintf("p.Union(op%d, op%d)", st.In, st.In2)
	case StepJoin:
		return fmt.Sprintf("p.Join(op%d, op%d, engine.Col(%q), engine.Col(%q))",
			st.In, st.In2, st.JoinLeftKey, st.JoinRightKey)
	case StepDistinct:
		return fmt.Sprintf("p.Distinct(op%d)", st.In)
	case StepOrderBy:
		return fmt.Sprintf("p.OrderBy(op%d, %v, engine.Col(%q))", st.In, st.SortDesc, st.SortKey)
	case StepLimit:
		return fmt.Sprintf("p.Limit(op%d, %d)", st.In, st.Limit)
	}
	return fmt.Sprintf("/* unknown step %q */ nil", st.Op)
}

func patternExpr(p *PatternSpec) string {
	if p == nil {
		return "treepattern.New()"
	}
	ctor := "Child"
	if p.Desc {
		ctor = "Desc"
	}
	expr := fmt.Sprintf("treepattern.%s(%q)", ctor, p.Attr)
	switch p.Kind {
	case "eq-int":
		expr += fmt.Sprintf(".WithEq(nested.Int(%d))", p.Int)
	case "eq-str":
		expr += fmt.Sprintf(".WithEq(nested.StringVal(%q))", p.Str)
	case "contains":
		expr += fmt.Sprintf(".WithContains(%q)", p.Str)
	case "lt-int":
		expr += fmt.Sprintf(".WithLt(nested.Int(%d))", p.Int)
	case "gt-int":
		expr += fmt.Sprintf(".WithGt(nested.Int(%d))", p.Int)
	}
	if p.MinCount > 0 || p.MaxCount > 0 {
		expr += fmt.Sprintf(".WithCount(%d, %d)", p.MinCount, p.MaxCount)
	}
	return fmt.Sprintf("treepattern.New(%s)", expr)
}
