package pebble_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"pebble"
)

// TestExpressionShims exercises every expression constructor of the public
// API against a sample item.
func TestExpressionShims(t *testing.T) {
	d := pebble.Item(
		pebble.F("n", pebble.Int(5)),
		pebble.F("s", pebble.String("hello world")),
		pebble.F("b", pebble.Bool(true)),
		pebble.F("f", pebble.Double(2.5)),
		pebble.F("tags", pebble.Bag(pebble.String("x"))),
	)
	truthy := []pebble.Expr{
		pebble.Eq(pebble.Col("n"), pebble.LitInt(5)),
		pebble.Ne(pebble.Col("n"), pebble.LitInt(6)),
		pebble.Lt(pebble.Col("n"), pebble.LitInt(6)),
		pebble.Le(pebble.Col("n"), pebble.LitInt(5)),
		pebble.Gt(pebble.Col("f"), pebble.LitDouble(2.0)),
		pebble.Ge(pebble.Col("f"), pebble.LitDouble(2.5)),
		pebble.And(pebble.LitBool(true), pebble.Col("b")),
		pebble.Or(pebble.LitBool(false), pebble.Col("b")),
		pebble.Not(pebble.LitBool(false)),
		pebble.Contains(pebble.Col("s"), pebble.LitString("world")),
		pebble.IsNull(pebble.Col("missing")),
		pebble.Eq(pebble.Len(pebble.Col("tags")), pebble.LitInt(1)),
		pebble.Eq(pebble.Lit(pebble.Int(1)), pebble.LitInt(1)),
		pebble.Eq(pebble.Col("s"), pebble.LitString("hello world")),
	}
	for _, e := range truthy {
		v, err := e.Eval(d)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if b, _ := v.AsBool(); !b {
			t.Errorf("%s evaluated to false", e)
		}
	}
}

// TestOperatorShims builds a pipeline through every public builder and runs
// it end to end, including the extension operators.
func TestOperatorShims(t *testing.T) {
	values := []pebble.Value{
		pebble.Item(pebble.F("cat", pebble.String("a")), pebble.F("v", pebble.Int(3)),
			pebble.F("tags", pebble.Bag(pebble.String("t1"), pebble.String("t2")))),
		pebble.Item(pebble.F("cat", pebble.String("a")), pebble.F("v", pebble.Int(1)),
			pebble.F("tags", pebble.Bag(pebble.String("t1")))),
		pebble.Item(pebble.F("cat", pebble.String("b")), pebble.F("v", pebble.Int(2)),
			pebble.F("tags", pebble.Bag(pebble.String("t3")))),
	}
	inputs := map[string]*pebble.Dataset{"in": pebble.NewDataset("in", values, 2)}
	p := pebble.NewPipeline()
	src := p.Source("in")
	flt := p.Filter(src, pebble.Gt(pebble.Col("v"), pebble.LitInt(0)))
	fl := p.Flatten(flt, "tags", "tag")
	sel := p.Select(fl,
		pebble.Column("cat", "cat"),
		pebble.Column("tag", "tag"),
		pebble.Computed("vplus", pebble.Len(pebble.Col("tags"))),
		pebble.StructField("wrap", pebble.Column("v", "v")),
	)
	mp := p.Map(sel, pebble.MapFunc{Name: "keep", Fn: func(v pebble.Value) (pebble.Value, error) {
		return v, nil
	}})
	agg := p.Aggregate(mp,
		[]pebble.GroupKey{pebble.Key("cat"), pebble.KeyAs("tag2", "tag")},
		[]pebble.AggSpec{
			pebble.Agg(pebble.AggCount, "", "n"),
			pebble.Agg(pebble.AggCollectSet, "tag", "tags"),
		},
	)
	dst := p.Distinct(agg)
	ord := p.OrderBy(dst, false, pebble.Col("cat"))
	p.Limit(ord, 10)

	session := pebble.Session{Partitions: 2}
	cap, err := session.Capture(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if cap.Result.Output.Len() == 0 {
		t.Fatal("pipeline produced nothing")
	}
	// Query everything and trace through the whole operator zoo.
	q, err := cap.QueryAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items()) == 0 {
		t.Fatal("no traced items")
	}
	// Aggregation functions exposed as constants.
	for _, fn := range []pebble.AggFunc{pebble.AggSum, pebble.AggMax, pebble.AggMin, pebble.AggAvg, pebble.AggCollectList} {
		if fn == "" {
			t.Error("missing agg constant")
		}
	}
}

// TestUnionJoinShims covers the remaining binary builders.
func TestUnionJoinShims(t *testing.T) {
	a := []pebble.Value{pebble.Item(pebble.F("k", pebble.String("x")), pebble.F("va", pebble.Int(1)))}
	b := []pebble.Value{pebble.Item(pebble.F("j", pebble.String("x")), pebble.F("vb", pebble.Int(2)))}
	p := pebble.NewPipeline()
	l, r := p.Source("a"), p.Source("b")
	j := p.Join(l, r, pebble.Col("k"), pebble.Col("j"))
	sel := p.Select(j, pebble.Column("k", "k"))
	l2 := p.Select(p.Source("a"), pebble.Column("k", "k"))
	p.Union(sel, l2)
	inputs := map[string]*pebble.Dataset{
		"a": pebble.NewDataset("a", a, 1),
		"b": pebble.NewDataset("b", b, 1),
	}
	session := pebble.Session{Partitions: 1}
	res, err := session.Run(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Output.Len())
	}
}

// TestProvenancePersistenceShims covers ReadProvenance and Trace.
func TestProvenancePersistenceShims(t *testing.T) {
	inputs := map[string]*pebble.Dataset{
		"tweets.json": pebble.NewDataset("tweets.json", tab1(), 2),
	}
	session := pebble.Session{Partitions: 2}
	cap, err := session.Capture(figure1(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cap.Provenance.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	run, err := pebble.ReadProvenance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	row := cap.Result.Output.Rows()[0]
	b := pebble.NewStructure()
	b.Add(row.ID, pebble.TreeFromValue(row.Value))
	sink, ok := run.OpByID(pebble.OpID(cap.Pipeline.Sink().ID()))
	if !ok {
		t.Fatalf("sink operator %d missing from reloaded run", cap.Pipeline.Sink().ID())
	}
	traced, err := pebble.TraceFrom(run, sink, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.BySource) == 0 {
		t.Error("trace over reloaded run empty")
	}
}

// TestKindConstantsAndReport sanity-checks the remaining shims.
func TestKindConstantsAndReport(t *testing.T) {
	if pebble.KindNull.String() != "null" || pebble.KindItem.String() != "item" {
		t.Error("kind constants broken")
	}
	inputs := map[string]*pebble.Dataset{
		"tweets.json": pebble.NewDataset("tweets.json", tab1(), 1),
	}
	cap, err := pebble.Session{Partitions: 1}.Capture(figure1(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cap.Query(fig4Pattern())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Report(), "contributing") {
		t.Error("report shim broken")
	}
}

// TestParsePatternShim covers the public textual pattern entry point.
func TestParsePatternShim(t *testing.T) {
	inputs := map[string]*pebble.Dataset{
		"tweets.json": pebble.NewDataset("tweets.json", tab1(), 2),
	}
	cap, err := pebble.Session{Partitions: 2}.Capture(figure1(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := pebble.ParsePattern(`//id_str == "lp", tweets(text == "Hello World" #[2,2])`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cap.Query(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items()) != 2 {
		t.Errorf("parsed pattern traced %d items, want 2", len(q.Items()))
	}
	// The where-provenance style cell view.
	for _, s := range q.Traced.BySource {
		for id, cells := range s.ContributingPaths() {
			if len(cells) == 0 {
				t.Errorf("item %d has no contributing cells", id)
			}
		}
	}
	if _, err := pebble.ParsePattern(`== bad`); err == nil {
		t.Error("bad pattern accepted")
	}
}

// TestAnalyzeShim covers the public plan-time analyzer.
func TestAnalyzeShim(t *testing.T) {
	inputs := map[string]*pebble.Dataset{
		"tweets.json": pebble.NewDataset("tweets.json", tab1(), 1),
	}
	types := pebble.InferInputTypes(inputs)
	if _, err := pebble.Analyze(figure1(), types); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := pebble.NewPipeline()
	bad.Filter(bad.Source("tweets.json"), pebble.Eq(pebble.Col("tpyo"), pebble.LitInt(1)))
	if _, err := pebble.Analyze(bad, types); err == nil {
		t.Error("typo accepted")
	}
}

// TestNewSessionCoversEverySessionField is the option-completeness check:
// constructing a session with every With* option must leave no Session
// field at its zero value — a new field without a matching option fails
// here by construction.
func TestNewSessionCoversEverySessionField(t *testing.T) {
	s := pebble.NewSession(
		pebble.WithPartitions(3),
		pebble.WithWorkers(2),
		pebble.WithRecorder(pebble.NewRecorder()),
	)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("Session field %s has no covering option (still zero after all With* options)",
				v.Type().Field(i).Name)
		}
	}
	// And the struct-literal path keeps working.
	lit := pebble.Session{Partitions: 3, Workers: 2, Recorder: s.Recorder}
	if lit != s {
		t.Error("NewSession with all options differs from the equivalent struct literal")
	}
}

// TestTraceFromAndOpByID covers the typed query-side entry points — plus
// the context-aware TraceFromContext variant against the same reloaded run.
func TestTraceFromAndOpByID(t *testing.T) {
	inputs := map[string]*pebble.Dataset{
		"tweets.json": pebble.NewDataset("tweets.json", tab1(), 2),
	}
	cap, err := pebble.NewSession(pebble.WithPartitions(2)).Capture(figure1(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cap.Provenance.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	run, err := pebble.ReadProvenance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sinkID := pebble.OpID(cap.Pipeline.Sink().ID())
	op, ok := run.OpByID(sinkID)
	if !ok {
		t.Fatalf("OpByID(%d) not found after reload", sinkID)
	}
	if op.ID() != sinkID {
		t.Errorf("op.ID() = %d, want %d", op.ID(), sinkID)
	}
	row := cap.Result.Output.Rows()[0]
	b := pebble.NewStructure()
	b.Add(row.ID, pebble.TreeFromValue(row.Value))
	typed, err := pebble.TraceFrom(run, op, b)
	if err != nil {
		t.Fatal(err)
	}
	ctxTraced, err := pebble.TraceFromContext(context.Background(), run, op, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(typed.BySource) == 0 || len(typed.BySource) != len(ctxTraced.BySource) {
		t.Errorf("typed trace reached %d sources, context variant %d",
			len(typed.BySource), len(ctxTraced.BySource))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pebble.TraceFromContext(cancelled, run, op, b); err == nil {
		t.Error("TraceFromContext with cancelled context should fail")
	}
	if _, ok := run.OpByID(9999); ok {
		t.Error("OpByID(9999) resolved a phantom operator")
	}
	if _, err := pebble.TraceFrom(run, nil, b); err == nil {
		t.Error("TraceFrom(nil op) should fail")
	}
	if _, err := pebble.TraceFromContext(context.Background(), run, nil, b); err == nil {
		t.Error("TraceFromContext(nil op) should fail")
	}
}

// TestCapturedStatsPublic covers the Stats surface through the root
// package: recorder-backed snapshot with per-operator counters.
func TestCapturedStatsPublic(t *testing.T) {
	rec := pebble.NewRecorder()
	inputs := map[string]*pebble.Dataset{
		"tweets.json": pebble.NewDataset("tweets.json", tab1(), 2),
	}
	session := pebble.NewSession(pebble.WithPartitions(2), pebble.WithRecorder(rec))
	cap, err := session.Capture(figure1(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cap.Query(fig4Pattern()); err != nil {
		t.Fatal(err)
	}
	var st *pebble.Stats = cap.Stats()
	if len(st.Ops) == 0 {
		t.Fatal("no operator stats recorded")
	}
	var first pebble.OpStat = st.Ops[0]
	if first.Type != "source" {
		t.Errorf("first operator is %q, want source", first.Type)
	}
	out := st.Render(true)
	if !strings.Contains(out, "pattern_match") || !strings.Contains(out, "backtrace") {
		t.Errorf("rendered stats missing query spans:\n%s", out)
	}
}
