package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// mkTweet builds a Tab. 1 style tweet.
func mkTweet(text, userID, userName string, retweet int64, mentions ...[2]string) nested.Value {
	ms := make([]nested.Value, len(mentions))
	for i, m := range mentions {
		ms[i] = nested.Item(nested.F("id_str", nested.StringVal(m[0])), nested.F("name", nested.StringVal(m[1])))
	}
	return nested.Item(
		nested.F("text", nested.StringVal(text)),
		nested.F("user", nested.Item(nested.F("id_str", nested.StringVal(userID)), nested.F("name", nested.StringVal(userName)))),
		nested.F("user_mentions", nested.Bag(ms...)),
		nested.F("retweet_cnt", nested.Int(retweet)),
	)
}

// tab1 returns the example input data of Tab. 1.
func tab1() []nested.Value {
	return []nested.Value{
		mkTweet("Hello @ls @jm @ls", "lp", "Lisa Paul", 0,
			[2]string{"ls", "Lauren Smith"}, [2]string{"jm", "John Miller"}, [2]string{"ls", "Lauren Smith"}),
		mkTweet("Hello World", "lp", "Lisa Paul", 0),
		mkTweet("Hello World", "lp", "Lisa Paul", 0),
		mkTweet("This is me @jm", "jm", "John Miller", 0, [2]string{"jm", "John Miller"}),
		mkTweet("Hello @lp", "jm", "John Miller", 1, [2]string{"lp", "Lisa Paul"}),
	}
}

func dataset(t *testing.T, name string, values []nested.Value, parts int) *Dataset {
	t.Helper()
	return NewDataset(name, values, parts, NewIDGen(1000))
}

// valuesOf returns d's values in row order.
func valuesOf(d *Dataset) []nested.Value {
	out := make([]nested.Value, 0, d.Len())
	for _, r := range d.Rows() {
		out = append(out, r.Value)
	}
	return out
}

func runPipeline(t *testing.T, p *Pipeline, inputs map[string]*Dataset, opts Options) *Result {
	t.Helper()
	res, err := Run(p, inputs, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// figure1 builds the running-example pipeline of Fig. 1.
func figure1() *Pipeline {
	p := NewPipeline()
	read1 := p.Source("tweets.json")                           // 1
	filt := p.Filter(read1, Eq(Col("retweet_cnt"), LitInt(0))) // 2
	sel1 := p.Select(filt,                                     // 3
		Column("text", "text"),
		Column("id_str", "user.id_str"),
		Column("name", "user.name"),
	)
	read2 := p.Source("tweets.json")                    // 4
	flat := p.Flatten(read2, "user_mentions", "m_user") // 5
	sel2 := p.Select(flat,                              // 6
		Column("text", "text"),
		Column("id_str", "m_user.id_str"),
		Column("name", "m_user.name"),
	)
	uni := p.Union(sel1, sel2) // 7
	sel3 := p.Select(uni,      // 8
		// text → tweet as a one-attribute item, so the nested result keeps
		// the text attribute (Tab. 2 / the tweets.2.text path of Fig. 2).
		StructField("tweet", Column("text", "text")),
		StructField("user", Column("id_str", "id_str"), Column("name", "name")),
	)
	p.Aggregate(sel3, // 9
		[]GroupKey{Key("user")},
		[]AggSpec{Agg(AggCollectList, "tweet", "tweets")},
	)
	return p
}

func TestFigure1PipelineProducesTab2(t *testing.T) {
	for _, parts := range []int{1, 3} {
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("parts=%d workers=%d", parts, workers)
			inputs := map[string]*Dataset{"tweets.json": dataset(t, "tweets.json", tab1(), parts)}
			res := runPipeline(t, figure1(), inputs, Options{Partitions: parts, Workers: workers})
			got := make(map[string][]string) // user id -> sorted tweet texts
			users := make(map[string]string)
			for _, r := range res.Output.Rows() {
				u, _ := r.Value.Get("user")
				id, _ := mustAttr(t, u, "id_str").AsString()
				nm, _ := mustAttr(t, u, "name").AsString()
				users[id] = nm
				tw, _ := r.Value.Get("tweets")
				var texts []string
				for _, e := range tw.Elems() {
					s, _ := mustAttr(t, e, "text").AsString()
					texts = append(texts, s)
				}
				sort.Strings(texts)
				got[id] = texts
			}
			want := map[string][]string{ // Tab. 2 (as multisets)
				"ls": {"Hello @ls @jm @ls", "Hello @ls @jm @ls"},
				"lp": {"Hello @lp", "Hello @ls @jm @ls", "Hello World", "Hello World"},
				"jm": {"Hello @ls @jm @ls", "This is me @jm", "This is me @jm"},
			}
			if len(got) != len(want) {
				t.Fatalf("%s: got %d result users, want %d: %v", name, len(got), len(want), got)
			}
			for id, texts := range want {
				if strings.Join(got[id], "|") != strings.Join(texts, "|") {
					t.Errorf("%s: user %s tweets = %v, want %v", name, id, got[id], texts)
				}
			}
			if users["lp"] != "Lisa Paul" || users["jm"] != "John Miller" || users["ls"] != "Lauren Smith" {
				t.Errorf("%s: user names wrong: %v", name, users)
			}
		}
	}
}

func mustAttr(t *testing.T, v nested.Value, name string) nested.Value {
	t.Helper()
	out, ok := v.Get(name)
	if !ok {
		t.Fatalf("attribute %q missing in %s", name, v)
	}
	return out
}

func TestFilterKeepsMatchingRowsOnly(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	p.Filter(src, Eq(Col("retweet_cnt"), LitInt(0)))
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	res := runPipeline(t, p, inputs, Options{Partitions: 2})
	if res.Output.Len() != 4 {
		t.Errorf("filter kept %d rows, want 4", res.Output.Len())
	}
	for _, r := range res.Output.Rows() {
		if c, _ := mustAttr(t, r.Value, "retweet_cnt").AsInt(); c != 0 {
			t.Errorf("row with retweet_cnt=%d survived", c)
		}
	}
}

func TestSelectProjectionsAndStructs(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	p.Select(src,
		Column("t", "text"),
		StructField("who", Column("id", "user.id_str")),
		Computed("mlen", Len(Col("user_mentions"))),
	)
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 1)}
	res := runPipeline(t, p, inputs, Options{Partitions: 1})
	first := res.Output.Rows()[0].Value
	if got := first.Shape().Names(); strings.Join(got, ",") != "t,who,mlen" {
		t.Fatalf("select output attrs = %v", got)
	}
	who := mustAttr(t, first, "who")
	if s, _ := mustAttr(t, who, "id").AsString(); s != "lp" {
		t.Errorf("struct field = %q", s)
	}
	if n, _ := mustAttr(t, first, "mlen").AsInt(); n != 3 {
		t.Errorf("computed field = %d, want 3", n)
	}
}

func TestSelectMissingPathYieldsNull(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	p.Select(src, Column("x", "does.not.exist"))
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1()[:1], 1)}
	res := runPipeline(t, p, inputs, Options{})
	if !mustAttr(t, res.Output.Rows()[0].Value, "x").IsNull() {
		t.Error("missing projection should be null")
	}
}

func TestMapAppliesFunctionAndValidatesReturn(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	p.Map(src, MapFunc{Name: "addFlag", Fn: func(d nested.Value) (nested.Value, error) {
		return d.WithField("flag", nested.Bool(true)), nil
	}})
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	res := runPipeline(t, p, inputs, Options{Partitions: 2})
	for _, r := range res.Output.Rows() {
		if f, ok := r.Value.Get("flag"); !ok || f.Kind() != nested.KindBool {
			t.Fatal("map did not apply")
		}
	}

	bad := NewPipeline()
	s2 := bad.Source("in")
	bad.Map(s2, MapFunc{Name: "broken", Fn: func(nested.Value) (nested.Value, error) {
		return nested.Int(1), nil // not an item
	}})
	if _, err := Run(bad, inputs, Options{}); err == nil {
		t.Error("map returning non-item must fail (τ(λ(i)) ⇒ ⟨...⟩)")
	}
}

func TestFlattenExplodesWithPositions(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	p.Flatten(src, "user_mentions", "m_user")
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	sink := newRecordingSink()
	res := runPipeline(t, p, inputs, Options{Partitions: 2, Sink: sink})
	// tweets with 3, 0, 0, 1, 1 mentions -> 5 output rows
	if res.Output.Len() != 5 {
		t.Fatalf("flatten produced %d rows, want 5", res.Output.Len())
	}
	for _, r := range res.Output.Rows() {
		m := mustAttr(t, r.Value, "m_user")
		if m.Kind() != nested.KindItem {
			t.Errorf("m_user kind = %s", m.Kind())
		}
		if _, ok := r.Value.Get("user_mentions"); !ok {
			t.Error("flatten must keep the original attributes (r = <i, a_new: j>)")
		}
	}
	// Position bookkeeping: tweet 1 contributes positions 1,2,3.
	var positions []int
	for _, a := range sink.flattens {
		positions = append(positions, a.pos)
	}
	sort.Ints(positions)
	if fmt.Sprint(positions) != "[1 1 1 2 3]" {
		t.Errorf("flatten positions = %v", positions)
	}
}

func TestFlattenRejectsNonCollection(t *testing.T) {
	p := NewPipeline()
	src := p.Source("in")
	p.Flatten(src, "text", "x")
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 1)}
	if _, err := Run(p, inputs, Options{}); err == nil {
		t.Error("flatten of a scalar must fail")
	}
}

func TestUnionTypeCheckAndConcat(t *testing.T) {
	a := []nested.Value{nested.Item(nested.F("x", nested.Int(1)))}
	b := []nested.Value{nested.Item(nested.F("x", nested.Int(2)))}
	p := NewPipeline()
	s1, s2 := p.Source("a"), p.Source("b")
	p.Union(s1, s2)
	gen := NewIDGen(1)
	inputs := map[string]*Dataset{
		"a": NewDataset("a", a, 1, gen),
		"b": NewDataset("b", b, 1, gen),
	}
	res := runPipeline(t, p, inputs, Options{})
	if res.Output.Len() != 2 {
		t.Errorf("union size = %d", res.Output.Len())
	}

	bad := []nested.Value{nested.Item(nested.F("x", nested.StringVal("s")))}
	p2 := NewPipeline()
	t1, t2 := p2.Source("a"), p2.Source("b")
	p2.Union(t1, t2)
	inputs2 := map[string]*Dataset{
		"a": NewDataset("a", a, 1, gen),
		"b": NewDataset("b", bad, 1, gen),
	}
	if _, err := Run(p2, inputs2, Options{}); err == nil {
		t.Error("union with incompatible types must fail (τ(I1) = τ(I2))")
	}
}

func TestJoinEquiJoin(t *testing.T) {
	users := []nested.Value{
		nested.Item(nested.F("uid", nested.StringVal("lp")), nested.F("uname", nested.StringVal("Lisa"))),
		nested.Item(nested.F("uid", nested.StringVal("jm")), nested.F("uname", nested.StringVal("John"))),
	}
	tweets := []nested.Value{
		nested.Item(nested.F("author", nested.StringVal("lp")), nested.F("txt", nested.StringVal("a"))),
		nested.Item(nested.F("author", nested.StringVal("lp")), nested.F("txt", nested.StringVal("b"))),
		nested.Item(nested.F("author", nested.StringVal("zz")), nested.F("txt", nested.StringVal("c"))),
	}
	p := NewPipeline()
	l, r := p.Source("users"), p.Source("tweets")
	p.Join(l, r, Col("uid"), Col("author"))
	gen := NewIDGen(1)
	inputs := map[string]*Dataset{
		"users":  NewDataset("users", users, 2, gen),
		"tweets": NewDataset("tweets", tweets, 2, gen),
	}
	res := runPipeline(t, p, inputs, Options{Partitions: 3})
	if res.Output.Len() != 2 {
		t.Fatalf("join produced %d rows, want 2", res.Output.Len())
	}
	for _, row := range res.Output.Rows() {
		if s, _ := mustAttr(t, row.Value, "uid").AsString(); s != "lp" {
			t.Errorf("join row uid = %q", s)
		}
		if row.Value.NumFields() != 4 {
			t.Errorf("join result should concat attributes, got %v", row.Value)
		}
	}
}

func TestJoinRejectsAttributeCollision(t *testing.T) {
	vals := []nested.Value{nested.Item(nested.F("k", nested.Int(1)))}
	p := NewPipeline()
	l, r := p.Source("a"), p.Source("b")
	p.Join(l, r, Col("k"), Col("k"))
	gen := NewIDGen(1)
	inputs := map[string]*Dataset{
		"a": NewDataset("a", vals, 1, gen),
		"b": NewDataset("b", vals, 1, gen),
	}
	if _, err := Run(p, inputs, Options{}); err == nil {
		t.Error("join with colliding attribute names must fail")
	}
}

func TestAggregateFunctions(t *testing.T) {
	rows := []nested.Value{
		nested.Item(nested.F("g", nested.StringVal("a")), nested.F("v", nested.Int(1))),
		nested.Item(nested.F("g", nested.StringVal("a")), nested.F("v", nested.Int(3))),
		nested.Item(nested.F("g", nested.StringVal("b")), nested.F("v", nested.Int(5))),
		nested.Item(nested.F("g", nested.StringVal("a")), nested.F("v", nested.Int(1))),
	}
	p := NewPipeline()
	src := p.Source("in")
	p.Aggregate(src, []GroupKey{Key("g")}, []AggSpec{
		Agg(AggCount, "", "n"),
		Agg(AggSum, "v", "sum"),
		Agg(AggMin, "v", "min"),
		Agg(AggMax, "v", "max"),
		Agg(AggAvg, "v", "avg"),
		Agg(AggCollectList, "v", "list"),
		Agg(AggCollectSet, "v", "set"),
	})
	inputs := map[string]*Dataset{"in": dataset(t, "in", rows, 2)}
	res := runPipeline(t, p, inputs, Options{Partitions: 2})
	if res.Output.Len() != 2 {
		t.Fatalf("aggregate produced %d groups, want 2", res.Output.Len())
	}
	byG := map[string]nested.Value{}
	for _, r := range res.Output.Rows() {
		g, _ := mustAttr(t, r.Value, "g").AsString()
		byG[g] = r.Value
	}
	a := byG["a"]
	checks := map[string]int64{"n": 3, "sum": 5, "min": 1, "max": 3}
	for attr, want := range checks {
		if got, _ := mustAttr(t, a, attr).AsInt(); got != want {
			t.Errorf("group a %s = %d, want %d", attr, got, want)
		}
	}
	if avg, _ := mustAttr(t, a, "avg").AsDouble(); avg < 1.66 || avg > 1.67 {
		t.Errorf("group a avg = %g", avg)
	}
	if l := mustAttr(t, a, "list"); l.Len() != 3 {
		t.Errorf("collect_list len = %d, want 3 (keeps duplicates)", l.Len())
	}
	if s := mustAttr(t, a, "set"); s.Len() != 2 {
		t.Errorf("collect_set len = %d, want 2 (dedups)", s.Len())
	}
}

func TestAggregateGroupsDeterministically(t *testing.T) {
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 3)}
	build := func() *Pipeline {
		p := NewPipeline()
		src := p.Source("in")
		p.Aggregate(src, []GroupKey{KeyAs("author", "user.id_str")},
			[]AggSpec{Agg(AggCollectList, "text", "texts")})
		return p
	}
	r1 := runPipeline(t, build(), inputs, Options{Partitions: 3})
	r2 := runPipeline(t, build(), inputs, Options{Partitions: 3})
	v1, v2 := valuesOf(r1.Output), valuesOf(r2.Output)
	if len(v1) != len(v2) {
		t.Fatal("nondeterministic group count")
	}
	for i := range v1 {
		if !nested.Equal(v1[i], v2[i]) {
			t.Errorf("group %d differs across runs:\n%s\n%s", i, v1[i], v2[i])
		}
	}
}

func TestValidateCatchesBadPipelines(t *testing.T) {
	empty := NewPipeline()
	if err := empty.Validate(); err == nil {
		t.Error("empty pipeline must not validate")
	}
	// Input from another pipeline.
	p1 := NewPipeline()
	s1 := p1.Source("a")
	p2 := NewPipeline()
	p2.Filter(s1, LitBool(true))
	if err := p2.Validate(); err == nil {
		t.Error("cross-pipeline input must not validate")
	}
	// Consumed sink.
	p3 := NewPipeline()
	s3 := p3.Source("a")
	f3 := p3.Filter(s3, LitBool(true))
	p3.Filter(f3, LitBool(true))
	p3.SetSink(f3)
	if err := p3.Validate(); err == nil {
		t.Error("consumed sink must not validate")
	}
}

func TestRunMissingInputFails(t *testing.T) {
	p := NewPipeline()
	p.Source("ghost")
	if _, err := Run(p, map[string]*Dataset{}, Options{}); err == nil {
		t.Error("missing input dataset must fail")
	}
}

func TestSourceAnnotatesFreshIDsPerRead(t *testing.T) {
	// Reading the same dataset through two source operators must assign two
	// disjoint sets of identifiers (the T3 double-annotation effect).
	p := NewPipeline()
	s1 := p.Source("in")
	s2 := p.Source("in")
	p.Union(s1, s2)
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 1)}
	res := runPipeline(t, p, inputs, Options{Partitions: 1})
	ids := map[int64]bool{}
	for _, src := range res.Sources {
		for _, r := range src.Rows() {
			if ids[r.ID] {
				t.Fatalf("identifier %d reused across reads", r.ID)
			}
			ids[r.ID] = true
		}
	}
	if len(ids) != 10 {
		t.Errorf("want 10 distinct source ids, got %d", len(ids))
	}
}

func TestStatsAndIntermediates(t *testing.T) {
	inputs := map[string]*Dataset{"tweets.json": dataset(t, "tweets.json", tab1(), 2)}
	res := runPipeline(t, figure1(), inputs, Options{Partitions: 2})
	if len(res.Stats) != 9 {
		t.Errorf("stats for %d ops, want 9", len(res.Stats))
	}
	if res.TotalElapsed() <= 0 {
		t.Error("TotalElapsed should be positive")
	}
	if len(res.Sources) != 2 {
		t.Errorf("sources = %d, want 2", len(res.Sources))
	}
	// union output = filtered upper (4) + flattened lower (5)
	if got := res.Stats[6].Rows; got != 9 {
		t.Errorf("union rows = %d, want 9", got)
	}
}

// recordingSink captures all events for assertions, the associations of a
// morsel by the layout of its operator's type.
type recordingSink struct {
	mu      sync.Mutex
	infos   []OpInfo
	types   map[int]OpType
	sources []int64
	unaries []struct {
		oid     int
		in, out int64
	}
	binaries []struct {
		oid       int
		l, r, out int64
	}
	flattens []struct {
		oid int
		in  int64
		pos int
		out int64
	}
	aggs []struct {
		oid int
		ins []int64
		out int64
	}
}

func newRecordingSink() *recordingSink { return &recordingSink{types: make(map[int]OpType)} }

func (s *recordingSink) StartOperator(info OpInfo, parts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.infos = append(s.infos, info)
	s.types[info.OID] = info.Type
}

// Morsel implements CaptureSink; it locks per morsel (this sink asserts
// content, not the hot path).
func (s *recordingSink) Morsel(oid, part int, base int64, n int, a Assocs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unary := func(in, out int64) {
		s.unaries = append(s.unaries, struct {
			oid     int
			in, out int64
		}{oid, in, out})
	}
	for i := range n {
		out := base + int64(i)
		switch s.types[oid] {
		case OpSource:
			s.sources = append(s.sources, out)
		case OpJoin, OpUnion:
			s.binaries = append(s.binaries, struct {
				oid       int
				l, r, out int64
			}{oid, a.In[i], a.Right[i], out})
		case OpFlatten:
			s.flattens = append(s.flattens, struct {
				oid int
				in  int64
				pos int
				out int64
			}{oid, a.In[i], int(a.Pos[i]), out})
		case OpAggregate:
			s.aggs = append(s.aggs, struct {
				oid int
				ins []int64
				out int64
			}{oid, a.Lists[i], out})
		case OpDistinct:
			for _, in := range a.Lists[i] {
				unary(in, out)
			}
		default:
			unary(a.In[i], out)
		}
	}
}

func TestCaptureEventsFigure1(t *testing.T) {
	inputs := map[string]*Dataset{"tweets.json": dataset(t, "tweets.json", tab1(), 2)}
	sink := newRecordingSink()
	runPipeline(t, figure1(), inputs, Options{Partitions: 2, Sink: sink})
	if len(sink.infos) != 9 {
		t.Fatalf("StartOperator for %d ops, want 9", len(sink.infos))
	}
	byOID := map[int]OpInfo{}
	for _, info := range sink.infos {
		byOID[info.OID] = info
	}
	// Filter (op 2): A = {retweet_cnt}, M = ∅.
	f := byOID[2]
	if len(f.Inputs) != 1 || len(f.Inputs[0].Accessed) != 1 || f.Inputs[0].Accessed[0].String() != "retweet_cnt" {
		t.Errorf("filter OpInfo = %+v", f)
	}
	if len(f.Manipulated) != 0 || f.ManipUndefined {
		t.Errorf("filter must have M = ∅: %+v", f)
	}
	// Flatten (op 5): A = {user_mentions[pos]}, M = {user_mentions[pos] -> m_user}.
	fl := byOID[5]
	if fl.Inputs[0].Accessed[0].String() != "user_mentions[pos]" {
		t.Errorf("flatten A = %v", fl.Inputs[0].Accessed)
	}
	if len(fl.Manipulated) != 1 || fl.Manipulated[0].In.String() != "user_mentions[pos]" ||
		fl.Manipulated[0].Out.String() != "m_user" {
		t.Errorf("flatten M = %+v", fl.Manipulated)
	}
	// Select 8: struct mapping id_str -> user.id_str.
	s8 := byOID[8]
	var hasStructMapping bool
	for _, m := range s8.Manipulated {
		if m.In.String() == "id_str" && m.Out.String() == "user.id_str" {
			hasStructMapping = true
		}
	}
	if !hasStructMapping {
		t.Errorf("select 8 M = %+v, missing id_str -> user.id_str", s8.Manipulated)
	}
	// Aggregate 9: A covers user and tweet; M maps tweet -> tweets[pos].
	a9 := byOID[9]
	acc := strings.Join(pathsToStrings(a9.Inputs[0].Accessed), ";")
	if !strings.Contains(acc, "user") || !strings.Contains(acc, "tweet") {
		t.Errorf("aggregate A = %v", acc)
	}
	var hasNestMapping bool
	for _, m := range a9.Manipulated {
		if m.In.String() == "tweet" && m.Out.String() == "tweets[pos]" {
			hasNestMapping = true
		}
	}
	if !hasNestMapping {
		t.Errorf("aggregate M = %+v, missing tweet -> tweets[pos]", a9.Manipulated)
	}
	// Union (op 7) records one side as -1.
	for _, b := range sink.binaries {
		if b.oid == 7 && b.l != -1 && b.r != -1 {
			t.Errorf("union association has both sides set: %+v", b)
		}
	}
	// Aggregation associations: one per group, ids count = group size.
	var aggTotal int
	for _, a := range sink.aggs {
		aggTotal += len(a.ins)
	}
	if len(sink.aggs) != 3 || aggTotal != 9 {
		t.Errorf("aggregate associations: %d groups, %d ids (want 3, 9)", len(sink.aggs), aggTotal)
	}
	// Map A/M undefined.
	mp := NewPipeline()
	src := mp.Source("tweets.json")
	mp.Map(src, MapFunc{Name: "id", Fn: func(v nested.Value) (nested.Value, error) { return v, nil }})
	sink2 := newRecordingSink()
	runPipeline(t, mp, inputs, Options{Sink: sink2})
	mi := sink2.infos[1]
	if !mi.Inputs[0].AccessUndefined || !mi.ManipUndefined {
		t.Errorf("map must capture A = M = ⊥: %+v", mi)
	}
}

func pathsToStrings(ps []path.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}
