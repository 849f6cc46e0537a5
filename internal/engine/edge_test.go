package engine

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"pebble/internal/nested"
)

// TestEmptyDatasetThroughAllOperators: every operator must handle empty
// inputs without errors or phantom rows.
func TestEmptyDatasetThroughAllOperators(t *testing.T) {
	empty := map[string]*Dataset{"in": dataset(t, "in", nil, 2)}
	builds := map[string]func() *Pipeline{
		"filter": func() *Pipeline {
			p := NewPipeline()
			p.Filter(p.Source("in"), LitBool(true))
			return p
		},
		"select": func() *Pipeline {
			p := NewPipeline()
			p.Select(p.Source("in"), Column("x", "text"))
			return p
		},
		"map": func() *Pipeline {
			p := NewPipeline()
			p.Map(p.Source("in"), MapFunc{Name: "id", Fn: func(v nested.Value) (nested.Value, error) { return v, nil }})
			return p
		},
		"flatten": func() *Pipeline {
			p := NewPipeline()
			p.Flatten(p.Source("in"), "user_mentions", "m")
			return p
		},
		"union": func() *Pipeline {
			p := NewPipeline()
			p.Union(p.Source("in"), p.Source("in"))
			return p
		},
		"join": func() *Pipeline {
			p := NewPipeline()
			p.Join(p.Source("in"), p.Source("in"), Col("a"), Col("b"))
			return p
		},
		"aggregate": func() *Pipeline {
			p := NewPipeline()
			p.Aggregate(p.Source("in"), []GroupKey{Key("text")}, []AggSpec{Agg(AggCount, "", "n")})
			return p
		},
		"distinct": func() *Pipeline {
			p := NewPipeline()
			p.Distinct(p.Source("in"))
			return p
		},
		"orderby": func() *Pipeline {
			p := NewPipeline()
			p.OrderBy(p.Source("in"), false, Col("text"))
			return p
		},
		"limit": func() *Pipeline {
			p := NewPipeline()
			p.Limit(p.Source("in"), 5)
			return p
		},
	}
	for name, build := range builds {
		res, err := Run(build(), empty, Options{Partitions: 2, Sink: newRecordingSink()})
		if err != nil {
			t.Errorf("%s over empty input: %v", name, err)
			continue
		}
		if res.Output.Len() != 0 {
			t.Errorf("%s over empty input produced %d rows", name, res.Output.Len())
		}
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	left := []nested.Value{
		nested.Item(nested.F("k", nested.Null()), nested.F("l", nested.Int(1))),
		nested.Item(nested.F("k", nested.StringVal("x")), nested.F("l", nested.Int(2))),
	}
	right := []nested.Value{
		nested.Item(nested.F("j", nested.Null()), nested.F("r", nested.Int(3))),
		nested.Item(nested.F("j", nested.StringVal("x")), nested.F("r", nested.Int(4))),
	}
	p := NewPipeline()
	l, r := p.Source("l"), p.Source("r")
	p.Join(l, r, Col("k"), Col("j"))
	gen := NewIDGen(1)
	inputs := map[string]*Dataset{
		"l": NewDataset("l", left, 1, gen),
		"r": NewDataset("r", right, 1, gen),
	}
	res := runPipeline(t, p, inputs, Options{Partitions: 2})
	if res.Output.Len() != 1 {
		t.Errorf("null keys must not join: got %d rows", res.Output.Len())
	}
}

func TestAggregateNullGroupKeyFormsOwnGroup(t *testing.T) {
	values := []nested.Value{
		nested.Item(nested.F("g", nested.StringVal("a")), nested.F("v", nested.Int(1))),
		nested.Item(nested.F("v", nested.Int(2))), // g missing -> null group
		nested.Item(nested.F("v", nested.Int(3))),
	}
	p := NewPipeline()
	p.Aggregate(p.Source("in"), []GroupKey{Key("g")}, []AggSpec{Agg(AggSum, "v", "s")})
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 2)}
	res := runPipeline(t, p, inputs, Options{Partitions: 2})
	if res.Output.Len() != 2 {
		t.Fatalf("groups = %d, want 2 (a and null)", res.Output.Len())
	}
	var nullSum int64 = -1
	for _, r := range res.Output.Rows() {
		g := mustAttr(t, r.Value, "g")
		if g.IsNull() {
			nullSum, _ = mustAttr(t, r.Value, "s").AsInt()
		}
	}
	if nullSum != 5 {
		t.Errorf("null group sum = %d, want 5", nullSum)
	}
}

func TestAggregateMultipleGroupKeys(t *testing.T) {
	values := []nested.Value{
		nested.Item(nested.F("a", nested.StringVal("x")), nested.F("b", nested.Int(1)), nested.F("v", nested.Int(10))),
		nested.Item(nested.F("a", nested.StringVal("x")), nested.F("b", nested.Int(2)), nested.F("v", nested.Int(20))),
		nested.Item(nested.F("a", nested.StringVal("x")), nested.F("b", nested.Int(1)), nested.F("v", nested.Int(30))),
	}
	p := NewPipeline()
	p.Aggregate(p.Source("in"), []GroupKey{Key("a"), Key("b")}, []AggSpec{Agg(AggSum, "v", "s")})
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 1)}
	res := runPipeline(t, p, inputs, Options{Partitions: 2})
	if res.Output.Len() != 2 {
		t.Fatalf("composite groups = %d, want 2", res.Output.Len())
	}
}

func TestAggregateErrorsOnMissingInputPath(t *testing.T) {
	p := NewPipeline()
	p.Aggregate(p.Source("in"), []GroupKey{Key("text")}, []AggSpec{Agg(AggSum, "", "s")})
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 1)}
	if _, err := Run(p, inputs, Options{}); err == nil {
		t.Error("sum without input path must fail")
	}
	p2 := NewPipeline()
	p2.Aggregate(p2.Source("in"), []GroupKey{Key("user.id_str")}, []AggSpec{Agg(AggSum, "text", "s")})
	if _, err := Run(p2, inputs, Options{}); err == nil {
		t.Error("sum over strings must fail")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	p := NewPipeline()
	p.Map(p.Source("in"), MapFunc{Name: "boom", Fn: func(v nested.Value) (nested.Value, error) {
		return nested.Value{}, errors.New("kaput")
	}})
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 3)}
	_, err := Run(p, inputs, Options{Partitions: 3})
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("map error lost: %v", err)
	}
}

func TestFilterNonBooleanPredicateFails(t *testing.T) {
	p := NewPipeline()
	p.Filter(p.Source("in"), Col("text"))
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 1)}
	if _, err := Run(p, inputs, Options{}); err == nil {
		t.Error("non-boolean filter predicate must fail")
	}
}

func TestFlattenOfSetAndNullCollection(t *testing.T) {
	values := []nested.Value{
		nested.Item(nested.F("s", nested.Set(nested.Int(1), nested.Int(2), nested.Int(2)))),
		nested.Item(nested.F("x", nested.Int(9))), // s missing -> skipped
	}
	p := NewPipeline()
	p.Flatten(p.Source("in"), "s", "e")
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 1)}
	res := runPipeline(t, p, inputs, Options{Partitions: 1})
	if res.Output.Len() != 2 {
		t.Errorf("flatten of {1,2} produced %d rows, want 2", res.Output.Len())
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := dataset(t, "in", tab1(), 2)
	if d.Len() != 5 {
		t.Errorf("Len = %d", d.Len())
	}
	if got := len(d.Rows()); got != 5 {
		t.Errorf("Rows = %d", got)
	}
	first := d.Rows()[0]
	row, ok := d.FindByID(first.ID)
	if !ok || !nested.Equal(row.Value, first.Value) {
		t.Error("FindByID broken")
	}
	if _, ok := d.FindByID(-99); ok {
		t.Error("FindByID of unknown id should fail")
	}
	if !strings.Contains(d.String(), "5 rows") {
		t.Errorf("String = %s", d)
	}
}

func TestIDGenConcurrency(t *testing.T) {
	gen := NewIDGen(100)
	const goroutines, perG = 8, 1000
	seen := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]int64, perG)
			for i := range ids {
				ids[i] = gen.Reserve(1)
			}
			seen[g] = ids
		}(g)
	}
	wg.Wait()
	all := map[int64]bool{}
	for _, ids := range seen {
		for _, id := range ids {
			if id < 100 {
				t.Fatalf("id %d below start", id)
			}
			if all[id] {
				t.Fatalf("duplicate id %d", id)
			}
			all[id] = true
		}
	}
	base := gen.Reserve(10)
	if next := gen.Reserve(1); next != base+10 {
		t.Errorf("Reserve did not advance: base=%d next=%d", base, next)
	}
}

func TestPipelinePlanString(t *testing.T) {
	plan := figure1().String()
	for _, want := range []string{"1:source(tweets.json)", "2:filter", "5:flatten(user_mentions -> m_user)", "9:aggregate", "<- [7]"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	p := NewPipeline()
	p.OrderBy(p.Filter(p.Source("in"), LitBool(true)), true, Col("v"))
	if !strings.Contains(p.String(), "orderBy(v desc)") {
		t.Errorf("extension op plan rendering: %s", p)
	}
}

// TestBroadcastJoinMatchesShuffleJoin: both strategies produce the same
// multiset of rows and equivalent provenance associations.
func TestBroadcastJoinMatchesShuffleJoin(t *testing.T) {
	var users, tweets []nested.Value
	for i := 0; i < 30; i++ {
		users = append(users, nested.Item(
			nested.F("uid", nested.StringVal(string(rune('a'+i%7)))),
			nested.F("uname", nested.Int(int64(i))),
		))
	}
	for i := 0; i < 200; i++ {
		tweets = append(tweets, nested.Item(
			nested.F("author", nested.StringVal(string(rune('a'+i%9)))),
			nested.F("txt", nested.Int(int64(i))),
		))
	}
	build := func() *Pipeline {
		p := NewPipeline()
		l, r := p.Source("users"), p.Source("tweets")
		p.Join(l, r, Col("uid"), Col("author"))
		return p
	}
	mkInputs := func() map[string]*Dataset {
		gen := NewIDGen(1)
		return map[string]*Dataset{
			"users":  NewDataset("users", users, 3, gen),
			"tweets": NewDataset("tweets", tweets, 3, gen),
		}
	}
	run := func(threshold int) []nested.Value {
		sink := newRecordingSink()
		res, err := Run(build(), mkInputs(), Options{Partitions: 3, Sink: sink, BroadcastJoinThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		// Every output row has a binary association.
		joinAssocs := 0
		for _, b := range sink.binaries {
			if b.oid == 3 {
				joinAssocs++
			}
		}
		if joinAssocs != res.Output.Len() {
			t.Fatalf("threshold=%d: %d associations for %d rows", threshold, joinAssocs, res.Output.Len())
		}
		vals := valuesOf(res.Output)
		sort.Slice(vals, func(i, j int) bool { return nested.Compare(vals[i], vals[j]) < 0 })
		return vals
	}
	broadcast := run(0) // default threshold: users side (30 rows) broadcasts
	shuffle := run(-1)  // broadcast disabled
	if len(broadcast) != len(shuffle) {
		t.Fatalf("row counts differ: %d vs %d", len(broadcast), len(shuffle))
	}
	for i := range broadcast {
		if !nested.Equal(broadcast[i], shuffle[i]) {
			t.Fatalf("row %d differs:\n%s\n%s", i, broadcast[i], shuffle[i])
		}
	}
}

// TestBroadcastJoinBacktrace: provenance captured under a broadcast join
// traces identically.
func TestBroadcastJoinBacktrace(t *testing.T) {
	// Reuse the T5 scenario shape at a scale below the broadcast threshold.
	p := NewPipeline()
	l := p.Select(p.Source("in"), Column("author_id", "user.id_str"))
	r := p.Select(p.Source("in"), Column("mentioned_id", "user.id_str"), Column("t2", "text"))
	p.Join(l, r, Col("author_id"), Col("mentioned_id"))
	inputs := map[string]*Dataset{"in": dataset(t, "in", tab1(), 2)}
	sink := newRecordingSink()
	res := runPipeline(t, p, inputs, Options{Partitions: 2, Sink: sink})
	if res.Output.Len() == 0 {
		t.Fatal("self join empty")
	}
	// The join OpInfo still records both schemas for side pruning.
	var joinInfo OpInfo
	for _, info := range sink.infos {
		if info.Type == OpJoin {
			joinInfo = info
		}
	}
	if len(joinInfo.Inputs[0].Schema) == 0 || len(joinInfo.Inputs[1].Schema) == 0 {
		t.Errorf("broadcast join lost schemas: %+v", joinInfo)
	}
}

// TestLeftJoinKeepsUnmatchedRows covers the left outer join extension.
func TestLeftJoinKeepsUnmatchedRows(t *testing.T) {
	left := []nested.Value{
		nested.Item(nested.F("k", nested.StringVal("x")), nested.F("l", nested.Int(1))),
		nested.Item(nested.F("k", nested.StringVal("y")), nested.F("l", nested.Int(2))), // unmatched
		nested.Item(nested.F("k", nested.Null()), nested.F("l", nested.Int(3))),         // null key
	}
	right := []nested.Value{
		nested.Item(nested.F("j", nested.StringVal("x")), nested.F("r", nested.Int(10))),
		nested.Item(nested.F("j", nested.StringVal("x")), nested.F("r", nested.Int(11))),
	}
	p := NewPipeline()
	l, r := p.Source("l"), p.Source("r")
	p.LeftJoin(l, r, Col("k"), Col("j"))
	gen := NewIDGen(1)
	inputs := map[string]*Dataset{
		"l": NewDataset("l", left, 2, gen),
		"r": NewDataset("r", right, 1, gen),
	}
	sink := newRecordingSink()
	res := runPipeline(t, p, inputs, Options{Partitions: 2, Sink: sink})
	// x matches twice; y and the null-key row survive unmatched: 4 rows.
	if res.Output.Len() != 4 {
		t.Fatalf("left join rows = %d, want 4:\n%v", res.Output.Len(), res.Output.Rows())
	}
	nullRights := 0
	for _, row := range res.Output.Rows() {
		rv := mustAttr(t, row.Value, "r")
		jv := mustAttr(t, row.Value, "j")
		if rv.IsNull() != jv.IsNull() {
			t.Errorf("half-null right side: %s", row.Value)
		}
		if rv.IsNull() {
			nullRights++
		}
	}
	if nullRights != 2 {
		t.Errorf("unmatched rows = %d, want 2", nullRights)
	}
	// Unmatched associations carry -1 on the right.
	minusOne := 0
	for _, b := range sink.binaries {
		if b.oid == 3 && b.r == -1 {
			minusOne++
		}
	}
	if minusOne != 2 {
		t.Errorf("-1 associations = %d, want 2", minusOne)
	}
}

// TestLeftJoinBacktrace: tracing an unmatched result row reaches only the
// left input.
func TestLeftJoinBacktrace(t *testing.T) {
	left := []nested.Value{nested.Item(nested.F("k", nested.StringVal("solo")), nested.F("l", nested.Int(1)))}
	right := []nested.Value{nested.Item(nested.F("j", nested.StringVal("other")), nested.F("r", nested.Int(2)))}
	p := NewPipeline()
	lsrc, rsrc := p.Source("l"), p.Source("r")
	p.LeftJoin(lsrc, rsrc, Col("k"), Col("j"))
	gen := NewIDGen(1)
	inputs := map[string]*Dataset{
		"l": NewDataset("l", left, 1, gen),
		"r": NewDataset("r", right, 1, gen),
	}
	sink := newRecordingSink()
	res := runPipeline(t, p, inputs, Options{Partitions: 2, Sink: sink})
	if res.Output.Len() != 1 {
		t.Fatalf("rows = %d", res.Output.Len())
	}
	// One binary association with right = -1; lineage-style forward check
	// through the recorded assoc suffices here (full backtrace covered in
	// the backtrace package).
	for _, b := range sink.binaries {
		if b.oid == 3 && (b.l == -1 || b.r != -1) {
			t.Errorf("unexpected association %+v", b)
		}
	}
}

func TestExplain(t *testing.T) {
	inputs := map[string]*Dataset{"tweets.json": dataset(t, "tweets.json", tab1(), 2)}
	res := runPipeline(t, figure1(), inputs, Options{Partitions: 2})
	out := res.Explain()
	for _, want := range []string{"op", "aggregate", "total: 3 rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}
