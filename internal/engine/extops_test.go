package engine

import (
	"testing"

	"pebble/internal/nested"
)

func kv(k string, v int64) nested.Value {
	return nested.Item(nested.F("k", nested.StringVal(k)), nested.F("v", nested.Int(v)))
}

func TestDistinctCollapsesDuplicates(t *testing.T) {
	values := []nested.Value{kv("a", 1), kv("b", 2), kv("a", 1), kv("a", 1), kv("c", 3), kv("b", 2)}
	p := NewPipeline()
	p.Distinct(p.Source("in"))
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 3)}
	sink := newRecordingSink()
	res := runPipeline(t, p, inputs, Options{Partitions: 3, Sink: sink})
	if res.Output.Len() != 3 {
		t.Fatalf("distinct kept %d rows, want 3", res.Output.Len())
	}
	// Every duplicate contributes: 6 unary associations to 3 outputs.
	perOut := map[int64]int{}
	for _, u := range sink.unaries {
		if u.oid == 2 {
			perOut[u.out]++
		}
	}
	total := 0
	for _, n := range perOut {
		total += n
	}
	if len(perOut) != 3 || total != 6 {
		t.Errorf("distinct associations: %d outputs, %d total (want 3, 6)", len(perOut), total)
	}
}

func TestDistinctDeterministic(t *testing.T) {
	values := []nested.Value{kv("x", 1), kv("y", 2), kv("x", 1), kv("z", 3)}
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 2)}
	build := func() *Pipeline {
		p := NewPipeline()
		p.Distinct(p.Source("in"))
		return p
	}
	a := valuesOf(runPipeline(t, build(), inputs, Options{Partitions: 2}).Output)
	b := valuesOf(runPipeline(t, build(), inputs, Options{Partitions: 2}).Output)
	if len(a) != len(b) {
		t.Fatal("nondeterministic distinct")
	}
	for i := range a {
		if !nested.Equal(a[i], b[i]) {
			t.Errorf("row %d differs", i)
		}
	}
}

func TestOrderBySortsTotally(t *testing.T) {
	values := []nested.Value{kv("c", 3), kv("a", 1), kv("d", 4), kv("b", 2)}
	p := NewPipeline()
	p.OrderBy(p.Source("in"), false, Col("v"))
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 3)}
	res := runPipeline(t, p, inputs, Options{Partitions: 3})
	var got []int64
	for _, r := range res.Output.Rows() {
		v, _ := mustAttr(t, r.Value, "v").AsInt()
		got = append(got, v)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("ascending order violated: %v", got)
		}
	}
	// Descending.
	p2 := NewPipeline()
	p2.OrderBy(p2.Source("in"), true, Col("v"))
	res2 := runPipeline(t, p2, inputs, Options{Partitions: 3})
	first, _ := mustAttr(t, res2.Output.Rows()[0].Value, "v").AsInt()
	if first != 4 {
		t.Errorf("descending first = %d, want 4", first)
	}
}

func TestOrderByStableOnTies(t *testing.T) {
	values := []nested.Value{kv("a", 1), kv("b", 1), kv("c", 1)}
	p := NewPipeline()
	p.OrderBy(p.Source("in"), false, Col("v"))
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 1)}
	res := runPipeline(t, p, inputs, Options{Partitions: 1})
	var ks []string
	for _, r := range res.Output.Rows() {
		k, _ := mustAttr(t, r.Value, "k").AsString()
		ks = append(ks, k)
	}
	if ks[0] != "a" || ks[1] != "b" || ks[2] != "c" {
		t.Errorf("tie order not stable: %v", ks)
	}
}

func TestLimitTakesPrefix(t *testing.T) {
	values := []nested.Value{kv("a", 1), kv("b", 2), kv("c", 3), kv("d", 4)}
	p := NewPipeline()
	ord := p.OrderBy(p.Source("in"), true, Col("v"))
	p.Limit(ord, 2)
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 2)}
	res := runPipeline(t, p, inputs, Options{Partitions: 2})
	if res.Output.Len() != 2 {
		t.Fatalf("limit kept %d rows", res.Output.Len())
	}
	top, _ := mustAttr(t, res.Output.Rows()[0].Value, "v").AsInt()
	if top != 4 {
		t.Errorf("top-2 first element = %d, want 4 (orderBy desc + limit)", top)
	}
	// Limit beyond the dataset size keeps everything.
	p2 := NewPipeline()
	p2.Limit(p2.Source("in"), 99)
	if got := runPipeline(t, p2, inputs, Options{Partitions: 2}).Output.Len(); got != 4 {
		t.Errorf("oversized limit kept %d rows", got)
	}
	// Limit 0 keeps nothing.
	p3 := NewPipeline()
	p3.Limit(p3.Source("in"), 0)
	if got := runPipeline(t, p3, inputs, Options{Partitions: 2}).Output.Len(); got != 0 {
		t.Errorf("limit 0 kept %d rows", got)
	}
}

func TestOrderByCaptureRecordsSortKeys(t *testing.T) {
	values := []nested.Value{kv("a", 2), kv("b", 1)}
	p := NewPipeline()
	p.OrderBy(p.Source("in"), false, Col("v"))
	inputs := map[string]*Dataset{"in": dataset(t, "in", values, 1)}
	sink := newRecordingSink()
	runPipeline(t, p, inputs, Options{Partitions: 1, Sink: sink})
	info := sink.infos[1]
	if len(info.Inputs[0].Accessed) != 1 || info.Inputs[0].Accessed[0].String() != "v" {
		t.Errorf("orderBy accessed paths = %v, want [v]", info.Inputs[0].Accessed)
	}
	if len(info.Manipulated) != 0 {
		t.Errorf("orderBy must not manipulate structure")
	}
}
