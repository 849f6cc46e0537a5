package corpus

import (
	"encoding/json"
	"reflect"
	"testing"

	"pebble/internal/engine"
)

// Every generated spec must build into a valid pipeline and run cleanly.
func TestGeneratedSpecsBuildAndRun(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		s := Generate(seed)
		p, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		res, err := engine.Run(p, s.Inputs(4), engine.Options{Partitions: 4})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		_ = res
		// The pattern must compile too.
		if s.Pattern != nil {
			s.Pattern.Compile()
		}
	}
}

// Generation is a pure function of the seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Fatalf("seed %d: non-deterministic generation", seed)
		}
	}
}

// The corpus covers every operator kind within a modest seed range.
func TestGeneratorCoversAllOperators(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 400; seed++ {
		for _, st := range Generate(seed).Steps {
			seen[st.Op] = true
		}
	}
	for _, op := range []string{
		StepSource, StepFilter, StepSelect, StepFlatten, StepAggregate,
		StepUnion, StepJoin, StepDistinct, StepOrderBy, StepLimit,
	} {
		if !seen[op] {
			t.Errorf("operator %q never generated in 400 seeds", op)
		}
	}
}

// JSON round-trip: a spec survives serialize → parse → serialize.
func TestSpecJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		s := Generate(seed)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("seed %d: re-marshal: %v", seed, err)
		}
		if string(data) != string(again) {
			t.Fatalf("seed %d: round-trip mismatch", seed)
		}
		// The rebuilt spec must produce identical results.
		want := mustRun(t, s)
		got := mustRun(t, &back)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: rebuilt spec produced different output", seed)
		}
	}
}

func mustRun(t *testing.T, s *Spec) []string {
	t.Helper()
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, s.Inputs(4), engine.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Output.Values()))
	for _, v := range res.Output.Values() {
		out = append(out, v.String())
	}
	return out
}

// A step in the retired single-aggregate spelling decodes with no groupBys
// and no aggs, and Build refuses it by index instead of running it.
func TestBuildRejectsLegacyAggregate(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"steps":[{"op":"source","in":-1,"in2":-1,"dataset":"in"},`+
		`{"op":"aggregate","in":0,"in2":-1,"groupBy":"cat","aggFn":"max","aggIn":"val","aggOut":"agg_out"}],"sink":1}`), &s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil || err.Error() != "corpus: step 1: aggregate needs groupBys and aggs" {
		t.Fatalf("Build = %v, want the step 1 aggregate error", err)
	}
}

// Dropping any droppable step must leave a buildable, runnable spec.
func TestDropStepKeepsSpecsWellFormed(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		s := Generate(seed)
		for i := range s.Steps {
			c, ok := s.DropStep(i)
			if !ok {
				continue
			}
			p, err := c.Build()
			if err != nil {
				t.Fatalf("seed %d drop %d: build: %v", seed, i, err)
			}
			if _, err := engine.Run(p, c.Inputs(4), engine.Options{Partitions: 4}); err != nil {
				t.Fatalf("seed %d drop %d: run: %v", seed, i, err)
			}
		}
	}
}
