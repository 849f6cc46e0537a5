package oracle

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"pebble/internal/corpus"
	"pebble/internal/engine"
)

// fuzzConfig keeps per-input cost low: the fuzzer explores many seeds, so
// two worker counts suffice (the deterministic corpus covers NumCPU).
func fuzzConfig() Config {
	return Config{Partitions: 3, Workers: []int{1, 2}}
}

// FuzzCheckSpec drives the full differential oracle from a fuzzed seed:
// any disagreement between the four capture modes across worker counts is
// a crash. Seeded from the committed corpus range.
func FuzzCheckSpec(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if d := CheckSpec(corpus.Generate(seed), fuzzConfig()); d != nil {
			t.Fatalf("%v", d)
		}
	})
}

// FuzzSpecJSON feeds arbitrary bytes through the spec codec: inputs that
// parse must rebuild and execute without panicking, and re-marshal to bytes
// that parse and re-marshal to themselves; parse failures must be reported
// as errors, never as crashes. Seeded with generated specs, a committed
// reproducer, and a rowless wire spec over a registered dataset.
func FuzzSpecJSON(f *testing.F) {
	for _, seed := range []int64{0, 2, 3, 6, 7} {
		data, err := json.Marshal(corpus.Generate(seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	repro, _, err := readRepro(filepath.Join("testdata", "seed-881.json"))
	if err != nil {
		f.Fatal(err)
	}
	data, err := json.Marshal(repro)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"seed":0,"rows":null,"steps":[{"op":"source","in":-1,"in2":-1,"dataset":"tweets"},` +
		`{"op":"flatten","in":0,"in2":-1,"flattenCol":"hashtags","flattenAs":"htag"},` +
		`{"op":"select","in":1,"in2":-1,"fields":[{"name":"text","col":"text"},{"name":"tag","col":"htag.text"}]}],"sink":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s corpus.Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		again, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("re-marshal of parsed spec failed: %v", err)
		}
		var back corpus.Spec
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if twice, err := json.Marshal(&back); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("re-marshal is not byte-identical (%v):\n%s\n%s", err, again, twice)
		}
		// Bound the work per input: chained self-unions double multiplicity
		// per step, so unconstrained fuzzed plans can explode exponentially.
		if len(s.Steps) > 8 || len(s.Rows) > 100 || len(s.Aux) > 100 {
			return
		}
		p, err := s.Build()
		if err != nil {
			return
		}
		_, _ = engine.Run(p, s.Inputs(2), s.ExecOptions(engine.Options{Partitions: 2}))
	})
}
