package engine_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// captured is what a run must share with the reference executor, byte for
// byte: rows and ids of the output and of every source, every operator's row
// count, and the encoded provenance.
type captured struct {
	rows string
	pbl  []byte
	err  string
}

func capture(run func(engine.Options) (*engine.Result, error), opts engine.Options) captured {
	c := provenance.NewCollector()
	opts.Sink = c
	res, err := run(opts)
	if err != nil {
		return captured{err: err.Error()}
	}
	var sb strings.Builder
	render := func(name string, d *engine.Dataset) {
		for part, rows := range d.Partitions {
			for _, r := range rows {
				fmt.Fprintf(&sb, "%s[%d] %d: %s\n", name, part, r.ID, r.Value)
			}
		}
	}
	for _, s := range res.Stats {
		fmt.Fprintf(&sb, "op %d %s: %d rows\n", s.OID, s.Type, s.Rows)
		if src := res.Sources[s.OID]; src != nil {
			render(fmt.Sprint("source ", s.OID), src)
		}
	}
	render("output", res.Output)
	prov, err := c.Finish()
	if err != nil {
		return captured{err: "finish: " + err.Error()}
	}
	var pbl bytes.Buffer
	if _, err := prov.WriteTo(&pbl); err != nil {
		return captured{err: "encode: " + err.Error()}
	}
	return captured{rows: sb.String(), pbl: pbl.Bytes()}
}

// requireReference runs one plan through the reference executor and through
// the engine at 1, 2 and 4 workers and requires equal rows, ids, provenance
// bytes — or the same error; it reports whether the plan ran.
func requireReference(t *testing.T, name string, build func() *engine.Pipeline, inputs func() map[string]*engine.Dataset, opts engine.Options) bool {
	t.Helper()
	want := capture(func(o engine.Options) (*engine.Result, error) { return engine.RunReference(build(), inputs(), o) }, opts)
	for _, workers := range []int{1, 2, 4} {
		opts.Workers = workers
		got := capture(func(o engine.Options) (*engine.Result, error) { return engine.Run(build(), inputs(), o) }, opts)
		switch {
		case got.err != want.err:
			t.Fatalf("%s workers %d: error %q, the reference's %q", name, workers, got.err, want.err)
		case got.rows != want.rows:
			t.Fatalf("%s workers %d: rows or ids differ from the reference's:\n%s\nwant\n%s", name, workers, cut(got.rows), cut(want.rows))
		case !bytes.Equal(got.pbl, want.pbl):
			t.Fatalf("%s workers %d: %d provenance bytes differ from the reference's %d", name, workers, len(got.pbl), len(want.pbl))
		}
	}
	return want.err == ""
}

func cut(s string) string {
	if len(s) > 600 {
		return s[:600] + "…"
	}
	return s
}

// TestScenariosAndCorpusMatchReference: the ten scenarios and the 240 corpus
// seeds come out of the stage executor as they come out of the
// operator-at-a-time reference, with every recycled stage scratch overwritten
// by a sentinel after every morsel.
func TestScenariosAndCorpusMatchReference(t *testing.T) {
	engine.PoisonScratch(t)
	for _, sc := range workload.AllScenarios() {
		requireReference(t, sc.Name, sc.Build,
			func() map[string]*engine.Dataset { return sc.Input(workload.DefaultScale(1), 4) },
			engine.Options{Partitions: 4})
	}
	failed := 0
	for seed := int64(1); seed <= 240; seed++ {
		spec := corpus.Generate(seed)
		if _, err := spec.Build(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		build := func() *engine.Pipeline {
			p, _ := spec.Build()
			return p
		}
		opts := spec.ExecOptions(engine.Options{Partitions: 3})
		if !requireReference(t, fmt.Sprint("seed ", seed), build, func() map[string]*engine.Dataset { return spec.Inputs(3) }, opts) {
			failed++
		}
	}
	if failed > 60 {
		t.Errorf("%d of 240 corpus plans fail: the corpus no longer exercises the executor", failed)
	}
}

// TestColumnFilterRecordsBothOperands: D3's co-author filter compares two
// columns (a1.id != a2.id); the captured operator records both as accessed,
// or a trace through it would drop the attribute that decided the pair.
func TestColumnFilterRecordsBothOperands(t *testing.T) {
	sc, err := workload.ByName("D3")
	if err != nil {
		t.Fatal(err)
	}
	p := sc.Build()
	c := provenance.NewCollector()
	inputs := workload.DBLPInput(workload.Scale{SimGB: 1, RecordsPerGB: 200, Seed: 42}, 2)
	if _, err := engine.Run(p, inputs, engine.Options{Sink: c}); err != nil {
		t.Fatal(err)
	}
	run, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var filters int
	for _, o := range p.Ops() {
		if o.Type() != engine.OpFilter || !strings.Contains(o.String(), "a2.id") {
			continue
		}
		filters++
		op, ok := run.Op(o.ID())
		if !ok {
			t.Fatalf("%s captured no provenance", o)
		}
		var acc []string
		for _, a := range op.Inputs[0].Accessed {
			acc = append(acc, a.String())
		}
		if got := strings.Join(acc, ", "); got != "a1.id, a2.id" {
			t.Errorf("%s accessed [%s], want [a1.id, a2.id]", o, got)
		}
	}
	if filters != 1 {
		t.Fatalf("D3 has %d filters over a2.id, want 1", filters)
	}
}
