// Package experiments implements the evaluation harness of Sec. 7.3: one
// function per table/figure of the paper, each regenerating the same
// rows/series the paper reports. Absolute numbers differ from the paper's
// Spark cluster (this is an in-process engine over synthetic data); the
// shapes — who wins, by what factor, where overhead concentrates — are the
// reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/lazy"
	"pebble/internal/lineage"
	"pebble/internal/nested"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// Config controls the harness.
type Config struct {
	// Partitions is the logical data parallelism (default
	// engine.DefaultPartitions). It fixes identifiers and grouping order,
	// not the physical fan-out.
	Partitions int
	// Workers is the physical worker-goroutine count (0 = NumCPU). Results
	// are identical for every value; only wall time changes.
	Workers int
	// Reps is the number of measured repetitions per data point (default 5);
	// the paper averages five runs framed by warm-up/cool-down. This harness
	// reports medians, which resist GC and scheduler spikes better at
	// sub-second runtimes.
	Reps int
	// Warmup runs one unmeasured repetition first (default true via Reps>0).
	Warmup bool
}

func (c Config) withDefaults() Config {
	if c.Partitions < 1 {
		c.Partitions = engine.DefaultPartitions
	}
	if c.Reps < 1 {
		c.Reps = 5
	}
	return c
}

func (c Config) options() engine.Options {
	return engine.Options{Partitions: c.Partitions, Workers: c.Workers}
}

// timeIt measures fn over reps repetitions (plus optional warm-up) and
// returns the average duration.
func timeIt(cfg Config, fn func() error) (time.Duration, error) {
	if cfg.Warmup {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	samples := make([]time.Duration, 0, cfg.Reps)
	for i := 0; i < cfg.Reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(start))
	}
	return median(samples), nil
}

// median returns the middle sample (lower of the two for even counts).
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[(len(samples)-1)/2]
}

// measurePair measures two alternatives interleaved per round (warm-up run
// for both first), so allocator and scheduler drift cancels out between
// them. It returns the average durations.
func measurePair(cfg Config, a, b func() error) (time.Duration, time.Duration, error) {
	if err := a(); err != nil {
		return 0, 0, err
	}
	if err := b(); err != nil {
		return 0, 0, err
	}
	sa := make([]time.Duration, 0, cfg.Reps)
	sb := make([]time.Duration, 0, cfg.Reps)
	for i := 0; i < cfg.Reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := a(); err != nil {
			return 0, 0, err
		}
		sa = append(sa, time.Since(start))
		runtime.GC()
		start = time.Now()
		if err := b(); err != nil {
			return 0, 0, err
		}
		sb = append(sb, time.Since(start))
	}
	return median(sa), median(sb), nil
}

// OverheadRow is one bar pair of Figs. 6/7: plain execution vs execution
// with structural provenance capture.
type OverheadRow struct {
	Scenario    string
	SimGB       int
	Spark       time.Duration // without provenance
	Pebble      time.Duration // with structural capture
	OverheadPct float64
}

// CaptureOverhead measures the capture runtime overhead of one scenario at
// one scale (Figs. 6 and 7).
func CaptureOverhead(sc workload.Scenario, scale workload.Scale, cfg Config) (OverheadRow, error) {
	cfg = cfg.withDefaults()
	inputs := sc.Input(scale, cfg.Partitions)
	plain, withCapture, err := measurePair(cfg,
		func() error {
			_, err := engine.Run(sc.Build(), inputs, cfg.options())
			return err
		},
		func() error {
			_, _, err := provenance.Capture(sc.Build(), inputs, cfg.options())
			return err
		})
	if err != nil {
		return OverheadRow{}, err
	}
	row := OverheadRow{Scenario: sc.Name, SimGB: scale.SimGB, Spark: plain, Pebble: withCapture}
	if plain > 0 {
		row.OverheadPct = 100 * float64(withCapture-plain) / float64(plain)
	}
	return row, nil
}

// SizeRow is one stacked bar of Fig. 8: the lineage share and the structural
// extra of the captured provenance.
type SizeRow struct {
	Scenario        string
	SimGB           int
	LineageBytes    int64
	StructuralExtra int64
}

// TotalBytes returns the full provenance size.
func (r SizeRow) TotalBytes() int64 { return r.LineageBytes + r.StructuralExtra }

// ProvenanceSize measures the space captured for one scenario (Fig. 8).
func ProvenanceSize(sc workload.Scenario, scale workload.Scale, cfg Config) (SizeRow, error) {
	cfg = cfg.withDefaults()
	inputs := sc.Input(scale, cfg.Partitions)
	_, run, err := provenance.Capture(sc.Build(), inputs, cfg.options())
	if err != nil {
		return SizeRow{}, err
	}
	s := run.Sizes()
	return SizeRow{
		Scenario:        sc.Name,
		SimGB:           scale.SimGB,
		LineageBytes:    s.LineageBytes,
		StructuralExtra: s.StructuralExtra,
	}, nil
}

// QueryRow is one bar pair of Fig. 9: eager (holistic) vs fully lazy
// provenance query time.
type QueryRow struct {
	Scenario string
	SimGB    int
	Eager    time.Duration
	Lazy     time.Duration
	Factor   float64 // lazy / eager
	Items    int     // traced input items (sanity)
}

// QueryTimes measures eager vs lazy structural provenance querying for one
// scenario (Fig. 9). The eager time covers tree-pattern matching plus
// backtracing over previously captured provenance; the lazy time includes
// the per-input capture re-executions PROVision-style querying needs.
func QueryTimes(sc workload.Scenario, scale workload.Scale, cfg Config) (QueryRow, error) {
	cfg = cfg.withDefaults()
	inputs := sc.Input(scale, cfg.Partitions)
	// Eager: capture once up front (that cost belongs to Figs. 6/7).
	pipe := sc.Build()
	res, run, err := provenance.Capture(pipe, inputs, cfg.options())
	if err != nil {
		return QueryRow{}, err
	}
	items := 0
	eager, err := timeIt(cfg, func() error {
		b := sc.Pattern.Match(res.Output)
		traced, err := backtrace.Trace(run, pipe.Sink().ID(), b)
		if err != nil {
			return err
		}
		items = 0
		for _, s := range traced.BySource {
			items += s.Len()
		}
		return nil
	})
	if err != nil {
		return QueryRow{}, err
	}
	lazyT, err := timeIt(cfg, func() error {
		_, _, err := lazy.Query(sc.Build, inputs, sc.Pattern, cfg.options())
		return err
	})
	if err != nil {
		return QueryRow{}, err
	}
	row := QueryRow{Scenario: sc.Name, SimGB: scale.SimGB, Eager: eager, Lazy: lazyT, Items: items}
	if eager > 0 {
		row.Factor = float64(lazyT) / float64(eager)
	}
	return row, nil
}

// TitianRow is one system of the Sec. 7.3.4 comparison.
type TitianRow struct {
	System      string
	Base        time.Duration
	WithCapture time.Duration
	OverheadPct float64
}

// TitianComparison reproduces Sec. 7.3.4: a flat workload (DBLP records as
// single long string values; filter lines containing "2015"; union of the
// articles and inproceedings subsets) run under Titian-style lineage capture
// and under Pebble's structural capture. Both overheads are small and
// Pebble's is only marginally larger (the paper measures 5.89% vs 6.98%).
func TitianComparison(scale workload.Scale, cfg Config) ([]TitianRow, error) {
	cfg = cfg.withDefaults()
	inputs := FlatDBLPInputs(scale, cfg.Partitions)
	build := FlatPipeline

	runBase := func() error {
		_, err := engine.Run(build(), inputs, cfg.options())
		return err
	}
	runTitian := func() error {
		_, _, err := lineage.Capture(build(), inputs, cfg.options())
		return err
	}
	runPebble := func() error {
		_, _, err := provenance.Capture(build(), inputs, cfg.options())
		return err
	}
	// Warm up all three paths, then measure them interleaved per round so
	// allocator and scheduler drift cancels out across the systems.
	for _, fn := range []func() error{runBase, runTitian, runPebble} {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	var sBase, sTitian, sPebble []time.Duration
	for i := 0; i < cfg.Reps; i++ {
		for _, m := range []struct {
			fn  func() error
			acc *[]time.Duration
		}{{runBase, &sBase}, {runTitian, &sTitian}, {runPebble, &sPebble}} {
			runtime.GC()
			start := time.Now()
			if err := m.fn(); err != nil {
				return nil, err
			}
			*m.acc = append(*m.acc, time.Since(start))
		}
	}
	base := median(sBase)
	titian := median(sTitian)
	pebbleT := median(sPebble)
	pct := func(d time.Duration) float64 {
		if base <= 0 {
			return 0
		}
		return 100 * float64(d-base) / float64(base)
	}
	return []TitianRow{
		{System: "Titian", Base: base, WithCapture: titian, OverheadPct: pct(titian)},
		{System: "Pebble", Base: base, WithCapture: pebbleT, OverheadPct: pct(pebbleT)},
	}, nil
}

// FlatDBLPInputs renders the DBLP articles and inproceedings as flat
// single-string records, the RDD-of-strings representation of Sec. 7.3.4.
func FlatDBLPInputs(scale workload.Scale, parts int) map[string]*engine.Dataset {
	recs := workload.GenerateDBLP(scale)
	gen := engine.NewIDGen(1)
	var artLines, inLines []nested.Value
	for _, r := range recs {
		rt, _ := r.Get("record_type")
		s, _ := rt.AsString()
		switch s {
		case "article":
			artLines = append(artLines, lineItem(r))
		case "inproceedings":
			inLines = append(inLines, lineItem(r))
		}
	}
	return map[string]*engine.Dataset{
		"articles.flat":      engine.NewDataset("articles.flat", artLines, parts, gen),
		"inproceedings.flat": engine.NewDataset("inproceedings.flat", inLines, parts, gen),
	}
}

// lineItem renders a record as one flat string attribute, mimicking reading
// raw dblp.xml lines into an RDD of strings.
func lineItem(r nested.Value) nested.Value {
	return nested.Item(nested.F("line", nested.StringVal(r.String())))
}

// identityMap is the opaque no-op UDF used by the map micro-benchmark.
func identityMap(v nested.Value) (nested.Value, error) { return v, nil }

// FlatPipeline builds the Sec. 7.3.4 comparison pipeline: filter lines
// containing "2015" on both flat inputs, then union.
func FlatPipeline() *engine.Pipeline {
	p := engine.NewPipeline()
	arts := p.Source("articles.flat")
	fa := p.Filter(arts, engine.Contains(engine.Col("line"), engine.LitString("2015")))
	ins := p.Source("inproceedings.flat")
	fi := p.Filter(ins, engine.Contains(engine.Col("line"), engine.LitString("2015")))
	p.Union(fa, fi)
	return p
}

// OpOverheadRow is one per-operator overhead measurement (the per-operator
// analysis described in Sec. 7.3.1's text).
type OpOverheadRow struct {
	Operator    string
	Spark       time.Duration
	Pebble      time.Duration
	OverheadPct float64
}

// PerOperatorOverhead measures the capture overhead of each operator in
// isolation over Twitter data. The paper's finding: constant-annotation
// operators (filter, select, union, join, flatten) stay moderate while
// aggregations — which store a collection of all contributing identifiers —
// show the highest relative overhead.
func PerOperatorOverhead(scale workload.Scale, cfg Config) ([]OpOverheadRow, error) {
	cfg = cfg.withDefaults()
	inputs := workload.TwitterInput(scale, cfg.Partitions)
	var out []OpOverheadRow
	for _, m := range MicroPipelines() {
		plain, withCapture, err := measurePair(cfg,
			func() error {
				_, err := engine.Run(m.Build(), inputs, cfg.options())
				return err
			},
			func() error {
				_, _, err := provenance.Capture(m.Build(), inputs, cfg.options())
				return err
			})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		row := OpOverheadRow{Operator: m.Name, Spark: plain, Pebble: withCapture}
		if plain > 0 {
			row.OverheadPct = 100 * float64(withCapture-plain) / float64(plain)
		}
		out = append(out, row)
	}
	return out, nil
}

// MicroPipeline is a one-operator pipeline for per-operator measurements.
type MicroPipeline struct {
	Name  string
	Build func() *engine.Pipeline
}

// MicroPipelines returns one micro pipeline per supported operator over the
// Twitter input.
func MicroPipelines() []MicroPipeline {
	return []MicroPipeline{
		{"filter", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Filter(p.Source("tweets.json"), engine.Eq(engine.Col("retweet_cnt"), engine.LitInt(0)))
			return p
		}},
		{"select", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Select(p.Source("tweets.json"),
				engine.Column("text", "text"), engine.Column("id", "user.id_str"))
			return p
		}},
		{"map", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Map(p.Source("tweets.json"), engine.MapFunc{Name: "id", Fn: identityMap})
			return p
		}},
		{"flatten", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Flatten(p.Source("tweets.json"), "user_mentions", "m_user")
			return p
		}},
		{"union", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Union(p.Source("tweets.json"), p.Source("tweets.json"))
			return p
		}},
		{"join", func() *engine.Pipeline {
			p := engine.NewPipeline()
			l := p.Select(p.Source("tweets.json"), engine.Column("lid", "user.id_str"), engine.Column("ltext", "text"))
			r := p.Select(p.Source("tweets.json"), engine.Column("rid", "user.id_str"))
			p.Join(l, r, engine.Col("lid"), engine.Col("rid"))
			return p
		}},
		{"aggregate", func() *engine.Pipeline {
			p := engine.NewPipeline()
			p.Aggregate(p.Source("tweets.json"),
				[]engine.GroupKey{engine.KeyAs("lang", "lang")},
				[]engine.AggSpec{engine.Agg(engine.AggCollectList, "text", "texts")})
			return p
		}},
	}
}

// AnnotationRow compares annotation counts per strategy (the Sec. 2
// argument: Lipstick annotates every nested value — 35 annotations on the
// five tweets of Tab. 1 — while structural provenance annotates top-level
// items only, 5).
type AnnotationRow struct {
	Strategy    string
	Annotations int64
}

// AnnotationComparison counts the annotations each strategy would attach to
// the given dataset: one per top-level item for Pebble/Titian vs one per
// value (items, nested items, collection elements, and constants) for
// Lipstick-style models.
func AnnotationComparison(values []nested.Value) []AnnotationRow {
	var topLevel, every int64
	for _, v := range values {
		topLevel++
		every += countValues(v)
	}
	return []AnnotationRow{
		{Strategy: "Pebble/Titian (top-level only)", Annotations: topLevel},
		{Strategy: "Lipstick (every value)", Annotations: every},
	}
}

// countValues counts the annotations of one top-level item the way the
// paper's Tab. 1 superscripts do: one for the item itself plus one per
// constant anywhere inside it (35 across the five example tweets).
func countValues(v nested.Value) int64 {
	return 1 + countConstants(v)
}

func countConstants(v nested.Value) int64 {
	switch v.Kind() {
	case nested.KindItem:
		var n int64
		for i := 0; i < v.NumFields(); i++ {
			n += countConstants(v.FieldValue(i))
		}
		return n
	case nested.KindBag, nested.KindSet:
		var n int64
		for _, e := range v.Elems() {
			n += countConstants(e)
		}
		return n
	default:
		return 1
	}
}

// RenderAnnotations renders the annotation comparison.
func RenderAnnotations(title string, rows []AnnotationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-32s %14s\n", title, "strategy", "annotations")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-32s %14d\n", r.Strategy, r.Annotations)
	}
	if len(rows) == 2 && rows[0].Annotations > 0 {
		fmt.Fprintf(&sb, "ratio: %.1fx\n", float64(rows[1].Annotations)/float64(rows[0].Annotations))
	}
	return sb.String()
}
