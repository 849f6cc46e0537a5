package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pebble/internal/core"
	"pebble/internal/corpus"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/server"
	"pebble/internal/treepattern"
	wl "pebble/internal/workload"
	"pebble/pkg/sdk"
)

// sizes are the input sizes of one preset. README.md says why each full
// size is what it is.
type sizes struct {
	Name string `json:"name"`
	// twitter_capture and dblp_capture inputs. D3 gets fewer records: its
	// co-author double flatten is super-linear.
	Tweets    int `json:"tweets"`
	Records   int `json:"records"`
	D3Records int `json:"d3_records"`
	// trace_repeat targets and point traces per round.
	TraceTweets    int `json:"trace_tweets"`
	TraceRecords   int `json:"trace_records"`
	TraceD3Records int `json:"trace_d3_records"`
	PointTraces    int `json:"point_traces"`
	// mixed_clients uploads.
	MixedTweets  int `json:"mixed_tweets"`
	MixedRecords int `json:"mixed_records"`
	// SetupReps is how often set-up is repeated for setup_s, at most.
	SetupReps int `json:"setup_reps"`
}

var sizePresets = map[string]sizes{
	"full": {
		Name: "full", Tweets: 8000, Records: 60000, D3Records: 12000,
		TraceTweets: 2500, TraceRecords: 16000, TraceD3Records: 8000, PointTraces: 20,
		MixedTweets: 4000, MixedRecords: 20000, SetupReps: 15,
	},
	"tiny": {
		Name: "tiny", Tweets: 300, Records: 2000, D3Records: 2000,
		TraceTweets: 300, TraceRecords: 2000, TraceD3Records: 2000, PointTraces: 4,
		MixedTweets: 300, MixedRecords: 2000, SetupReps: 1,
	},
}

var workloadNames = []string{"twitter_capture", "dblp_capture", "trace_repeat", "mixed_clients"}

// workloadWhy is the one-line reason each workload exists, as in
// BENCHMARK.json.
var workloadWhy = map[string]string{
	"twitter_capture": "wide nested tweets through T1-T5, plain and capture jobs alternating: flatten, collect-aggregates and nested-value copying dominate (paper Fig 6); no query-side work",
	"dblp_capture":    "narrow DBLP records through D1-D5 with joins on the shuffle path: key hashing and per-row association volume dominate (paper Fig 7); a join change shows here, barely on twitter_capture",
	"trace_repeat":    "zero pipeline jobs in the timed region: heavy and point traces against ten pre-captured targets, so reattach, match, backtrace and result encode dominate (paper Fig 9) and the engine is idle",
	"mixed_clients":   "two concurrent clients upload, run spec pipelines with capture, download and trace: the only workload with JSON-lines parse, queueing, two runners on two cores and writes beside reads",
}

// workload is one benchmark workload bound to a seed and a size. setup and
// teardown pair up and can repeat; everything else runs between them.
type workload interface {
	// setup generates the inputs from the seed, starts a daemon, and brings
	// it to the state the first timed operation expects.
	setup(ctx context.Context) error
	teardown()
	// round runs one round of client operations against the daemon. With
	// events set every job's event stream is followed too.
	round(ctx context.Context, r int, events bool) []*op
	// replay runs one round's operations through the library, layer by
	// layer, and fails every operation whose daemon answer differs from the
	// library's.
	replay(rp *replayer, ops []*op)
	// weights says how many operations of each class one round holds; only
	// listed classes count towards round_s.
	weights() map[string]int
	// artifactRatio is persisted artifact bytes per captured input row.
	artifactRatio() (float64, error)
}

// base is what every workload shares.
type base struct {
	name    string
	seed    int64
	size    sizes
	workdir string
	d       *daemon
	nextOp  int
	// artifacts holds, per operation class, the artifact bytes and input
	// rows of the class's first finished capture; later ones are identical.
	artifacts map[string][2]int64
	mu        sync.Mutex
}

func (b *base) start(pipelines map[string]server.Factory) error {
	d, err := startDaemon(filepath.Join(b.workdir, fmt.Sprintf("data-%s-%d", b.name, time.Now().UnixNano())), pipelines)
	if err != nil {
		return err
	}
	b.d = d
	return nil
}

func (b *base) teardown() {
	if b.d != nil {
		b.d.stop()
		b.d = nil
	}
}

// artifactRatio is the persisted .pbl and .idx bytes per input row, over one
// capture of every class, so it does not depend on how many rounds ran.
func (b *base) artifactRatio() (float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var bytes, rows int64
	for _, a := range b.artifacts {
		bytes += a[0]
		rows += a[1]
	}
	if rows == 0 {
		return 0, fmt.Errorf("%s: no capture finished", b.name)
	}
	return float64(bytes) / float64(rows), nil
}

func (b *base) newOp(round int, kind, class, session string) *op {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextOp++
	return &op{Class: class, ID: fmt.Sprintf("%s/%d/%s", b.name, b.nextOp, class), Round: round, Kind: kind, Session: session}
}

// captured notes the artifacts of a finished capture job over rows input rows.
func (b *base) captured(o *op, rows int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, seen := b.artifacts[o.Class]; seen || o.Err != "" {
		return
	}
	n, err := b.d.artifactBytes(o.Session, o.Info.ID)
	if err != nil {
		o.fail("%v", err)
		return
	}
	if b.artifacts == nil {
		b.artifacts = make(map[string][2]int64)
	}
	b.artifacts[o.Class] = [2]int64{n, int64(rows)}
}

// order returns a permutation of n that depends on the seed and the round.
func (b *base) order(round, n int) []int {
	return rand.New(rand.NewSource(b.seed*1000003 + int64(round))).Perm(n)
}

func (b *base) scale(tweets, records int) wl.Scale {
	return wl.Scale{SimGB: 1, TweetsPerGB: tweets, RecordsPerGB: records, Seed: b.seed}
}

// scenarioFactories serves the scenarios' pipelines over inputs generated
// once in set-up, so data generation is never inside a timed job.
func scenarioFactories(scs []wl.Scenario, inputs map[string]map[string]*engine.Dataset) map[string]server.Factory {
	f := make(map[string]server.Factory, len(scs))
	for _, sc := range scs {
		in := inputs[sc.Name]
		f[sc.Name] = server.Factory{
			Build:  buildOf(sc),
			Inputs: func(int, int) (map[string]*engine.Dataset, error) { return in, nil },
		}
	}
	return f
}

func buildOf(sc wl.Scenario) func() (*engine.Pipeline, error) {
	return func() (*engine.Pipeline, error) { return sc.Build(), nil }
}

func inputRows(in map[string]*engine.Dataset) int {
	n := 0
	for _, ds := range in {
		n += ds.Len()
	}
	return n
}

const sessionName = "bench"

// collectorOff switches the garbage collector off, after a full collection
// if collectFirst is set, until the returned function is called. The timed
// operations of the single-client workloads run like that: the collector's
// work stays outside the timed interval whatever the heap holds, so a latency
// does not depend on how much earlier operations left behind. mixed_clients
// does not use it; there the collector runs as it would.
func collectorOff(collectFirst bool) (restore func()) {
	if collectFirst {
		runtime.GC()
	}
	percent := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(percent) }
}

func newWorkload(o options) (workload, error) {
	b := &base{name: o.workload, seed: o.seed, size: o.size, workdir: o.workdir}
	switch o.workload {
	case "twitter_capture":
		return &captureWorkload{base: b, scenarios: wl.TwitterScenarios()}, nil
	case "dblp_capture":
		return &captureWorkload{base: b, scenarios: wl.DBLPScenarios()}, nil
	case "trace_repeat":
		return &traceWorkload{base: b}, nil
	case "mixed_clients":
		return &mixedWorkload{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// generate builds the scenarios' inputs: one tweets dataset, one DBLP
// dataset, and a smaller DBLP dataset for D3.
func (b *base) generate(scs []wl.Scenario, tweets, records, d3Records int) map[string]map[string]*engine.Dataset {
	parts := engine.DefaultPartitions
	var tw, db, db3 map[string]*engine.Dataset
	inputs := make(map[string]map[string]*engine.Dataset, len(scs))
	for _, sc := range scs {
		switch {
		case sc.Dataset == "twitter":
			if tw == nil {
				tw = wl.TwitterInput(b.scale(tweets, 0), parts)
			}
			inputs[sc.Name] = tw
		case sc.Name == "D3":
			if db3 == nil {
				db3 = wl.DBLPInput(b.scale(0, d3Records), parts)
			}
			inputs[sc.Name] = db3
		default:
			if db == nil {
				db = wl.DBLPInput(b.scale(0, records), parts)
			}
			inputs[sc.Name] = db
		}
	}
	return inputs
}

// --- twitter_capture, dblp_capture ---

// captureWorkload runs each scenario once plain and once under capture per
// round, through one session of one client.
type captureWorkload struct {
	*base
	scenarios []wl.Scenario
	inputs    map[string]map[string]*engine.Dataset
}

func (w *captureWorkload) setup(ctx context.Context) error {
	w.inputs = w.generate(w.scenarios, w.size.Tweets, w.size.Records, w.size.D3Records)
	return w.boot(ctx)
}

// boot starts a daemon with one session over the generated inputs.
func (w *captureWorkload) boot(ctx context.Context) error {
	if err := w.start(scenarioFactories(w.scenarios, w.inputs)); err != nil {
		return err
	}
	_, err := w.d.client.CreateSession(ctx, sdk.SessionSpec{Name: sessionName})
	return err
}

func (w *captureWorkload) weights() map[string]int {
	m := make(map[string]int, 2*len(w.scenarios))
	for _, sc := range w.scenarios {
		m["plain:"+sc.Name] = 1
		m["capture:"+sc.Name] = 1
	}
	return m
}

func (w *captureWorkload) round(ctx context.Context, r int, events bool) []*op {
	var ops []*op
	if r > 0 {
		// Every round gets a fresh daemon. Finished jobs pin their results for
		// good, and a heap that grows round by round both slows the forced
		// collections below and keeps the collector out of the timed jobs, so
		// latencies would depend on how much an earlier round leaked.
		w.teardown()
		if err := w.boot(ctx); err != nil {
			o := w.newOp(r, "pipeline", "boot", sessionName)
			o.fail("fresh daemon: %v", err)
			return []*op{o}
		}
	}
	for _, i := range w.order(r, len(w.scenarios)) {
		sc := w.scenarios[i]
		// Which of the pair goes first alternates, so neither side always
		// inherits the other's warm caches.
		for k := 0; k < 2; k++ {
			capture := (k+r)%2 == 1
			class := "plain:" + sc.Name
			if capture {
				class = "capture:" + sc.Name
			}
			o := w.newOp(r, "pipeline", class, sessionName)
			o.Scenario, o.Capture = sc.Name, capture
			restore := collectorOff(true)
			w.d.runJob(ctx, o, sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: sc.Name, Capture: &capture}, events)
			restore()
			if capture {
				w.captured(o, inputRows(w.inputs[sc.Name]))
			}
			ops = append(ops, o)
		}
	}
	return ops
}

func (w *captureWorkload) replay(rp *replayer, ops []*op) {
	rp.quiet = true
	for _, o := range ops {
		if o.Err != "" {
			continue
		}
		sc, err := wl.ByName(o.Scenario)
		if err != nil {
			o.fail("%v", err)
			continue
		}
		in := w.inputs[o.Scenario]
		end := rp.begin(o)
		if !o.Capture {
			res, err := rp.plainRun(buildOf(sc), in, true)
			end()
			if err != nil {
				o.fail("library run: %v", err)
			} else if res.Output.Len() != o.Info.ResultRows {
				o.fail("daemon returned %d rows, library %d", o.Info.ResultRows, res.Output.Len())
			}
			continue
		}
		lc, err := rp.capture(buildOf(sc), in)
		end()
		if err != nil {
			o.fail("library capture: %v", err)
			continue
		}
		if w.name == "twitter_capture" {
			// The same capture without a recorder, for the recorder's cost.
			restore := collectorOff(true)
			start := time.Now()
			if _, err := (core.Session{}).CaptureContext(rp.ctx, sc.Build(), in); err != nil {
				o.fail("library capture without recorder: %v", err)
			}
			rp.sums["_capture_norec_s"] += time.Since(start).Seconds()
			restore()
		}
		w.checkCapture(rp.ctx, o, lc)
	}
}

// checkCapture compares a daemon capture job with the library's capture of
// the same pipeline: row count and provenance bytes.
func (b *base) checkCapture(ctx context.Context, o *op, lc *libCapture) {
	if lc.result.Output.Len() != o.Info.ResultRows {
		o.fail("daemon returned %d rows, library %d", o.Info.ResultRows, lc.result.Output.Len())
		return
	}
	remote, err := b.d.client.Provenance(ctx, o.Session, o.Info.ID)
	if err != nil {
		o.fail("download provenance: %v", err)
	} else if !bytes.Equal(remote, lc.pbl) {
		o.fail("provenance bytes differ: daemon %d bytes, library %d", len(remote), len(lc.pbl))
	}
}

// --- trace_repeat ---

// pointTarget is the scenario the point traces address: its own pattern
// matches one result item that traces back to one source item.
const pointTarget = "D2"

// traceWorkload captures ten targets in set-up and then only traces.
type traceWorkload struct {
	*base
	scenarios []wl.Scenario
	inputs    map[string]map[string]*engine.Dataset
	jobs      map[string]string // scenario -> target job id
	patterns  map[string][]byte // scenario -> pattern JSON
	lib       map[string]*libCapture
}

func (w *traceWorkload) setup(ctx context.Context) error {
	w.scenarios = wl.AllScenarios()
	w.inputs = w.generate(w.scenarios, w.size.TraceTweets, w.size.TraceRecords, w.size.TraceD3Records)
	w.lib = nil
	if err := w.start(scenarioFactories(w.scenarios, w.inputs)); err != nil {
		return err
	}
	if _, err := w.d.client.CreateSession(ctx, sdk.SessionSpec{Name: sessionName}); err != nil {
		return err
	}
	w.jobs = make(map[string]string, len(w.scenarios))
	w.patterns = make(map[string][]byte, len(w.scenarios))
	for _, sc := range w.scenarios {
		pat, err := json.Marshal(sc.Pattern)
		if err != nil {
			return err
		}
		w.patterns[sc.Name] = pat
		o := w.newOp(-1, "pipeline", "target:"+sc.Name, sessionName)
		w.d.runJob(ctx, o, sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: sc.Name}, false)
		if o.Err != "" {
			return fmt.Errorf("capture target %s: %s", sc.Name, o.Err)
		}
		w.captured(o, inputRows(w.inputs[sc.Name]))
		w.jobs[sc.Name] = o.Info.ID
	}
	return nil
}

func (w *traceWorkload) weights() map[string]int {
	m := map[string]int{"point": w.size.PointTraces}
	for _, sc := range w.scenarios {
		if sc.Name != pointTarget {
			m["trace:"+sc.Name] = 1
		}
	}
	return m
}

func (w *traceWorkload) round(ctx context.Context, r int, events bool) []*op {
	var targets []string
	for _, sc := range w.scenarios {
		if sc.Name != pointTarget {
			targets = append(targets, sc.Name)
		}
	}
	for i := 0; i < w.size.PointTraces; i++ {
		targets = append(targets, pointTarget)
	}
	var ops []*op
	for _, i := range w.order(r, len(targets)) {
		name, class := targets[i], "trace:"+targets[i]
		if name == pointTarget {
			class = "point"
		}
		o := w.newOp(r, "trace", class, sessionName)
		o.Scenario, o.Target = name, w.jobs[name]
		// A point trace leaves a few MB behind and takes a third of the time
		// of the collection that would clear them, so only heavy traces
		// collect first.
		restore := collectorOff(name != pointTarget)
		w.d.runJob(ctx, o, sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: o.Target, Pattern: w.patterns[name]}, events)
		restore()
		ops = append(ops, o)
	}
	return ops
}

// libTargets captures the ten targets through the library, once, and checks
// the daemon's artifacts against them. This is library set-up, outside
// every span: the workload's own operations never run the engine.
func (w *traceWorkload) libTargets(ctx context.Context) (map[string]*libCapture, error) {
	if w.lib != nil {
		return w.lib, nil
	}
	lib := make(map[string]*libCapture, len(w.scenarios))
	for _, sc := range w.scenarios {
		lc, err := (&replayer{ctx: ctx, sums: layerSums{}}).capture(buildOf(sc), w.inputs[sc.Name])
		if err != nil {
			return nil, fmt.Errorf("library capture of %s: %v", sc.Name, err)
		}
		remote, err := w.d.client.Provenance(ctx, sessionName, w.jobs[sc.Name])
		if err != nil {
			return nil, fmt.Errorf("download provenance of %s: %v", sc.Name, err)
		}
		if !bytes.Equal(remote, lc.pbl) {
			return nil, fmt.Errorf("target %s: provenance bytes differ: daemon %d bytes, library %d", sc.Name, len(remote), len(lc.pbl))
		}
		lib[sc.Name] = lc
	}
	w.lib = lib
	return lib, nil
}

func (w *traceWorkload) replay(rp *replayer, ops []*op) {
	rp.quiet = true
	lib, err := w.libTargets(rp.ctx)
	for _, o := range ops {
		if o.Err != "" {
			continue
		}
		if err != nil {
			o.fail("%v", err)
			continue
		}
		end := rp.begin(o)
		ans, terr := rp.traceJob(lib[o.Scenario], w.patterns[o.Scenario])
		end()
		o.checkTrace(ans, terr)
	}
}

// checkTrace compares a daemon trace job with the library's trace.
func (o *op) checkTrace(ans traceAnswer, err error) {
	switch {
	case err != nil:
		o.fail("library trace: %v", err)
	case ans.matched != o.Info.Matched:
		o.fail("daemon matched %d items, library %d", o.Info.Matched, ans.matched)
	case ans.report != o.Report:
		o.fail("trace report differs between daemon and library")
	}
}

// --- mixed_clients ---

// mixedClient is one of the two concurrent clients: its session, the
// JSON-lines upload it repeats under fresh dataset names, the spec pipeline
// it runs over each upload, and its two trace questions.
type mixedClient struct {
	name     string // twitter or dblp
	session  string
	data     []byte
	rows     int
	spec     func(dataset string) ([]byte, error)
	patterns map[string][]byte // selective, broad
	cycles   int
}

type mixedWorkload struct {
	*base
	clients []*mixedClient
}

// twitterSpec is T2's shape as a wire spec: three flattens and a select of
// five dotted paths.
func twitterSpec(dataset string) ([]byte, error) {
	s := &corpus.Spec{Steps: []corpus.Step{
		{Op: corpus.StepSource, In: -1, In2: -1, Dataset: dataset},
		{Op: corpus.StepFlatten, In: 0, In2: -1, FlattenCol: "hashtags", FlattenAs: "htag"},
		{Op: corpus.StepFlatten, In: 1, In2: -1, FlattenCol: "media", FlattenAs: "med"},
		{Op: corpus.StepFlatten, In: 2, In2: -1, FlattenCol: "user_mentions", FlattenAs: "m_user"},
		{Op: corpus.StepSelect, In: 3, In2: -1, Fields: []corpus.FieldSpec{
			{Name: "text", Col: "text"}, {Name: "tag", Col: "htag.text"}, {Name: "url", Col: "med.media_url"},
			{Name: "mid", Col: "m_user.id_str"}, {Name: "mname", Col: "m_user.name"},
		}},
	}, Sink: 4}
	return json.Marshal(s)
}

// dblpSpec is D1's shape as a wire spec: two eq-filters and a select on the
// inproceedings side, a filter and a select on the proceedings side, and the
// join crossref = pkey.
func dblpSpec(dataset string) ([]byte, error) {
	eq := func(col, s string) *corpus.Pred { return &corpus.Pred{Col: col, Op: "eq", Str: s, IsStr: true} }
	s := &corpus.Spec{Steps: []corpus.Step{
		{Op: corpus.StepSource, In: -1, In2: -1, Dataset: dataset},
		{Op: corpus.StepFilter, In: 0, In2: -1, Pred: eq("record_type", "inproceedings")},
		{Op: corpus.StepFilter, In: 1, In2: -1, Pred: &corpus.Pred{Col: "year", Op: "eq", Int: 2015}},
		{Op: corpus.StepSelect, In: 2, In2: -1, Fields: []corpus.FieldSpec{
			{Name: "ikey", Col: "key"}, {Name: "ititle", Col: "title"}, {Name: "iauthors", Col: "authors"}, {Name: "crossref", Col: "crossref"},
		}},
		{Op: corpus.StepSource, In: -1, In2: -1, Dataset: dataset},
		{Op: corpus.StepFilter, In: 4, In2: -1, Pred: eq("record_type", "proceedings")},
		{Op: corpus.StepSelect, In: 5, In2: -1, Fields: []corpus.FieldSpec{
			{Name: "pkey", Col: "key"}, {Name: "ptitle", Col: "title"}, {Name: "booktitle", Col: "booktitle"},
		}},
		{Op: corpus.StepJoin, In: 3, In2: 6, JoinLeftKey: "crossref", JoinRightKey: "pkey"},
	}, Sink: 7}
	return json.Marshal(s)
}

// firstString returns the first value at the dotted path in vals for which
// keep holds on the row, so the selective patterns address an item that the
// generated data is known to hold.
func firstString(vals []nested.Value, keep func(nested.Value) bool, get func(nested.Value) (string, bool)) (string, error) {
	for _, v := range vals {
		if keep(v) {
			if s, ok := get(v); ok {
				return s, nil
			}
		}
	}
	return "", fmt.Errorf("generated data holds no item for the selective pattern")
}

func fieldString(v nested.Value, name string) (string, bool) {
	f, ok := v.Get(name)
	if !ok {
		return "", false
	}
	return f.AsString()
}

func (w *mixedWorkload) setup(ctx context.Context) error {
	tweets := wl.GenerateTwitter(w.scale(w.size.MixedTweets, 0))
	records := wl.GenerateDBLP(w.scale(0, w.size.MixedRecords))

	// Selective questions: one media URL of a tweet that survives all three
	// flattens, and one 2015 inproceedings of the hot proceedings.
	bagLen := func(v nested.Value, name string) int {
		f, _ := v.Get(name)
		return f.Len()
	}
	url, err := firstString(tweets,
		func(v nested.Value) bool {
			return bagLen(v, "hashtags") > 0 && bagLen(v, "media") > 0 && bagLen(v, "user_mentions") > 0
		},
		func(v nested.Value) (string, bool) {
			media, _ := v.Get("media")
			return fieldString(media.Elems()[0], "media_url")
		})
	if err != nil {
		return err
	}
	ikey, err := firstString(records,
		func(v nested.Value) bool {
			rt, _ := fieldString(v, "record_type")
			cr, _ := fieldString(v, "crossref")
			return rt == "inproceedings" && cr == wl.HotProceedingKey
		},
		func(v nested.Value) (string, bool) { return fieldString(v, "key") })
	if err != nil {
		return err
	}

	mk := func(name string, vals []nested.Value, spec func(string) ([]byte, error), selective, broad *treepattern.Pattern) (*mixedClient, error) {
		var buf bytes.Buffer
		if err := nested.EncodeJSONLines(&buf, vals); err != nil {
			return nil, err
		}
		c := &mixedClient{name: name, session: "bench-" + name, data: buf.Bytes(), rows: len(vals), spec: spec, patterns: map[string][]byte{}}
		for _, q := range []struct {
			name string
			pat  *treepattern.Pattern
		}{{"selective", selective}, {"broad", broad}} {
			js, err := json.Marshal(q.pat)
			if err != nil {
				return nil, err
			}
			c.patterns[q.name] = js
		}
		return c, nil
	}
	a, err := mk("twitter", tweets, twitterSpec,
		treepattern.New(treepattern.Child("url").WithEq(nested.StringVal(url))),
		treepattern.New(treepattern.Child("tag").WithEq(nested.StringVal(wl.BTSHashtag))))
	if err != nil {
		return err
	}
	b, err := mk("dblp", records, dblpSpec,
		treepattern.New(treepattern.Child("ikey").WithEq(nested.StringVal(ikey))),
		treepattern.New(treepattern.Child("pkey").WithEq(nested.StringVal(wl.HotProceedingKey))))
	if err != nil {
		return err
	}
	w.clients = []*mixedClient{a, b}
	return w.boot(ctx)
}

// boot starts a daemon with one session per client.
func (w *mixedWorkload) boot(ctx context.Context) error {
	if err := w.start(nil); err != nil {
		return err
	}
	for _, c := range w.clients {
		if _, err := w.d.client.CreateSession(ctx, sdk.SessionSpec{Name: c.session}); err != nil {
			return err
		}
	}
	return nil
}

func (w *mixedWorkload) weights() map[string]int {
	return map[string]int{"cycle:twitter": 1, "cycle:dblp": 1}
}

// cycle is one client's unit of work: upload, spec pipeline with capture,
// provenance download, one selective and one broad trace. No GC is forced
// between its operations: the other client's timed operations would pay.
func (w *mixedWorkload) cycle(ctx context.Context, c *mixedClient, r int, events bool) []*op {
	c.cycles++
	dataset := fmt.Sprintf("%s-%04d", c.name, c.cycles)
	whole := w.newOp(r, "cycle", "cycle:"+c.name, c.session)
	whole.Start = time.Now()
	ops := []*op{whole}
	step := func(kind, class string) *op {
		o := w.newOp(r, kind, class+":"+c.name, c.session)
		o.Dataset, o.Scenario = dataset, c.name
		ops = append(ops, o)
		return o
	}
	defer func() {
		whole.Latency = time.Since(whole.Start)
		for _, o := range ops[1:] {
			if o.Err != "" {
				whole.fail("%s: %s", o.Class, o.Err)
			}
		}
	}()

	up := step("upload", "upload")
	w.d.upload(ctx, up, c.data)
	if up.Err != "" {
		return ops
	}
	spec, err := c.spec(dataset)
	run := step("pipeline", "pipeline")
	run.Capture = true
	if err != nil {
		run.fail("encode spec: %v", err)
		return ops
	}
	w.d.runJob(ctx, run, sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Spec: spec}, events)
	if run.Err != "" {
		return ops
	}
	w.captured(run, c.rows)
	down := step("download", "download")
	down.Target = run.Info.ID
	down.Report = hashString(string(w.d.download(ctx, down)))
	for _, q := range []string{"selective", "broad"} {
		tr := step("trace", "trace_"+q)
		tr.Target, tr.Pattern = run.Info.ID, q
		w.d.runJob(ctx, tr, sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: run.Info.ID, Pattern: c.patterns[q]}, events)
	}
	return ops
}

// round runs one cycle of each client, concurrently, both starting together
// against a fresh daemon and a collected heap. Clients that cycle back to
// back at their own pace drift against each other, so a cycle's latency
// depends on which of the other client's operations it happens to overlap,
// and the daemon's heap grows with every pinned result, so it also depends
// on how long the run has lasted: the same code then gave cycle medians a
// quarter apart from run to run. Started together, every round asks the same
// question.
func (w *mixedWorkload) round(ctx context.Context, r int, events bool) []*op {
	if r > 0 {
		w.teardown()
		if err := w.boot(ctx); err != nil {
			o := w.newOp(r, "pipeline", "boot", "")
			o.fail("fresh daemon: %v", err)
			return []*op{o}
		}
	}
	runtime.GC()
	per := make([][]*op, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *mixedClient) {
			defer wg.Done()
			per[i] = w.cycle(ctx, c, r, events)
		}(i, c)
	}
	wg.Wait()
	var ops []*op
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops
}

func (w *mixedWorkload) replay(rp *replayer, ops []*op) {
	byName := make(map[string]*mixedClient, len(w.clients))
	for _, c := range w.clients {
		byName[c.name] = c
	}
	// A client's operations follow each other in ops, so the dataset and the
	// capture an operation needs are the last ones replayed for its client.
	datasets := make(map[string]*engine.Dataset)
	captures := make(map[string]*libCapture)
	for _, o := range ops {
		if o.Err != "" || o.Kind == "cycle" {
			continue
		}
		c := byName[o.Scenario]
		end := rp.begin(o)
		switch o.Kind {
		case "upload":
			ds, err := rp.uploadDataset(o.Dataset, c.data)
			if err != nil {
				o.fail("library parse: %v", err)
			} else if ds.Len() != o.Info.ResultRows {
				o.fail("daemon registered %d rows, library parsed %d", o.Info.ResultRows, ds.Len())
			}
			datasets[c.name] = ds
		case "pipeline":
			build := func() (*engine.Pipeline, error) {
				raw, err := c.spec(o.Dataset)
				if err != nil {
					return nil, err
				}
				var spec corpus.Spec
				if err := json.Unmarshal(raw, &spec); err != nil {
					return nil, err
				}
				return spec.Build()
			}
			in := map[string]*engine.Dataset{o.Dataset: datasets[c.name]}
			lc, err := rp.capture(build, in)
			if err != nil {
				o.fail("library capture: %v", err)
				break
			}
			captures[c.name] = lc
			// The plain run the capture is compared with; the daemon ran none.
			if _, err := rp.plainRun(build, in, false); err != nil {
				o.fail("library run: %v", err)
			}
			w.checkCapture(rp.ctx, o, lc)
		case "download":
			if lc := captures[c.name]; lc != nil && hashString(string(lc.pbl)) != o.Report {
				o.fail("downloaded provenance differs from the library's")
			}
		case "trace":
			if lc := captures[c.name]; lc != nil {
				ans, err := rp.traceJob(lc, c.patterns[o.Pattern])
				o.checkTrace(ans, err)
			}
		}
		end()
	}
}
