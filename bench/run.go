package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// opSummary sets one traced operation's client-observed latency beside the
// sum of its library layer spans; the residual is what the daemon adds
// (HTTP, polling, file I/O, glue).
type opSummary struct {
	ID        string  `json:"id"`
	Class     string  `json:"class"`
	LatencyS  float64 `json:"latency_s"`
	LayerSumS float64 `json:"layer_sum_s"`
	ResidualS float64 `json:"residual_s"`
}

// runOne is one measured run of one workload: repeated set-up for setup_s,
// then either untraced rounds for the end-to-end metrics or traced rounds
// with their library replay for the per-layer metrics.
func runOne(ctx context.Context, o options) (*runResult, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: o.workload, Traced: o.trace, Seed: o.seed, Seconds: o.seconds}
	if o.workload == "mixed_clients" && runtime.GOMAXPROCS(0) < 2 {
		res.Unresolved = true
		res.Notes = append(res.Notes, fmt.Sprintf("GOMAXPROCS=%d: two clients on one processor measure the scheduler, so mixed_clients is unresolved", runtime.GOMAXPROCS(0)))
	}

	// Set-up repeats at least three times and until it has taken 2.5 s or
	// run SetupReps times: a set-up of a tenth of a second needs more samples
	// for a steady median than one of a second.
	var setups []float64
	reps := o.size.SetupReps
	for total := 0.0; len(setups) < min(3, reps) || (len(setups) < reps && total < 2.5); {
		if len(setups) > 0 {
			w.teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	defer w.teardown()

	if o.trace {
		err = runTraced(ctx, w, o, res)
	} else {
		err = runUntraced(ctx, w, o, res, setups)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// tally counts the run's operations and the failed ones into res. A
// mixed_clients cycle is the sum of its operations, not one more.
func tally(res *runResult, ops []*op) {
	for _, x := range ops {
		if x.Kind == "cycle" {
			continue
		}
		res.Attempted++
		if x.Err != "" {
			res.Failed++
			res.Failures = append(res.Failures, x.ID+": "+x.Err)
		}
	}
}

// runUntraced measures for o.seconds with tracing off, then replays the
// first round through the library to check the daemon's answers, and checks
// every later round against the first.
func runUntraced(ctx context.Context, w workload, o options, res *runResult, setups []float64) error {
	// The clock runs only while rounds do; the library replay that checks the
	// first round's answers is not part of the measured time.
	var (
		ops  []*op
		wall float64
	)
	for r := 0; r == 0 || wall < o.seconds; r++ {
		start := time.Now()
		round := w.round(ctx, r, false)
		wall += time.Since(start).Seconds()
		if r == 0 {
			w.replay(&replayer{ctx: ctx, sums: layerSums{}}, round)
		}
		ops = append(ops, round...)
		res.Rounds = r + 1
	}
	checkRepeats(ops)

	tally(res, ops)

	ratio, err := w.artifactRatio()
	if err != nil {
		return err
	}
	c := collect(ops, w.weights())
	name := res.Workload
	res.Rows = append(res.Rows,
		newRow(contractEndToEnd[0], name, median(setups), setups, true),
		newRow(contractEndToEnd[1], name, c.sweep(""), c.roundSums(""), true),
		newRow(contractEndToEnd[2], name, ratio, nil, true),
	)
	def := func(n string) metricDef {
		for _, d := range clientMetrics {
			if d.Name == n {
				return d
			}
		}
		panic("unknown client metric " + n)
	}
	add := func(n string, value float64, samples []float64) {
		res.Rows = append(res.Rows, newRow(def(n), name, value, samples, false))
	}
	add("wall_s", wall/float64(res.Rounds), nil)
	switch name {
	case "twitter_capture", "dblp_capture":
		add("plain_sweep_s", c.sweep("plain:"), c.roundSums("plain:"))
		add("capture_sweep_s", c.sweep("capture:"), c.roundSums("capture:"))
	case "trace_repeat":
		add("trace_sweep_s", c.sweep("trace:"), c.roundSums("trace:"))
		pts := append([]float64(nil), c.byClass["point"]...)
		sort.Float64s(pts)
		add("trace_point_p50_s", quantile(pts, 0.5), pts)
		add("trace_point_p95_s", quantile(pts, 0.95), pts)
	case "mixed_clients":
		add("cycle_twitter_p50_s", median(c.byClass["cycle:twitter"]), c.byClass["cycle:twitter"])
		add("cycle_dblp_p50_s", median(c.byClass["cycle:dblp"]), c.byClass["cycle:dblp"])
		var bytes, secs float64
		for _, x := range ops {
			if x.Kind == "upload" && x.Err == "" {
				bytes += float64(x.Bytes)
				secs += x.Latency.Seconds()
			}
		}
		add("upload_mb_per_s", bytes/1e6/secs, nil)
	}
	add("failed_ops_ratio", float64(res.Failed)/float64(res.Attempted), nil)
	return nil
}

// checkRepeats fails every operation whose answer differs from the first
// operation of its class: the same question must get the same rows,
// provenance bytes, matches and report in every round.
func checkRepeats(ops []*op) {
	first := make(map[string]*op)
	for _, x := range ops {
		if x.Err != "" {
			continue
		}
		f, ok := first[x.Class]
		if !ok {
			first[x.Class] = x
			continue
		}
		switch {
		case x.Info.ResultRows != f.Info.ResultRows:
			x.fail("%d result rows, %s had %d", x.Info.ResultRows, f.ID, f.Info.ResultRows)
		case x.Info.ProvBytes != f.Info.ProvBytes:
			x.fail("%d provenance bytes, %s had %d", x.Info.ProvBytes, f.ID, f.Info.ProvBytes)
		case x.Info.Matched != f.Info.Matched:
			x.fail("%d matched items, %s had %d", x.Info.Matched, f.ID, f.Info.Matched)
		// A mixed_clients cycle uploads under a fresh dataset name, which its
		// provenance and reports carry, so only their sizes repeat.
		case (x.Dataset == "" && x.Report != f.Report) || (x.Kind != "upload" && x.Bytes != f.Bytes):
			x.fail("answer differs from %s", f.ID)
		}
	}
}

// collected groups the latencies of good operations by class.
type collected struct {
	weights map[string]int
	byClass map[string][]float64
	byRound map[int]map[string]float64 // round -> class -> summed latency
}

func collect(ops []*op, weights map[string]int) *collected {
	c := &collected{weights: weights, byClass: map[string][]float64{}, byRound: map[int]map[string]float64{}}
	for _, x := range ops {
		if x.Err != "" {
			continue
		}
		c.byClass[x.Class] = append(c.byClass[x.Class], x.Latency.Seconds())
		if c.byRound[x.Round] == nil {
			c.byRound[x.Round] = map[string]float64{}
		}
		c.byRound[x.Round][x.Class] += x.Latency.Seconds()
	}
	return c
}

// classes lists the weighted classes that start with prefix, sorted.
func (c *collected) classes(prefix string) []string {
	var out []string
	for class := range c.weights {
		if strings.HasPrefix(class, prefix) {
			out = append(out, class)
		}
	}
	sort.Strings(out)
	return out
}

// sweep is the sum, over the weighted classes with the prefix, of the
// class's median latency times its operations per round: a sum of medians,
// because the latencies of a mixed round are multi-modal and their plain
// median says nothing.
func (c *collected) sweep(prefix string) float64 {
	var s float64
	for _, class := range c.classes(prefix) {
		s += float64(c.weights[class]) * median(c.byClass[class])
	}
	return s
}

// roundSums is the same sum taken round by round, for the spread.
func (c *collected) roundSums(prefix string) []float64 {
	classes := c.classes(prefix)
	rounds := make([]int, 0, len(c.byRound))
	for r := range c.byRound {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	var out []float64
	for _, r := range rounds {
		var s float64
		complete := true
		for _, class := range classes {
			v, ok := c.byRound[r][class]
			complete = complete && ok
			s += v
		}
		if complete {
			out = append(out, s)
		}
	}
	return out
}

// runTraced runs one untraced round as the reference for the tracing
// overhead, then traced rounds for o.seconds: every operation through the
// daemon with its event stream followed, then through the library layer by
// layer under spans.
func runTraced(ctx context.Context, w workload, o options, res *runResult) error {
	tr := newTrace()
	start := time.Now()
	ops := w.round(ctx, 0, false)
	refWall := time.Since(start).Seconds()

	var rounds []layerSums
	for r := 1; r == 1 || time.Since(start).Seconds() < o.seconds; r++ {
		t := time.Now()
		round := w.round(ctx, r, true)
		tracedWall := time.Since(t).Seconds()
		sums := layerSums{"obs.trace_overhead_ratio": tracedWall / refWall}
		w.replay(&replayer{ctx: ctx, tr: tr, sums: sums}, round)
		for _, x := range round {
			daemonSide(tr, x, sums)
			if x.Kind != "cycle" && x.Err == "" {
				res.Ops = append(res.Ops, opSummary{
					ID: x.ID, Class: x.Class, LatencyS: x.Latency.Seconds(),
					LayerSumS: x.LayerSum.Seconds(), ResidualS: (x.Latency - x.LayerSum).Seconds(),
				})
			}
		}
		derive(sums)
		rounds = append(rounds, sums)
		ops = append(ops, round...)
		res.Rounds = r
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	end := layerSums{
		"server.heap_inuse_end_mb": float64(ms.HeapInuse) / (1 << 20),
		"server.peak_rss_mb":       peakRSSMB(),
		"server.rejected_429":      0,
	}
	for _, x := range ops {
		if x.Rejected {
			end["server.rejected_429"]++
		}
	}
	for _, def := range perLayer {
		if v, ok := end[def.Name]; ok {
			res.Rows = append(res.Rows, newRow(def, res.Workload, v, nil, true))
			continue
		}
		samples := make([]float64, len(rounds))
		for i, sums := range rounds {
			samples[i] = sums[def.Name]
		}
		if def.Exact {
			for _, v := range samples {
				if v != samples[0] {
					res.Failed++
					res.Attempted++
					res.Failures = append(res.Failures, fmt.Sprintf("exact counter %s differs between rounds: %v", def.Name, samples))
					break
				}
			}
		}
		res.Rows = append(res.Rows, newRow(def, res.Workload, median(samples), samples, true))
	}
	tally(res, ops)
	return tr.write(filepath.Join(o.workdir, "trace-"+res.Workload+".jsonl"))
}

// daemonSide records an operation's daemon-pass spans (client wait, queue
// wait, job run with the phases the job's event stream reported, poll lag,
// result decode) and adds its share to the server and sdk sums.
func daemonSide(tr *trace, x *op, sums layerSums) {
	if x.Err != "" {
		return
	}
	root := tr.add(0, x.ID, "daemon", "client:"+x.Class, x.Start, x.Latency)
	switch x.Kind {
	case "cycle":
		return
	case "upload":
		sums["server.upload_residual_s"] += (x.Latency - x.LayerSum).Seconds()
		return
	case "download":
		sums["server.http_residual_s"] += x.Latency.Seconds()
		return
	}
	info := x.Info
	if info.Started == nil || info.Finished == nil {
		return
	}
	queueWait := info.Started.Sub(info.Created)
	jobRun := info.Finished.Sub(*info.Started)
	pollLag := x.Terminal.Sub(*info.Finished)
	tr.add(root, x.ID, "daemon", "server.queue_wait", info.Created, queueWait)
	run := tr.add(root, x.ID, "daemon", "server.job_run", *info.Started, jobRun)
	for _, ev := range x.Events {
		if ev.Kind == "phase_end" {
			d := time.Duration(ev.ElapsedMS * float64(time.Millisecond))
			tr.add(run, x.ID, "daemon", "daemon."+ev.Span, ev.Time.Add(-d), d)
		}
	}
	tr.add(root, x.ID, "daemon", "sdk.poll_lag", *info.Finished, pollLag)
	if x.Decode > 0 {
		tr.add(root, x.ID, "daemon", "sdk.result_decode", x.Terminal, x.Decode)
	}
	sums["server.queue_wait_s"] += queueWait.Seconds()
	sums["server.job_run_s"] += jobRun.Seconds()
	sums["sdk.poll_lag_s"] += pollLag.Seconds()
	sums["sdk.result_decode_s"] += x.Decode.Seconds()
	sums["server.http_residual_s"] += (x.Latency - queueWait - jobRun - pollLag - x.Decode).Seconds()
	if x.Kind == "pipeline" {
		if x.Capture {
			// What the job did beyond the library's capture, encode, re-read
			// and index build: file I/O and glue.
			sums["server.persist_residual_s"] += (jobRun - x.LayerSum).Seconds()
			sums["_capture_latency_s"] += x.Latency.Seconds()
		} else {
			sums["_plain_latency_s"] += x.Latency.Seconds()
		}
	}
}

// derive turns a round's intermediate sums into the metrics defined as
// differences and ratios.
func derive(sums layerSums) {
	ratio := func(num, den string) float64 {
		if sums[den] == 0 {
			return 0
		}
		return sums[num] / sums[den]
	}
	if sums["_capture_s"] > 0 {
		sums["provenance.capture_delta_s"] = sums["_capture_s"] - sums["engine.plain_run_s"]
		sums["provenance.capture_alloc_mb"] = sums["_capture_alloc_mb"] - sums["engine.run_alloc_mb"]
	}
	sums["provenance.decoded_ratio"] = ratio("_assoc_decoded", "_assoc_total")
	sums["obs.recorder_overhead_ratio"] = ratio("_capture_s", "_capture_norec_s")
	sums["paper.capture_overhead_ratio"] = ratio("_capture_latency_s", "_plain_latency_s")
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
