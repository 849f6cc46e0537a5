package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinyRun is one single-round run of a workload at the tiny size.
func tinyRun(t *testing.T, workload string, traced bool, dir string) *runResult {
	t.Helper()
	res, err := runOne(context.Background(), options{
		workload: workload, seed: 42, seconds: 0, trace: traced, size: sizePresets["tiny"], workdir: dir,
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s traced=%v: %d of %d operations failed: %v", workload, traced, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

func rowsByName(t *testing.T, res *runResult) map[string]row {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	m := make(map[string]row, len(res.Rows))
	for _, r := range res.Rows {
		if !name.MatchString(r.Name) {
			t.Errorf("%s: metric name %q", res.Workload, r.Name)
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, r.Name, r.Value)
		}
		if _, dup := m[r.Name]; dup {
			t.Errorf("%s: %s reported twice", res.Workload, r.Name)
		}
		m[r.Name] = r
	}
	return m
}

// TestTinySuite runs all four workloads at the tiny size, untraced and
// traced: every named metric is there and finite, the result line holds
// exactly the contract's metrics, the library layers of the traced
// operations fit inside what the client waited, exact counters repeat, and a
// result compared with itself is within every bound.
func TestTinySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads end to end")
	}
	dir := t.TempDir()
	suite := &suiteResult{}
	for _, name := range workloadNames {
		untraced := tinyRun(t, name, false, dir)
		rows := rowsByName(t, untraced)
		for _, def := range contractEndToEnd {
			if r, ok := rows[def.Name]; !ok || r.Value <= 0 || !r.Contract {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", name, def.Name, r)
			}
		}
		var line struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(untraced.contractLine()), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != untraced.Attempted || len(line.Metrics) != len(contractEndToEnd) {
			t.Errorf("%s: result line %s", name, untraced.contractLine())
		}

		traced := tinyRun(t, name, true, dir)
		again := tinyRun(t, name, true, dir)
		rows, rowsAgain := rowsByName(t, traced), rowsByName(t, again)
		for _, def := range perLayer {
			r, ok := rows[def.Name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", name, def.Name)
			}
			if def.Exact && r.Value != rowsAgain[def.Name].Value {
				t.Errorf("%s: exact counter %s differs between two runs: %v, %v", name, def.Name, r.Value, rowsAgain[def.Name].Value)
			}
		}
		if len(rows) != len(perLayer) {
			t.Errorf("%s: traced run reports %d metrics, want the %d per-layer ones", name, len(rows), len(perLayer))
		}
		// Summed over the workload, because a single operation's library
		// replay can lose the processor to the tests running beside this one.
		var latency, layers float64
		for _, o := range traced.Ops {
			latency += o.LatencyS
			layers += o.LayerSumS
		}
		if len(traced.Ops) == 0 || layers <= 0 || layers > latency {
			t.Errorf("%s: %d traced operations, layer spans sum to %.4fs, client latency to %.4fs", name, len(traced.Ops), layers, latency)
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file: %v", name, err)
		}
		switch name {
		case "trace_repeat":
			if rows["engine.plain_run_s"].Value != 0 || rows["backtrace.trace_s"].Value <= 0 {
				t.Errorf("%s: engine %v s, backtrace %v s: the engine should be idle", name, rows["engine.plain_run_s"].Value, rows["backtrace.trace_s"].Value)
			}
		case "twitter_capture", "dblp_capture":
			if rows["backtrace.trace_s"].Value != 0 || rows["core.result_encode_s"].Value != 0 || rows["engine.plain_run_s"].Value <= 0 {
				t.Errorf("%s: query-side layers should be idle", name)
			}
		}
		suite.Runs = append(suite.Runs, *untraced, *traced)
	}

	var out bytes.Buffer
	if !printComparison(&out, suite, suite, true) {
		t.Errorf("a result compared with itself:\n%s", out.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if !strings.HasSuffix(line, "within-bound") {
			t.Errorf("a result compared with itself: %s", line)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("daemon data directory %s left behind", e.Name())
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric and workload tables
// the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := readJSONFile("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, contractEndToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
