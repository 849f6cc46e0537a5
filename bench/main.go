// Command bench is the repo's benchmark: it drives an in-process pebbled
// (internal/server on a loopback listener) through pkg/sdk for the
// end-to-end numbers a client sees, and replays the same operations through
// the layers' public functions, with its own spans, for the per-layer
// numbers. README.md in this directory documents workloads, metrics and
// sizes; BENCHMARK.json at the repo root is the contract the numbers are
// compared under.
//
// Usage (from the repo root):
//
//	go run ./bench -workload twitter_capture -seed 7 -seconds 24 -trace 0
//	go run ./bench [-seed 42] [-workloads a,b] [-out bench/out/run.json]
//	go run ./bench -compare A.json B.json
//	go run ./bench -selfcheck
//
// The first form is one measured run of one workload: untraced it reports
// the end-to-end metrics, traced the per-layer metrics, and its last stdout
// line is the result as one JSON object. The second form runs every
// workload untraced and traced, one child process each, and writes the
// collected rows to -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	workdir  string
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in-process and print its result line")
		workloads = flag.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads of a suite run")
		seed      = flag.Int64("seed", 42, "seed of the generated inputs and the round order")
		seconds   = flag.Float64("seconds", 24, "length of one measured run")
		trace     = flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from traced rounds")
		sizeName  = flag.String("size", "full", "input size preset: full or tiny")
		out       = flag.String("out", "bench/out/run.json", "suite result file")
		workdir   = flag.String("workdir", "bench/out", "directory for daemon data, span files and child results")
		detail    = flag.String("detail", "", "also write the run's full rows to this file (used by suite runs)")
		compare   = flag.Bool("compare", false, "compare two suite result files: -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice on this code and fail if the runs disagree")
	)
	flag.Parse()

	size, ok := sizePresets[*sizeName]
	if !ok {
		fatalf("unknown -size %q (want full or tiny)", *sizeName)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		a, err := readSuite(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		b, err := readSuite(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !printComparison(os.Stdout, a, b, false) {
			os.Exit(1)
		}
	case *workload != "":
		res, err := runOne(context.Background(), options{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, size: size, workdir: *workdir,
		})
		if err != nil {
			fatalf("%v", err)
		}
		printRows(os.Stderr, res.Rows)
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "FAILED:", f)
		}
		if *detail != "" {
			if err := writeJSONFile(*detail, res); err != nil {
				fatalf("%v", err)
			}
		}
		fmt.Println(res.contractLine())
		if res.Failed > 0 {
			os.Exit(1)
		}
	default:
		names := strings.Split(*workloads, ",")
		suiteOpts := options{seed: *seed, seconds: *seconds, size: size, workdir: *workdir}
		first, err := runSuite(names, suiteOpts)
		if err != nil {
			fatalf("%v", err)
		}
		if err := writeJSONFile(*out, first); err != nil {
			fatalf("%v", err)
		}
		printSuite(os.Stdout, first)
		ok := first.failed() == 0
		if *selfcheck {
			second, err := runSuite(names, suiteOpts)
			if err != nil {
				fatalf("%v", err)
			}
			secondOut := strings.TrimSuffix(*out, ".json") + "-2.json"
			if err := writeJSONFile(secondOut, second); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("\nselfcheck: %s vs %s\n", *out, secondOut)
			ok = printComparison(os.Stdout, first, second, true) && second.failed() == 0 && ok
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// suiteResult is what a suite run writes: the environment it ran in and one
// runResult per workload and tracing mode.
type suiteResult struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Size       sizes       `json:"size"`
	Runs       []runResult `json:"runs"`
}

func (s *suiteResult) failed() int {
	n := 0
	for _, r := range s.Runs {
		n += r.Failed
	}
	return n
}

// runSuite runs every named workload untraced and then traced. Each run is
// a child process of this same binary, so peak RSS and the pinned heap of
// one workload never leak into the next one's numbers.
func runSuite(names []string, o options) (*suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	s := &suiteResult{
		Commit: vcsRevision(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Size: o.size,
	}
	for _, name := range names {
		if _, ok := workloadWhy[name]; !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		for trace := 0; trace <= 1; trace++ {
			detail := filepath.Join(o.workdir, fmt.Sprintf("detail-%s-%d.json", name, trace))
			cmd := exec.Command(self,
				"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-size", o.size.Name, "-workdir", o.workdir, "-detail", detail)
			cmd.Stderr = os.Stderr
			start := time.Now()
			// A child exits 1 when operations failed; its detail file still
			// holds the rows and the failures, so only a missing file is fatal.
			runErr := cmd.Run()
			var res runResult
			if err := readJSONFile(detail, &res); err != nil {
				return nil, fmt.Errorf("workload %s trace %d: %v (child: %v)", name, trace, err, runErr)
			}
			os.Remove(detail) //nolint:errcheck // scratch file
			fmt.Fprintf(os.Stderr, "-- %s trace=%d done in %.1fs\n", name, trace, time.Since(start).Seconds())
			s.Runs = append(s.Runs, res)
		}
	}
	return s, nil
}

// vcsRevision is the commit the binary was built from: stamped by go build,
// else asked of git, which a go run binary and an exported tree lack.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func readSuite(path string) (*suiteResult, error) {
	var s suiteResult
	if err := readJSONFile(path, &s); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return &s, nil
}
