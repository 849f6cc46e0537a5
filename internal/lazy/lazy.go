// Package lazy implements a fully lazy provenance querying approach in the
// style of PROVision (Zheng et al., ICDE 2019), the comparison point of
// Sec. 7.3.3: no provenance is captured during the normal pipeline run;
// when a provenance question arrives, the pipeline is re-executed with
// capture — once per input dataset — and each re-execution is traced for
// that input only. The cost therefore multiplies with the number of input
// datasets and grows with pipeline depth, which is exactly the effect
// Fig. 9 reports (the eager/holistic approach is always faster, by 4–7× on
// the multi-input, deep scenarios T3, T5, D3).
package lazy

import (
	"time"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/provenance"
	"pebble/internal/treepattern"
)

// QueryStats reports the cost of a lazy query.
type QueryStats struct {
	// Reruns is the number of capture re-executions (= distinct source
	// operators of the pipeline).
	Reruns int
	// Elapsed is the total wall time of the lazy query.
	Elapsed time.Duration
}

// Result is the outcome of a lazy query. Because every rerun assigns fresh
// provenance identifiers, OrigIDs additionally translates each source's
// identifiers back to the raw input rows so results can be compared across
// runs.
type Result struct {
	BySource map[int]*backtrace.Structure
	OrigIDs  map[int]map[int64]int64
}

// Query answers a structural provenance question lazily: build is invoked to
// (re)construct the pipeline for each capture re-execution, inputs supplies
// the raw datasets, and pattern selects the queried result items. The
// returned result maps source operators to their backtraced structures, like
// the eager path does.
func Query(build func() *engine.Pipeline, inputs map[string]*engine.Dataset,
	pattern *treepattern.Pattern, opts engine.Options) (*Result, QueryStats, error) {

	start := time.Now()
	// Determine the source operators needing independent traces.
	probe := build()
	var sourceOIDs []int
	for _, op := range probe.Ops() {
		if op.Type() == engine.OpSource {
			sourceOIDs = append(sourceOIDs, op.ID())
		}
	}
	out := &Result{
		BySource: make(map[int]*backtrace.Structure),
		OrigIDs:  make(map[int]map[int64]int64),
	}
	stats := QueryStats{Reruns: len(sourceOIDs)}
	// One capture re-execution per input dataset: PROVision traces result
	// items back for each input independently (Sec. 7.3.3).
	for _, sourceOID := range sourceOIDs {
		pipe := build()
		res, run, err := provenance.Capture(pipe, inputs, opts)
		if err != nil {
			return nil, stats, err
		}
		b := pattern.Match(res.Output)
		traced, err := backtrace.Trace(run, pipe.Sink().ID(), b)
		if err != nil {
			return nil, stats, err
		}
		if s, ok := traced.BySource[sourceOID]; ok {
			out.BySource[sourceOID] = s
			if op, ok := run.Op(sourceOID); ok {
				out.OrigIDs[sourceOID] = op.OrigIDs()
			}
		}
	}
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}
