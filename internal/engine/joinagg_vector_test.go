package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// joinAggPipeline joins two inputs on a sometimes-missing string key (null
// keys exercise the skip paths) and aggregates the matches with one spec per
// accumulator family.
func joinAggPipeline() *Pipeline {
	p := NewPipeline()
	l := p.Source("l")
	r := p.Source("r")
	sl := p.Select(l, Column("lcat", "cat"), Column("lval", "val"), Column("lid", "id"))
	sr := p.Select(r, Column("rcat", "cat"), Column("rval", "val"))
	j := p.Join(sl, sr, Col("lcat"), Col("rcat"))
	p.Aggregate(j,
		[]GroupKey{Key("lcat")},
		[]AggSpec{
			Agg(AggCount, "lval", "n"),
			Agg(AggSum, "lid", "total"),
			Agg(AggMin, "rval", "lo"),
			Agg(AggCollectList, "lval", "vals"),
		},
	)
	return p
}

// TestLaterRunsLeaveEarlierResults: no run changes a result an earlier run
// returned. The filter pipeline and the join+aggregate pipeline, the latter
// on both join shapes, run and are rendered; four rounds of all three over
// other inputs reuse the stage scratch, and the first results must render as
// before.
func TestLaterRunsLeaveEarlierResults(t *testing.T) {
	filterIn := func(seed int64) map[string]*Dataset {
		return map[string]*Dataset{"in": dataset(t, "in", genRows(seed, batchSize+19), 2)}
	}
	joinAggIn := func(seed int64) map[string]*Dataset {
		return map[string]*Dataset{
			"l": dataset(t, "l", genRows(seed, batchSize+31), 3),
			"r": dataset(t, "r", genRows(seed+1, batchSize+17), 3),
		}
	}
	runs := []struct {
		name   string
		build  func() *Pipeline
		inputs func(seed int64) map[string]*Dataset
		opts   Options
	}{
		{"filter", boundaryPipeline, filterIn, Options{Partitions: 2}},
		{"join-aggregate/shuffle", joinAggPipeline, joinAggIn, Options{Partitions: 3, BroadcastJoinThreshold: -1}},
		{"join-aggregate/broadcast", joinAggPipeline, joinAggIn, Options{Partitions: 3, BroadcastJoinThreshold: 1 << 30}},
	}
	render := func(res *Result) string {
		var b strings.Builder
		for _, r := range res.Output.Rows() {
			fmt.Fprintf(&b, "%d:%s\n", r.ID, r.Value)
		}
		return b.String()
	}
	first, before := make([]*Result, len(runs)), make([]string, len(runs))
	for i, r := range runs {
		r.opts.Workers = 1
		first[i] = runPipeline(t, r.build(), r.inputs(int64(5+10*i)), r.opts)
		before[i] = render(first[i])
	}
	for seed := int64(100); seed < 104; seed++ {
		for _, r := range runs {
			r.opts.Workers = 2
			runPipeline(t, r.build(), r.inputs(seed), r.opts)
		}
	}
	for i, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			if got := render(first[i]); got != before[i] {
				t.Fatalf("first result changed by later runs at %s", firstDiff(got, before[i]))
			}
		})
	}
}

// TestBroadcastProbeSharedTableRace drives the join and aggregate kernels
// with the full worker fan-out, two engines in one process and both join
// shapes: the broadcast probe reads one shared keyTable from every partition
// worker. The -race run of the suite is the assertion.
func TestBroadcastProbeSharedTableRace(t *testing.T) {
	lvals := genRows(31, 4*batchSize+29)
	rvals := genRows(32, 4*batchSize+37)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		threshold := -1
		if g == 1 {
			threshold = 1 << 30
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			inputs := map[string]*Dataset{
				"l": NewDataset("l", lvals, DefaultPartitions, NewIDGen(1000)),
				"r": NewDataset("r", rvals, DefaultPartitions, NewIDGen(100000)),
			}
			sink := newRecordingSink()
			if _, err := Run(joinAggPipeline(), inputs, Options{
				Partitions: DefaultPartitions, Workers: runtime.NumCPU(),
				BroadcastJoinThreshold: threshold, Sink: sink,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
