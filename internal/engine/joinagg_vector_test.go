package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// joinAggPipeline joins two inputs on a sometimes-missing string key (null
// keys exercise the skip paths) and aggregates the matches with one spec per
// accumulator family, so one run churns the keyTable, joinScratch, aggAccum,
// and aggScratch pools together.
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

// TestJoinAggScratchPoolsDoNotAliasResults proves the join/aggregate kernel
// pools (keyTable, joinScratch, aggAccum/aggScratch) never let a later run
// overwrite values an earlier result still references: the first result is
// rendered, several further join+aggregate pipelines churn the pools under
// both join shapes, and the first result must render identically afterwards.
func TestJoinAggScratchPoolsDoNotAliasResults(t *testing.T) {
	inputs := map[string]*Dataset{
		"l": dataset(t, "l", genRows(21, batchSize+31), 3),
		"r": dataset(t, "r", genRows(22, batchSize+17), 3),
	}
	res := runPipeline(t, joinAggPipeline(), inputs, Options{Partitions: 3, Workers: 1, BroadcastJoinThreshold: -1})
	before := make([]string, 0, len(res.Output.Rows()))
	for _, r := range res.Output.Rows() {
		before = append(before, fmt.Sprintf("%d:%s", r.ID, r.Value))
	}
	for i := 0; i < 4; i++ {
		churn := map[string]*Dataset{
			"l": dataset(t, "l", genRows(int64(300+i), batchSize+23), 3),
			"r": dataset(t, "r", genRows(int64(400+i), batchSize+11), 3),
		}
		threshold := -1
		if i%2 == 1 {
			threshold = 1 << 30 // broadcast shape churns the shared-table path
		}
		runPipeline(t, joinAggPipeline(), churn, Options{Partitions: 3, Workers: 2, BroadcastJoinThreshold: threshold})
	}
	for i, r := range res.Output.Rows() {
		if got := fmt.Sprintf("%d:%s", r.ID, r.Value); got != before[i] {
			t.Fatalf("row %d mutated by pool recycling:\nbefore %s\nafter  %s", i, before[i], got)
		}
	}
}

// TestJoinAggSharedPoolsRace drives the join and aggregate kernels with the
// full worker fan-out over the shared pools, two engines in one process and
// both join shapes (the broadcast probe reads one shared keyTable from every
// partition worker). The -race run of the suite is the assertion.
func TestJoinAggSharedPoolsRace(t *testing.T) {
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
