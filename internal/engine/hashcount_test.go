package engine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pebble/internal/nested"
)

// TestAggregateHashesKeyOncePerRow swaps the valueHash hook for a counting
// double and asserts that an aggregation hashes each input row's group key
// exactly once: the shuffle computes and caches the hash in keyedRow, and the
// grouping loop reuses the cached value instead of rehashing. The count must
// not depend on the physical worker count.
func TestAggregateHashesKeyOncePerRow(t *testing.T) {
	var calls atomic.Int64
	orig := valueHash
	valueHash = func(v nested.Value) uint64 {
		calls.Add(1)
		return orig(v)
	}
	defer func() { valueHash = orig }()

	values := tab1() // 5 rows
	build := func() *Pipeline {
		p := NewPipeline()
		src := p.Source("tweets.json")
		p.Aggregate(src,
			[]GroupKey{Key("user")},
			[]AggSpec{Agg(AggCollectList, "text", "texts")},
		)
		return p
	}
	for _, opt := range []Options{
		{Partitions: 4, Workers: 1},
		{Partitions: 4, Workers: 2},
	} {
		t.Run(fmt.Sprintf("workers=%d", opt.Workers), func(t *testing.T) {
			calls.Store(0)
			inputs := map[string]*Dataset{"tweets.json": dataset(t, "tweets.json", values, 2)}
			res := runPipeline(t, build(), inputs, opt)
			if res.Output.Len() != 2 { // users lp and jm
				t.Fatalf("got %d groups, want 2", res.Output.Len())
			}
			if got := calls.Load(); got != int64(len(values)) {
				t.Errorf("group keys hashed %d times for %d input rows; want exactly one hash per row",
					got, len(values))
			}
		})
	}
}
