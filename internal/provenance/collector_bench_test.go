package provenance

import (
	"runtime"
	"testing"

	"pebble/internal/engine"
)

// fillCollector populates a collector with a synthetic run: ops operators
// cycling through the five association layouts from a source, each of an
// operator type with that layout reading the one before it, and each with
// parts morsels of rowsPerShard rows. The shape
// mirrors what a mid-size capture produces, so the benchmark isolates exactly
// the merge cost of Finish.
func fillCollector(c *Collector, ops, parts, rowsPerShard int) {
	types := [...]engine.OpType{engine.OpSource, engine.OpMap, engine.OpJoin, engine.OpFlatten, engine.OpAggregate}
	for oid := 1; oid <= ops; oid++ {
		typ := types[(oid-1)%len(types)]
		c.StartOperator(ChainInfo(oid, typ), parts)
		for p := 0; p < parts; p++ {
			base := int64(oid*1000000 + p*10000)
			ids, pos := make([]int64, rowsPerShard), make([]int64, rowsPerShard)
			for i := range ids {
				ids[i], pos[i] = base+int64(i), int64(i)
			}
			var a engine.Assocs
			switch KindOf(typ) {
			case AssocSource:
				a.In = ids
			case AssocUnary:
				a.In, base = ids, base+1
			case AssocBinary:
				a.In, a.Right, base = ids, ids, base+2
			case AssocFlatten:
				a.In, a.Pos, base = ids, pos, base+3
			case AssocAgg:
				a.Lists, base = make([][]int64, len(ids)), base+4
				for i, id := range ids {
					a.Lists[i] = []int64{id, id + 1}
				}
			}
			c.Morsel(oid, p, base, rowsPerShard, a)
		}
	}
}

// BenchmarkCollectorFinish measures Finish: merging each operator's
// per-partition shards into one reused scratch bag, encoding it into the v4
// stream, and the lazy load of that stream.
func BenchmarkCollectorFinish(b *testing.B) {
	const ops, parts, rowsPerShard = 10, 16, 2000
	c := NewCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillCollector(c, ops, parts, rowsPerShard)
		b.StartTimer()
		run, err := c.Finish()
		if err != nil || len(run.order) != ops {
			b.Fatalf("got %v, %d operators, want %d", err, len(run.order), ops)
		}
	}
}

// TestFinishAllocatesPerOperator guards Finish's allocation over a synthetic
// capture of 10 operators × 16 partitions: a bounded number of allocations
// per operator, whatever the rows, and no more bytes than the stream, the
// scratch bag and a fixed slack for the operators and the load's
// bookkeeping. Both grow the way append grows a slice, by at most a quarter
// past 256 bytes. So the stream is charged 6.25 times its length (at most
// five final capacities over its life, each at most 1.25 times the length),
// and the scratch 1.25 times every column of every bag longer in that column
// than all bags before it (the only bags for which the column grows).
func TestFinishAllocatesPerOperator(t *testing.T) {
	if raceDetector {
		t.Skip("measures allocation; run it without -race")
	}
	const ops, parts, allocsPerOp, slack = 10, 16, 24, 64 << 10
	for _, rows := range []int{100, 2000} {
		c := NewCollector()
		fillCollector(c, ops, parts, rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run, err := c.Finish()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		var most [5]int
		scratch := 0
		for _, op := range run.Operators() {
			b := op.Columns()
			for i, n := range []int{8 * len(b.Out), 8 * len(b.In), 8 * len(b.Right), 8 * len(b.Pos), 4 * len(b.Offs)} {
				if n > most[i] {
					most[i], scratch = n, scratch+n
				}
			}
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%d rows per shard: %d allocations, %d bytes; stream %d, scratch %d", rows, allocs, bytes, len(run.stream), scratch)
		if allocs > allocsPerOp*ops {
			t.Errorf("%d rows per shard: Finish made %d allocations, above %d per operator", rows, allocs, allocsPerOp)
		}
		if bound := uint64(25*len(run.stream)/4 + 5*scratch/4 + slack); bytes > bound {
			t.Errorf("%d rows per shard: Finish allocated %d bytes, above the bound of %d", rows, bytes, bound)
		}
	}
}
