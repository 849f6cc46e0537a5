package provenance

import (
	"testing"

	"pebble/internal/engine"
)

// fillCollector populates a collector with a synthetic run: ops operators
// cycling through the five association layouts, each with parts shards of
// rowsPerShard rows. The shape mirrors what a mid-size capture produces, so
// the benchmark isolates exactly the merge cost of Finish.
func fillCollector(c *Collector, ops, parts, rowsPerShard int) {
	for oid := 1; oid <= ops; oid++ {
		c.StartOperator(engine.OpInfo{OID: oid, Type: engine.OpMap}, parts)
		for p := 0; p < parts; p++ {
			ps := c.Partition(oid, p)
			base := int64(oid*1000000 + p*10000)
			ids := make([]int64, rowsPerShard)
			pos := make([]int, rowsPerShard)
			for i := range ids {
				ids[i], pos[i] = base+int64(i), i
			}
			switch AssocKind(1 + oid%5) {
			case AssocSource:
				ps.SourceRows(base, ids)
			case AssocUnary:
				ps.UnaryRange(ids, base+1)
			case AssocBinary:
				ps.BinaryRange(ids, ids, base+2)
			case AssocFlatten:
				ps.FlattenRange(ids, pos, base+3)
			case AssocAgg:
				for _, id := range ids {
					ps.Agg([]int64{id, id + 1}, id+4)
				}
			}
		}
	}
}

// BenchmarkCollectorFinish measures merging the per-partition shards into an
// immutable Run. Finish sizes every column from the summed shard lengths, so
// the merge performs one allocation per column instead of O(log n) append
// growths.
func BenchmarkCollectorFinish(b *testing.B) {
	const ops, parts, rowsPerShard = 10, 16, 2000
	c := NewCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillCollector(c, ops, parts, rowsPerShard)
		b.StartTimer()
		run := c.Finish()
		if len(run.order) != ops {
			b.Fatalf("got %d operators, want %d", len(run.order), ops)
		}
	}
}
