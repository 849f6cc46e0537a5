// Fixture for the rangecapture analyzer: the PartitionSink morsel contract.
// The sink type itself is defined in sink.go (cross-file reference).
package rangecapture

func mixedForms(s PartitionSink, ids []int64) {
	s.UnaryRange(ids, 0)
	s.Unary(ids[0], 1) // want `mixes row-wise Unary with bulk UnaryRange`
}

func mixedRowThenRange(s PartitionSink, ids []int64) {
	s.Unary(1, 1)
	s.SourceRows(2, ids) // want `mixes row-wise Unary with bulk SourceRows`
}

func shrinkingID(s PartitionSink, rows []int) {
	id := int64(100)
	for range rows {
		s.Unary(7, id) // want `id argument id is not monotone in an enclosing loop`
		id--
	}
}

func opaqueID(s PartitionSink, rows []int, ids []int64) {
	for i := range rows {
		s.Unary(int64(i), ids[i]) // want `id argument is not derivable from loop induction`
	}
}

func constantRangeBase(s PartitionSink, batches [][]int64) {
	for _, b := range batches {
		s.UnaryRange(b, 0) // want `constant base re-emits the same id range`
	}
}

func invariantRangeBase(s PartitionSink, batches [][]int64) {
	base := int64(0)
	for _, b := range batches {
		s.UnaryRange(b, base) // want `loop-invariant base base re-emits the same id range`
	}
}

func partitionInLoop(r Registry, rows []int) {
	out := int64(0)
	for range rows {
		s := r.Partition(1, 0) // want `Partition called inside an emission loop`
		s.Unary(9, out)
		out++
	}
}

// cleanRowWise: out-ids advance with an explicit counter, monotone in the
// loop — the reconstructible per-morsel discipline.
func cleanRowWise(s PartitionSink, rows []int) {
	out := int64(0)
	for range rows {
		s.Unary(3, out)
		out++
	}
}

// cleanRangeStride: the base advances by a constant stride every iteration,
// so consecutive ranges stay contiguous and are emitted exactly once.
func cleanRangeStride(s PartitionSink, morsels [][]int64, ids []int64) {
	base := int64(0)
	for range morsels {
		s.UnaryRange(ids, base)
		base += 64
	}
}

// cleanHoisted: the handle lookup happens once, before the emission loop.
func cleanHoisted(r Registry, rows []int) {
	s := r.Partition(1, 0)
	out := int64(0)
	for range rows {
		s.Unary(out, out)
		out++
	}
}

// cleanAllRange: an operator body that is entirely bulk never mixes forms.
func cleanAllRange(s PartitionSink, ids []int64) {
	s.UnaryRange(ids, 0)
	s.SourceRows(0, ids)
}

// cleanAggGroups mirrors the aggregate kernel (DESIGN.md §13):
// one Agg emission per group in sort order, the out-id advancing with the
// loop, the in-ids a CSR subslice whose ownership transfers to the sink.
func cleanAggGroups(s PartitionSink, order []int, idsArena []int64, offsets []int32, base int64) {
	id := base
	for _, g := range order {
		s.Agg(idsArena[offsets[g]:offsets[g+1]], id)
		id++
	}
}

// aggShrinkingID walks the group ids backwards — out-ids must advance with
// the emission order or the serialized stream reorders across schedules.
func aggShrinkingID(s PartitionSink, order []int, ids []int64, base int64) {
	id := base
	for range order {
		s.Agg(ids, id) // want `id argument id is not monotone in an enclosing loop`
		id--
	}
}
