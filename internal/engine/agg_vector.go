package engine

import (
	"fmt"
	"sort"
	"sync"

	"pebble/internal/nested"
)

// Aggregate state (DESIGN.md §13). One pass over the bucket fills the
// keyTable (dense group ids in first-seen order, reusing the hashes the
// shuffle cached) and records each row's group index; accumulation then
// evaluates each spec's input path once per row and updates per-group typed
// accumulator arrays — sum/count as int64/float64 columns, collect as CSR
// offset lists — instead of buffering every group's rows and re-walking them
// per spec. Contributing-identifier lists for capture are CSR subslices of
// one bucket-sized arena (ownership of each group's subslice transfers to
// the sink via ps.Agg, so the arena is a plain allocation, never pooled).
// Float sums accumulate in bucket (= sequence) order, so results are
// bit-identical across worker counts.
//
// Error contract: a spec the bucket cannot compute — an aggregate missing
// its input path, an unknown function, a non-numeric value under sum/avg —
// fails the bucket at the first (group in key-sorted order, spec in
// declaration order) pair that hits it, naming the group's first offending
// value in sequence order: the error a per-group evaluation over buffered
// rows reports (pinned by reference_test.go). An empty bucket has no groups
// and therefore no error.

// aggAccum is one spec's pooled accumulator state, indexed by dense group id.
type aggAccum struct {
	n      []int64        // count / sum / avg: non-null values seen
	sumF   []float64      // sum / avg: float accumulation (row order)
	sumI   []int64        // sum: integer accumulation while allInt
	allInt []bool         // sum: no double seen yet
	bad    []nested.Kind  // sum / avg: kind of the first non-numeric value (0 = none)
	best   []nested.Value // min / max: current winner
	found  []bool         // min / max: any non-null seen
	cursor []int32        // collect: per-group fill cursor into the CSR arena
	setBuf []nested.Value // collect_set staging; pooled (nested.Set copies)
}

var aggAccumPool = sync.Pool{
	New: func() any { return new(aggAccum) },
}

// grown returns s resized to n, reusing capacity; contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func getAggAccum(nG, bucketLen int, fn AggFunc) *aggAccum {
	a := aggAccumPool.Get().(*aggAccum)
	switch fn {
	case AggCount:
		a.n = grown(a.n, nG)
		clear(a.n)
	case AggSum, AggAvg:
		a.n = grown(a.n, nG)
		clear(a.n)
		a.sumF = grown(a.sumF, nG)
		clear(a.sumF)
		a.sumI = grown(a.sumI, nG)
		clear(a.sumI)
		a.allInt = grown(a.allInt, nG)
		for i := range a.allInt {
			a.allInt[i] = true
		}
		a.bad = grown(a.bad, nG)
		clear(a.bad)
	case AggMax, AggMin:
		a.best = grown(a.best, nG)
		a.found = grown(a.found, nG)
		clear(a.found)
	case AggCollectList:
		a.cursor = grown(a.cursor, nG)
		clear(a.cursor)
	case AggCollectSet:
		a.cursor = grown(a.cursor, nG)
		clear(a.cursor)
		a.setBuf = grown(a.setBuf, bucketLen)
	}
	return a
}

func putAggAccum(a *aggAccum) { aggAccumPool.Put(a) }

// aggScratch is the pooled per-bucket scratch of the aggregate: per-row
// group indexes, CSR offsets and id cursors, and the group sort order.
type aggScratch struct {
	groupOf []int32
	offsets []int32
	idCur   []int32
	order   []int
}

var aggScratchPool = sync.Pool{
	New: func() any { return new(aggScratch) },
}

func getAggScratch(n int) *aggScratch {
	s := aggScratchPool.Get().(*aggScratch)
	s.groupOf = grown(s.groupOf, n)
	return s
}

// sizeGroups prepares the per-group arrays once the group count is known.
func (s *aggScratch) sizeGroups(nG int) {
	s.offsets = grown(s.offsets, nG)
	s.idCur = grown(s.idCur, nG)
	clear(s.idCur)
	s.order = grown(s.order, nG)
}

func putAggScratch(s *aggScratch) { aggScratchPool.Put(s) }

// aggBucket groups and aggregates one shuffle bucket into items of shape
// (groupShape's, computed once per operator); capture materialises the
// contributing-identifier list of every group.
func aggBucket(o *Op, shape *nested.Shape, bucket []keyedRow, capture bool) (morselOut, error) {
	if len(bucket) == 0 {
		return morselOut{rows: []Row{}}, nil
	}
	t := getKeyTable(len(bucket))
	defer putKeyTable(t)
	s := getAggScratch(len(bucket))
	defer putAggScratch(s)
	for i, kr := range bucket {
		s.groupOf[i] = t.insert(kr.hash, kr.key, int32(i), 0, true)
	}
	nG := t.groups()
	s.sizeGroups(nG)
	// CSR offsets by dense group id; arena layout order is irrelevant, the
	// per-group subslices just have to be disjoint and sized to the group.
	off := int32(0)
	for g := 0; g < nG; g++ {
		s.offsets[g] = off
		off += t.count[g]
	}
	accums := make([]*aggAccum, len(o.aggs))
	defer func() {
		for _, a := range accums {
			if a != nil {
				putAggAccum(a)
			}
		}
	}()
	var listVals [][]nested.Value
	for si, spec := range o.aggs {
		accums[si] = getAggAccum(nG, len(bucket), spec.Func) //pebblevet:ignore poolescape -- function-local registry of borrowed accumulators; the deferred loop releases every element before return and aggResult copies values out

		if spec.Func == AggCollectList {
			if listVals == nil {
				listVals = make([][]nested.Value, len(o.aggs))
			}
			// Retained by the output bags (nested.Bag keeps the subslices),
			// so this arena is a plain allocation, never pooled.
			listVals[si] = make([]nested.Value, len(bucket))
		}
	}
	var idsArena []int64
	if capture {
		// The contributing-identifier collection is only materialised when
		// provenance is captured — it is the dominant share of the
		// aggregation's capture cost (Sec. 7.3.1). Ownership of each group's
		// subslice transfers to the sink (ps.Agg); plain allocation, never
		// pooled.
		idsArena = make([]int64, len(bucket))
	}
	// Chunked so that the specs' passes over the same rows stay cache-resident.
	for start := 0; start < len(bucket); start += batchSize {
		end := min(start+batchSize, len(bucket))
		chunk := bucket[start:end]
		gix := s.groupOf[start:end]
		for si, spec := range o.aggs {
			if len(spec.In) == 0 {
				continue // plain count: group sizes come from the table
			}
			var lv []nested.Value
			if listVals != nil {
				lv = listVals[si]
			}
			accumulate(spec, accums[si], chunk, gix, s.offsets, lv)
		}
		if idsArena != nil {
			for i, kr := range chunk {
				g := gix[i]
				idsArena[s.offsets[g]+s.idCur[g]] = kr.row.ID
				s.idCur[g]++
			}
		}
	}
	// Emit groups sorted by key, starting from first-seen order so that
	// Compare-equal distinct keys order deterministically.
	order := s.order[:nG]
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(i, j int) bool { return nested.Compare(t.keys[order[i]], t.keys[order[j]]) < 0 })
	out := morselOut{rows: make([]Row, nG), n: nG}
	if capture {
		out.lists = make([][]int64, nG)
	}
	width := shape.Len()
	arena := make([]nested.Value, nG*width) // retained by the output items
	for i, g := range order {
		vals := arena[:width:width]
		arena = arena[width:]
		copy(vals, t.keys[g].FieldValues())
		for si, spec := range o.aggs {
			var lv []nested.Value
			if listVals != nil {
				lv = listVals[si]
			}
			av, err := aggResult(spec, accums[si], int32(g), t.count[g], s.offsets[g], lv)
			if err != nil {
				return morselOut{}, err
			}
			vals[len(o.groupBy)+si] = av
		}
		out.rows[i].Value = shape.Item(vals...)
		if idsArena != nil {
			o0 := s.offsets[g]
			out.lists[i] = idsArena[o0 : o0+t.count[g] : o0+t.count[g]]
		}
	}
	return out, nil
}

// accumulate folds one chunk into a spec's accumulators, evaluating the
// input path once per row; absent paths evaluate as null. A non-numeric
// value under sum/avg is recorded per group and reported by aggResult. Specs
// aggResult rejects statically (unknown function) accumulate nothing.
func accumulate(spec AggSpec, a *aggAccum, chunk []keyedRow, groupOf []int32, offsets []int32, list []nested.Value) {
	for i := range chunk {
		v, ok := spec.In.Eval(chunk[i].row.Value)
		if !ok {
			v = nested.Null()
		}
		g := groupOf[i]
		switch spec.Func {
		case AggCount:
			if !v.IsNull() {
				a.n[g]++
			}
		case AggSum, AggAvg:
			if v.IsNull() {
				continue
			}
			f, ok := v.AsDouble()
			if !ok {
				if a.bad[g] == nested.KindInvalid {
					a.bad[g] = v.Kind()
				}
				continue
			}
			if iv, isInt := v.AsInt(); isInt {
				a.sumI[g] += iv
			} else {
				a.allInt[g] = false
			}
			a.sumF[g] += f
			a.n[g]++
		case AggMax, AggMin:
			if v.IsNull() {
				continue
			}
			if !a.found[g] {
				a.best[g], a.found[g] = v, true
				continue
			}
			// Strictly-better replaces: ties keep the incumbent. A NaN sorts
			// before every other double (nested.Compare).
			cr := compareWidened(v, a.best[g])
			if (spec.Func == AggMax && cr > 0) || (spec.Func == AggMin && cr < 0) {
				a.best[g] = v
			}
		case AggCollectList:
			// Nulls are kept so element positions stay aligned with the
			// recorded input-identifier order (the invariant Alg. 4 relies on).
			list[offsets[g]+a.cursor[g]] = v
			a.cursor[g]++
		case AggCollectSet:
			if v.IsNull() {
				continue
			}
			a.setBuf[offsets[g]+a.cursor[g]] = v
			a.cursor[g]++
		}
	}
}

// aggResult materialises one spec's final value for group g. The order of
// collected elements matches the row order, which in turn matches the order
// of the recorded input identifiers — the invariant Alg. 4's position
// substitution relies on.
func aggResult(spec AggSpec, a *aggAccum, g, size int32, off int32, list []nested.Value) (nested.Value, error) {
	if len(spec.In) == 0 {
		if spec.Func == AggCount {
			return nested.Int(int64(size)), nil
		}
		return nested.Value{}, fmt.Errorf("aggregate %s needs an input path", spec.Func)
	}
	switch spec.Func {
	case AggCount:
		return nested.Int(a.n[g]), nil
	case AggSum, AggAvg:
		if a.bad[g] != nested.KindInvalid {
			return nested.Value{}, fmt.Errorf("aggregate %s over non-numeric %s", spec.Func, a.bad[g])
		}
		if spec.Func == AggAvg {
			if a.n[g] == 0 {
				return nested.Null(), nil
			}
			return nested.Double(a.sumF[g] / float64(a.n[g])), nil
		}
		if a.allInt[g] {
			return nested.Int(a.sumI[g]), nil
		}
		return nested.Double(a.sumF[g]), nil
	case AggMax, AggMin:
		if !a.found[g] {
			return nested.Null(), nil
		}
		return a.best[g], nil
	case AggCollectList:
		end := off + size
		return nested.Bag(list[off:end:end]...), nil
	case AggCollectSet:
		return nested.Set(a.setBuf[off : off+a.cursor[g]]...), nil
	}
	return nested.Value{}, fmt.Errorf("unknown aggregate function %q", spec.Func)
}
