package engine

import (
	"fmt"
	"sort"

	"pebble/internal/nested"
)

// Aggregate state (DESIGN.md §13). One pass over the bucket fills the
// keyTable (dense group ids in first-seen order, reusing the hashes the
// shuffle cached) and records each row's group index; accumulation then
// gathers each spec's input path off a chunk of rows and updates per-group
// typed accumulator arrays — sum/count as int64/float64 columns, collect as
// CSR offset lists — instead of buffering every group's rows and re-walking
// them per spec. Contributing-identifier lists for capture are CSR subslices of
// one bucket-sized arena (ownership of each group's subslice transfers to
// the sink via ps.Agg). Float sums accumulate in bucket (= sequence) order,
// so results are bit-identical across worker counts.
//
// Error contract: a spec the bucket cannot compute — an aggregate missing
// its input path, an unknown function, a non-numeric value under sum/avg —
// fails the bucket at the first (group in key-sorted order, spec in
// declaration order) pair that hits it, naming the group's first offending
// value in sequence order: the error a per-group evaluation over buffered
// rows reports (pinned by reference_test.go). An empty bucket has no groups
// and therefore no error.

// aggAccum is one spec's accumulator state, indexed by dense group id.
type aggAccum struct {
	n      []int64        // count / sum / avg: non-null values seen
	sumF   []float64      // sum / avg: float accumulation (row order)
	sumI   []int64        // sum: integer accumulation while allInt
	allInt []bool         // sum: no double seen yet
	bad    []nested.Kind  // sum / avg: kind of the first non-numeric value (0 = none)
	best   []nested.Value // min / max: current winner
	found  []bool         // min / max: any non-null seen
	cursor []int32        // collect: per-group fill cursor into the CSR arena
	setBuf []nested.Value // collect_set staging (nested.Set copies)
}

// newAggAccum allocates the arrays fn accumulates into, for nG groups over a
// bucket of bucketLen rows.
func newAggAccum(nG, bucketLen int, fn AggFunc) *aggAccum {
	a := new(aggAccum)
	switch fn {
	case AggCount:
		a.n = make([]int64, nG)
	case AggSum, AggAvg:
		a.n, a.sumF, a.sumI = make([]int64, nG), make([]float64, nG), make([]int64, nG)
		a.allInt, a.bad = make([]bool, nG), make([]nested.Kind, nG)
		for i := range a.allInt {
			a.allInt[i] = true
		}
	case AggMax, AggMin:
		a.best, a.found = make([]nested.Value, nG), make([]bool, nG)
	case AggCollectList:
		a.cursor = make([]int32, nG)
	case AggCollectSet:
		a.cursor, a.setBuf = make([]int32, nG), make([]nested.Value, bucketLen)
	}
	return a
}

// aggBucket groups and aggregates one shuffle bucket into items of shape
// (groupShape's, computed once per operator); capture materialises the
// contributing-identifier list of every group.
func aggBucket(o *Op, shape *nested.Shape, bucket []keyedRow, capture bool) (morselOut, error) {
	if len(bucket) == 0 {
		return morselOut{rows: []Row{}}, nil
	}
	t := newKeyTable(len(bucket))
	groupOf := make([]int32, len(bucket))
	for i, kr := range bucket {
		groupOf[i] = t.insert(kr.hash, kr.key, int32(i), 0)
	}
	nG := t.groups()
	// CSR offsets by dense group id; arena layout order is irrelevant, the
	// per-group subslices just have to be disjoint and sized to the group.
	offsets := make([]int32, nG)
	off := int32(0)
	for g := range offsets {
		offsets[g] = off
		off += t.count[g]
	}
	accums := make([]*aggAccum, len(o.aggs))
	var listVals [][]nested.Value
	for si, spec := range o.aggs {
		accums[si] = newAggAccum(nG, len(bucket), spec.Func)
		if spec.Func == AggCollectList {
			if listVals == nil {
				listVals = make([][]nested.Value, len(o.aggs))
			}
			listVals[si] = make([]nested.Value, len(bucket)) // retained by the output bags
		}
	}
	var idsArena []int64
	var idCur []int32
	if capture {
		// The contributing-identifier collection is only materialised when
		// provenance is captured — it is the dominant share of the
		// aggregation's capture cost (Sec. 7.3.1). Ownership of each group's
		// subslice transfers to the sink (ps.Agg).
		idsArena, idCur = make([]int64, len(bucket)), make([]int32, nG)
	}
	// Chunked so that the specs' passes over the same rows stay
	// cache-resident: a chunk's rows are copied out of the keyed rows once,
	// and each spec gathers its input off them, both into a borrowed scratch.
	sc := getStageScratch(0)
	defer putStageScratch(sc)
	n := min(len(bucket), batchSize)
	sc.chunk, sc.vals = grown(sc.chunk, n), grown(sc.vals, n)
	for start := 0; start < len(bucket); start += batchSize {
		end := min(start+batchSize, len(bucket))
		chunk, rows, vals := bucket[start:end], sc.chunk[:end-start], sc.vals[:end-start]
		gix := groupOf[start:end]
		for i := range chunk {
			rows[i] = chunk[i].row
		}
		for si, spec := range o.aggs {
			if len(spec.In) == 0 {
				continue // plain count: group sizes come from the table
			}
			var lv []nested.Value
			if listVals != nil {
				lv = listVals[si]
			}
			gather(spec.In, rows, vals, 0, 1)
			accumulate(spec, accums[si], vals, gix, offsets, lv)
		}
		if idsArena != nil {
			for i, kr := range chunk {
				g := gix[i]
				idsArena[offsets[g]+idCur[g]] = kr.row.ID
				idCur[g]++
			}
		}
	}
	// Emit groups sorted by key, starting from first-seen order so that
	// Compare-equal distinct keys order deterministically. A group's key is
	// that of its first-seen row.
	key := func(g int) nested.Value { return bucket[t.head[g]].key }
	order := make([]int, nG)
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(i, j int) bool { return nested.Compare(key(order[i]), key(order[j])) < 0 })
	out := morselOut{rows: make([]Row, nG), n: nG}
	if capture {
		out.lists = make([][]int64, nG)
	}
	width := shape.Len()
	arena := make([]nested.Value, nG*width) // retained by the output items
	for i, g := range order {
		vals := arena[:width:width]
		arena = arena[width:]
		copy(vals, key(g).FieldValues())
		for si, spec := range o.aggs {
			var lv []nested.Value
			if listVals != nil {
				lv = listVals[si]
			}
			av, err := aggResult(spec, accums[si], int32(g), t.count[g], offsets[g], lv)
			if err != nil {
				return morselOut{}, err
			}
			vals[len(o.groupBy)+si] = av
		}
		out.rows[i].Value = shape.Item(vals...)
		if idsArena != nil {
			o0 := offsets[g]
			out.lists[i] = idsArena[o0 : o0+t.count[g] : o0+t.count[g]]
		}
	}
	return out, nil
}

// accumulate folds the input values of one chunk, gathered in row order
// (absent paths as null), into a spec's accumulators. A non-numeric value
// under sum/avg is recorded per group and reported by aggResult. Specs
// aggResult rejects statically (unknown function) accumulate nothing.
func accumulate(spec AggSpec, a *aggAccum, vals []nested.Value, groupOf []int32, offsets []int32, list []nested.Value) {
	for i, v := range vals {
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
			cr := nested.CompareWidened(v, a.best[g])
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
