package engine

import (
	"sort"

	"pebble/internal/nested"
	"pebble/internal/obs"
)

// This file implements the extension operators beyond the paper's Sec. 5
// set: distinct, orderBy, and limit. They reuse the unary ⟨id_i, id_o⟩
// association layout; distinct records one association per collapsed
// duplicate so that every witness contributes.

func (e *executor) execDistinct(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions, nil, nil, nested.Null())
	buckets, err := e.shuffle(in, o.id, identityShuffleKey(), e.opts.Partitions, true)
	if err != nil {
		return nil, err
	}
	parts := make([][]pending, e.opts.Partitions)
	err = e.forEachPartition(e.opts.Partitions, func(part int) error {
		type entry struct {
			value nested.Value
			seq   int
			ids   []int64
		}
		byHash := make(map[uint64][]*entry)
		var order []*entry
		for _, kr := range buckets[part] {
			h := kr.hash // cached by the shuffle; no rehash per row
			var found *entry
			for _, cand := range byHash[h] {
				if nested.Equal(cand.value, kr.row.Value) {
					found = cand
					break
				}
			}
			if found == nil {
				found = &entry{value: kr.row.Value, seq: kr.seq} //pebblevet:ignore hotalloc -- one allocation per distinct value, not per row
				byHash[h] = append(byHash[h], found)
				order = append(order, found) //pebblevet:ignore hotalloc -- grows once per distinct value; distinct count is data-dependent
			}
			if kr.seq < found.seq {
				found.seq = kr.seq
			}
			found.ids = append(found.ids, kr.row.ID)
		}
		sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
		out := make([]pending, 0, len(order))
		for _, en := range order {
			sort.Slice(en.ids, func(i, j int) bool { return en.ids[i] < en.ids[j] })
			out = append(out, pending{value: en.value, inIDs: en.ids})
		}
		parts[part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.finalize(o.id, parts, assocMultiUnary)
}

func (e *executor) execOrderBy(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions, nil, nil, nested.Null())
	type keyedSortRow struct {
		row  Row
		keys []nested.Value
		seq  int
	}
	rows := in.Rows()
	if rec := e.opts.Recorder; rec != nil {
		sortOps := 0
		for _, k := range o.sortKeys {
			sortOps += EvalOps(k)
		}
		rec.Add(o.id, 0, obs.RowsIn, int64(len(rows)))
		rec.Add(o.id, 0, obs.ExprEvals, int64(len(rows))*int64(sortOps))
	}
	sorted := make([]keyedSortRow, len(rows))
	// One flat backing array; each row keeps a distinct full-cap subslice.
	width := len(o.sortKeys)
	flat := make([]nested.Value, len(rows)*width)
	for i, r := range rows {
		ks := flat[i*width : (i+1)*width : (i+1)*width]
		for j, k := range o.sortKeys {
			v, err := k.Eval(r.Value)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		sorted[i] = keyedSortRow{row: r, keys: ks, seq: i}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		for k := range sorted[i].keys {
			c := compareWidened(sorted[i].keys[k], sorted[j].keys[k])
			if c != 0 {
				if o.sortDesc {
					return c > 0
				}
				return c < 0
			}
		}
		return sorted[i].seq < sorted[j].seq // stable on ties
	})
	// A total order is a single logical partition; chunk it contiguously so
	// partition-major iteration preserves the order.
	out := make([]pending, len(sorted))
	for i, sr := range sorted {
		out[i] = pending{value: sr.row.Value, in1: sr.row.ID}
	}
	return e.finalize(o.id, chunkContiguous(out, e.opts.Partitions), assocUnary)
}

func (e *executor) execLimit(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions, nil, nil, nested.Null())
	rows := in.Rows()
	e.opts.Recorder.Add(o.id, 0, obs.RowsIn, int64(len(rows)))
	n := o.limit
	if n < 0 {
		n = 0
	}
	if n > len(rows) {
		n = len(rows)
	}
	out := make([]pending, n)
	for i := 0; i < n; i++ {
		out[i] = pending{value: rows[i].Value, in1: rows[i].ID}
	}
	return e.finalize(o.id, chunkContiguous(out, e.opts.Partitions), assocUnary)
}

// chunkContiguous splits rows into at most parts contiguous chunks so that
// partition-major iteration preserves the slice order.
func chunkContiguous(rows []pending, parts int) [][]pending {
	if parts < 1 {
		parts = 1
	}
	if parts > len(rows) && len(rows) > 0 {
		parts = len(rows)
	}
	if len(rows) == 0 {
		return [][]pending{nil}
	}
	out := make([][]pending, 0, parts)
	chunk := (len(rows) + parts - 1) / parts
	for start := 0; start < len(rows); start += chunk {
		end := start + chunk
		if end > len(rows) {
			end = len(rows)
		}
		out = append(out, rows[start:end])
	}
	return out
}
