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

func (e *executor) execDistinct(o *Op) ([]morselOut, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions)
	buckets, _, err := e.shuffle(in, o.id, identityShuffleKey(), e.opts.Partitions, true)
	if err != nil {
		return nil, err
	}
	capture := e.opts.Sink != nil
	outs := make([]morselOut, e.opts.Partitions)
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
				found = &entry{value: kr.row.Value, seq: kr.seq}
				byHash[h] = append(byHash[h], found)
				order = append(order, found)
			}
			if kr.seq < found.seq {
				found.seq = kr.seq
			}
			if capture {
				found.ids = append(found.ids, kr.row.ID)
			}
		}
		sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
		out := morselOut{rows: make([]Row, len(order)), n: len(order)}
		if capture {
			out.Lists = make([][]int64, len(order))
		}
		for i, en := range order {
			out.rows[i].Value = en.value
			if capture {
				sort.Slice(en.ids, func(i, j int) bool { return en.ids[i] < en.ids[j] })
				out.Lists[i] = en.ids
			}
		}
		outs[part] = out
		return nil
	})
	return outs, err
}

func (e *executor) execOrderBy(o *Op) ([]morselOut, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions)
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
			c := nested.CompareWidened(sorted[i].keys[k], sorted[j].keys[k])
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
	for i, sr := range sorted {
		rows[i] = sr.row // rows is Rows' fresh slice: ours to reorder
	}
	return e.chunkContiguous(rows), nil
}

func (e *executor) execLimit(o *Op) ([]morselOut, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions)
	total := in.Len()
	e.opts.Recorder.Add(o.id, 0, obs.RowsIn, int64(total))
	rows := make([]Row, 0, max(min(o.limit, total), 0))
	for _, p := range in.Partitions {
		rows = append(rows, p[:min(len(p), cap(rows)-len(rows))]...)
	}
	return e.chunkContiguous(rows), nil
}

// chunkContiguous splits rows — a slice the operator owns, every row still
// carrying its input identifier — into at most Options.Partitions contiguous
// morsels, so that partition-major iteration preserves the slice order.
func (e *executor) chunkContiguous(rows []Row) []morselOut {
	parts := min(e.opts.Partitions, max(len(rows), 1))
	chunk := max((len(rows)+parts-1)/parts, 1)
	outs := make([]morselOut, 0, parts)
	// No rows still make one (empty) morsel.
	for start := 0; start == 0 || start < len(rows); start += chunk {
		end := min(start+chunk, len(rows))
		m := morselOut{rows: rows[start:end:end], n: end - start}
		if e.opts.Sink != nil {
			m.In = make([]int64, m.n)
			for i := range m.rows {
				m.In[i] = m.rows[i].ID
			}
		}
		outs = append(outs, m)
	}
	return outs
}
