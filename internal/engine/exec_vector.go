package engine

import (
	"fmt"

	"pebble/internal/nested"
)

// filterMorsel filters one partition morsel: it selects the surviving rows,
// then writes them — once — to d. The kernel chunks the morsel into batches
// of batchSize rows and evaluates the predicate column-wise; when it declines
// (see evalVec's error contract) the whole morsel re-runs through the per-row
// Eval loop, which is what reproduces the expression language's
// short-circuit semantics: its exact first error, or its exact success when
// short-circuiting avoids the error.
func filterMorsel(pred Expr, in []Row, d morselDst) (morselOut, error) {
	d.sc.sel, d.sc.vals = grown(d.sc.sel, len(in)), grown(d.sc.vals, min(len(in), batchSize))
	sel, ok := filterSelectVec(pred, in, d.sc.sel[:0], d.sc.vals)
	if !ok {
		var err error
		if sel, err = filterSelectRows(pred, in, d.sc.sel[:0]); err != nil {
			return morselOut{}, err
		}
	}
	out := d.out(len(sel))
	for i, at := range sel {
		out.rows[i] = Row{ID: int64(i), Value: in[at].Value}
	}
	if out.in1 != nil {
		for i, at := range sel {
			out.in1[i] = in[at].ID
		}
	}
	return out, nil
}

// filterSelectRows appends the index of every row the predicate keeps to sel
// (which has room for all of them), evaluating row by row.
func filterSelectRows(pred Expr, rows []Row, sel []int32) ([]int32, error) {
	for i := range rows {
		v, err := pred.Eval(rows[i].Value)
		if err != nil {
			return nil, err
		}
		keep, ok := v.AsBool()
		if !ok {
			return nil, fmt.Errorf("filter predicate %s returned non-boolean %s", pred, v)
		}
		if keep {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}

// filterSelectVec is filterSelectRows through the column kernel; ok is false
// when the kernel declines the morsel. The batch gathers into buf, which
// holds a chunk.
func filterSelectVec(pred Expr, rows []Row, sel []int32, buf []nested.Value) (_ []int32, ok bool) {
	b := &batch{vals: buf}
	for start := 0; start < len(rows); start += batchSize {
		chunk := rows[start:min(start+batchSize, len(rows))]
		b.reset(chunk)
		c, err := evalVec(pred, b)
		if err != nil {
			return nil, false
		}
		// The predicate must be boolean on every row (filter does not
		// short-circuit). Predicate kernels produce an all-valid bool column
		// (boolCol), so the common case scans the raw truth array without
		// per-row dispatch.
		if c.kind == nested.KindBool && c.valid == nil && !c.bcast {
			for i, t := range c.bools {
				if t {
					sel = append(sel, int32(start+i))
				}
			}
			continue
		}
		for i := range chunk {
			truth, ok := asBoolAt(c, i)
			if !ok {
				return nil, false
			}
			if truth {
				sel = append(sel, int32(start+i))
			}
		}
	}
	return sel, true
}
