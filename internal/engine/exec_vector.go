package engine

import (
	"fmt"

	"pebble/internal/nested"
)

// filterMorsel filters one partition morsel. The kernel chunks the morsel
// into batches of batchSize rows and evaluates the predicate column-wise;
// when it declines (see evalVec's error contract) the whole morsel re-runs
// through the per-row Eval loop, which is what reproduces the expression
// language's short-circuit semantics: its exact first error, or its exact
// success when short-circuiting avoids the error.
func filterMorsel(pred Expr, rows []Row) ([]pending, error) {
	if out, ok := filterMorselVec(pred, rows); ok {
		return out, nil
	}
	return filterMorselRows(pred, rows)
}

func filterMorselRows(pred Expr, rows []Row) ([]pending, error) {
	out := make([]pending, 0, len(rows))
	for _, r := range rows {
		v, err := pred.Eval(r.Value)
		if err != nil {
			return nil, err
		}
		keep, ok := v.AsBool()
		if !ok {
			return nil, fmt.Errorf("filter predicate %s returned non-boolean %s", pred, v)
		}
		if keep {
			out = append(out, pending{value: r.Value, in1: r.ID})
		}
	}
	return out, nil
}

func filterMorselVec(pred Expr, rows []Row) ([]pending, bool) {
	var out []pending
	for start := 0; start < len(rows); start += batchSize {
		chunk := rows[start:min(start+batchSize, len(rows))]
		b := getBatch(chunk)
		c, err := evalVec(pred, b)
		if err != nil {
			putBatch(b)
			return nil, false
		}
		// The predicate must be boolean on every row (filter does not
		// short-circuit); count survivors first for an exact-size gather.
		// Predicate kernels produce an all-valid bool column (boolCol), so
		// the common case scans the raw truth array without per-row dispatch.
		if c.kind == nested.KindBool && c.valid == nil && !c.bcast {
			keep := 0
			for _, t := range c.bools {
				if t {
					keep++
				}
			}
			if out == nil && keep > 0 {
				out = make([]pending, 0, keep+(len(rows)-start-len(chunk)))
			}
			for i, t := range c.bools {
				if t {
					out = append(out, pending{value: chunk[i].Value, in1: chunk[i].ID})
				}
			}
			putBatch(b)
			continue
		}
		keep := 0
		for i := range chunk {
			truth, ok := asBoolAt(c, i)
			if !ok {
				putBatch(b)
				return nil, false
			}
			if truth {
				keep++
			}
		}
		if out == nil && keep > 0 {
			out = make([]pending, 0, keep+(len(rows)-start-len(chunk)))
		}
		for i := range chunk {
			if truth, _ := asBoolAt(c, i); truth {
				out = append(out, pending{value: chunk[i].Value, in1: chunk[i].ID})
			}
		}
		putBatch(b)
	}
	return out, true
}
