package engine

import (
	"errors"
	"strings"

	"pebble/internal/nested"
)

// Column-wise expression evaluation for the filter kernel: evalVec runs one
// expression node over a whole batch and returns a column. Typed fast paths
// (int/double/string/bool comparisons over decoded scalar columns) avoid
// materialising nested.Value per row; everything else falls through to the
// shared scalar kernels of expr.go applied column-wise, so the kernel and
// Expr.Eval compute through the same code for the same (row, node) pair.
//
// Error contract: a non-nil error from evalVec does NOT surface to the user.
// Column-wise evaluation visits a superset of the (row, node) pairs Eval
// visits (And/Or evaluate every operand column before the row-order truth
// scan short-circuits), so it can trip over a type error on a row Eval would
// have skipped. The caller (filterMorsel) must therefore discard the kernel
// attempt and re-run the whole partition morsel through the per-row Eval
// loop, which reproduces the exact first error — or the exact success, when
// short-circuiting avoids the error. Every Eval error also trips the kernel
// (same kernels, superset of pairs), so a successful kernel evaluation is
// always byte-identical to a successful row evaluation.
var errFallback = errors.New("engine: column-wise evaluation declined; re-run the morsel row by row")

// evalVec evaluates e over every row of the batch.
func evalVec(e Expr, b *batch) (*colVec, error) {
	n := b.n()
	switch x := e.(type) {
	case colExpr:
		return b.column(x.p), nil
	case litExpr:
		return constCol(x.v, n), nil
	case cmpExpr:
		l, err := evalVec(x.l, b)
		if err != nil {
			return nil, err
		}
		r, err := evalVec(x.r, b)
		if err != nil {
			return nil, err
		}
		return cmpVec(x, l, r, n), nil
	case boolExpr:
		return boolVec(x, b)
	case notExpr:
		c, err := evalVec(x.e, b)
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			truth, ok := asBoolAt(c, i)
			if !ok {
				return nil, errFallback
			}
			out[i] = !truth
		}
		return boolCol(out), nil
	case containsExpr:
		s, err := evalVec(x.str, b)
		if err != nil {
			return nil, err
		}
		sub, err := evalVec(x.substr, b)
		if err != nil {
			return nil, err
		}
		return containsVec(x, s, sub, n), nil
	case isNullExpr:
		c, err := evalVec(x.e, b)
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = c.isNull(i)
		}
		return boolCol(out), nil
	case lenExpr:
		c, err := evalVec(x.e, b)
		if err != nil {
			return nil, err
		}
		return lenVec(c, n), nil
	}
	// Externally implemented expression: evaluate row-wise into a generic
	// column (the node itself is opaque, but sibling nodes still vectorize).
	vals := make([]nested.Value, n)
	for i := 0; i < n; i++ {
		v, err := e.Eval(b.rows[i].Value)
		if err != nil {
			return nil, errFallback
		}
		vals[i] = v
	}
	return &colVec{n: n, kind: nested.KindInvalid, vals: vals}, nil
}

// asBoolAt extracts the boolean truth of row i with the same semantics as
// Value.AsBool: only a valid KindBool slot is ok.
func asBoolAt(c *colVec, i int) (bool, bool) {
	if c.kind == nested.KindBool {
		p := c.phys(i)
		if c.valid != nil && !c.valid.get(p) {
			return false, false
		}
		return c.bools[p], true
	}
	if c.kind != nested.KindInvalid {
		return false, false
	}
	return c.vals[c.phys(i)].AsBool()
}

// cmpVec compares two columns element-wise. The typed arms replicate the
// scalar kernel exactly: null rows use the null formula of cmpExpr.apply,
// int/int pairs order as integers (nested.CompareWidened → nested.Compare), any
// numeric mix widens to float64 (nested.CompareWidened's AsDouble arm; a NaN sorts
// before every other double), strings and bools order as nested.Compare
// does. Every other column shape goes through the shared
// kernel itself.
func cmpVec(c cmpExpr, l, r *colVec, n int) *colVec {
	out := make([]bool, n)
	lk, rk := l.kind, r.kind
	numeric := func(k nested.Kind) bool { return k == nested.KindInt || k == nested.KindDouble }
	switch {
	case lk == nested.KindInt && rk == nested.KindInt:
		for i := 0; i < n; i++ {
			ln, rn := l.isNull(i), r.isNull(i)
			if ln || rn {
				out[i] = c.op == opNe && !(ln && rn)
				continue
			}
			out[i] = c.op.truth(cmpInt64Ord(l.ints[l.phys(i)], r.ints[r.phys(i)]))
		}
	case numeric(lk) && numeric(rk):
		for i := 0; i < n; i++ {
			ln, rn := l.isNull(i), r.isNull(i)
			if ln || rn {
				out[i] = c.op == opNe && !(ln && rn)
				continue
			}
			out[i] = c.op.truth(cmpFloat64Ord(l.floatAt(i), r.floatAt(i)))
		}
	case lk == nested.KindString && rk == nested.KindString:
		for i := 0; i < n; i++ {
			ln, rn := l.isNull(i), r.isNull(i)
			if ln || rn {
				out[i] = c.op == opNe && !(ln && rn)
				continue
			}
			ls, rs := l.strs[l.phys(i)], r.strs[r.phys(i)]
			switch {
			case ls < rs:
				out[i] = c.op.truth(-1)
			case ls > rs:
				out[i] = c.op.truth(1)
			default:
				out[i] = c.op.truth(0)
			}
		}
	case lk == nested.KindBool && rk == nested.KindBool:
		for i := 0; i < n; i++ {
			ln, rn := l.isNull(i), r.isNull(i)
			if ln || rn {
				out[i] = c.op == opNe && !(ln && rn)
				continue
			}
			lb, rb := l.bools[l.phys(i)], r.bools[r.phys(i)]
			switch {
			case !lb && rb:
				out[i] = c.op.truth(-1)
			case lb && !rb:
				out[i] = c.op.truth(1)
			default:
				out[i] = c.op.truth(0)
			}
		}
	default:
		for i := 0; i < n; i++ {
			v := c.apply(l.at(i), r.at(i))
			out[i], _ = v.AsBool()
		}
	}
	return boolCol(out)
}

// floatAt reads a numeric column slot as float64 (the widened view).
func (c *colVec) floatAt(i int) float64 {
	i = c.phys(i)
	if c.kind == nested.KindInt {
		return float64(c.ints[i])
	}
	return c.dbls[i]
}

func cmpInt64Ord(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat64Ord matches the float arms of nested.CompareWidened and nested.Compare:
// a NaN sorts before every other double and equal to itself.
func cmpFloat64Ord(a, b float64) int {
	switch {
	case a < b, a != a && b == b:
		return -1
	case a > b, b != b && a == a:
		return 1
	}
	return 0
}

// boolVec evaluates And/Or: every operand is evaluated as a column, then a
// row-order truth scan applies Eval's short-circuit rule per row. The scan
// checks operands in declaration order and stops at the deciding one, so a
// non-boolean operand only forces the row loop when Eval would have
// inspected it too.
func boolVec(x boolExpr, b *batch) (*colVec, error) {
	n := b.n()
	cols := make([]*colVec, len(x.operands))
	for i, op := range x.operands {
		c, err := evalVec(op, b)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		res := x.and
		for _, c := range cols {
			truth, ok := asBoolAt(c, i)
			if !ok {
				return nil, errFallback
			}
			if x.and && !truth {
				res = false
				break
			}
			if !x.and && truth {
				res = true
				break
			}
		}
		out[i] = res
	}
	return boolCol(out), nil
}

// containsVec applies the containment kernel column-wise, with a typed fast
// path for string/string columns.
func containsVec(c containsExpr, s, sub *colVec, n int) *colVec {
	out := make([]bool, n)
	if s.kind == nested.KindString && sub.kind == nested.KindString {
		for i := 0; i < n; i++ {
			if s.isNull(i) || sub.isNull(i) {
				continue // null operand: false, like AsString failing
			}
			out[i] = strings.Contains(s.strs[s.phys(i)], sub.strs[sub.phys(i)])
		}
		return boolCol(out)
	}
	for i := 0; i < n; i++ {
		v := c.apply(s.at(i), sub.at(i))
		out[i], _ = v.AsBool()
	}
	return boolCol(out)
}

// lenVec maps a column to element counts. Typed columns hold scalars, whose
// Len is always 0, so they reduce to a broadcast zero.
func lenVec(c *colVec, n int) *colVec {
	if c.kind != nested.KindInvalid {
		return &colVec{n: n, kind: nested.KindInt, bcast: true, ints: []int64{0}}
	}
	ints := make([]int64, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(c.vals[c.phys(i)].Len())
	}
	return &colVec{n: n, kind: nested.KindInt, ints: ints}
}
