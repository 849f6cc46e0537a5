package dataflow

import (
	"go/ast"
	"go/types"
)

// TaintConfig configures a value-flow ("taint") analysis over a Reaching
// solution. The lattice per definition is boolean (tainted / untainted) and
// the fixpoint is monotone: once a definition taints it stays tainted.
type TaintConfig struct {
	// Source reports whether evaluating e (typically a call) produces a
	// tainted value directly; every other call result is untainted.
	Source func(e ast.Expr) bool
}

// Taint is the solved taint state over a Reaching solution.
type Taint struct {
	R       *Reaching
	cfg     TaintConfig
	tainted map[*Def]bool
}

// NewTaint runs the taint fixpoint: a definition is tainted if its defining
// expression is tainted given the definitions reaching its node. Entry defs
// and defs with no Rhs/Call are never tainted by the fixpoint itself (the
// caller can seed them via ExprTainted queries on specific program points).
func NewTaint(r *Reaching, cfg TaintConfig) *Taint {
	t := &Taint{R: r, cfg: cfg, tainted: make(map[*Def]bool)}
	t.resolve()
	return t
}

func (t *Taint) resolve() {
	for changed := true; changed; {
		changed = false
		for _, d := range t.R.Defs {
			if t.tainted[d] || d.Node == nil {
				continue
			}
			var src ast.Expr
			if d.Rhs != nil {
				src = d.Rhs
			} else if d.Call != nil {
				src = d.Call
			} else {
				continue
			}
			if t.ExprTaintedAt(src, d.Node) {
				t.tainted[d] = true
				changed = true
			}
		}
	}
}

// VarTaintedAt reports whether any definition of v reaching node n is
// tainted (a may-analysis: one tainted path suffices).
func (t *Taint) VarTaintedAt(v *types.Var, n *Node) bool {
	for _, d := range t.R.ReachingAt(v, n) {
		if t.tainted[d] {
			return true
		}
	}
	return false
}

// ExprTaintedAt reports whether evaluating e at node n may yield a tainted
// value. Propagation rules (conservative, documented in DESIGN.md §11):
//
//   - a Source expression is tainted;
//   - an identifier is tainted if a tainted definition reaches n;
//   - parens, unary &/*, type assertions, and slice expressions propagate;
//   - composite literals are tainted if any element/value is (the aggregate
//     aliases the element for reference types — over-approximated for all);
//   - selector expressions propagate from their base only when the selected
//     field/result has pointer-like type (aliasing is possible);
//   - index *reads* do not propagate (b.cols[i] yields an element the
//     analyzers model separately); call results are untainted unless Source
//     says otherwise.
func (t *Taint) ExprTaintedAt(e ast.Expr, n *Node) bool {
	if t.cfg.Source != nil && t.cfg.Source(e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := t.R.Info.Uses[e].(*types.Var); ok {
			return t.VarTaintedAt(v, n)
		}
		if v, ok := t.R.Info.Defs[e].(*types.Var); ok {
			return t.VarTaintedAt(v, n)
		}
		return false
	case *ast.ParenExpr:
		return t.ExprTaintedAt(e.X, n)
	case *ast.StarExpr:
		return t.ExprTaintedAt(e.X, n)
	case *ast.UnaryExpr:
		return t.ExprTaintedAt(e.X, n)
	case *ast.TypeAssertExpr:
		return t.ExprTaintedAt(e.X, n)
	case *ast.SliceExpr:
		return t.ExprTaintedAt(e.X, n)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.ExprTaintedAt(el, n) {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		if tv, ok := t.R.Info.Types[e]; ok && !pointerLike(tv.Type) {
			return false
		}
		return t.ExprTaintedAt(e.X, n)
	}
	return false
}

// pointerLike reports whether values of type t can alias other storage:
// pointers, slices, maps, channels, functions, interfaces, unsafe pointers,
// and composites containing them.
func pointerLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerLike(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return pointerLike(u.Elem())
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
