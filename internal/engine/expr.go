package engine

import (
	"fmt"
	"strings"

	"pebble/internal/nested"
	"pebble/internal/path"
)

// Expr is a side-effect-free expression evaluated over one data item. Besides
// evaluation, every expression reports the access paths it reads — this is
// what lets operators populate the accessed-path set A of the structural
// provenance model (Def. 4.10) without inspecting opaque code.
type Expr interface {
	// Eval evaluates the expression in the context of item d. Missing
	// attributes evaluate to null rather than failing, mirroring
	// SQL-on-nested-data semantics.
	Eval(d nested.Value) (nested.Value, error)
	// Paths returns the access paths the expression reads, on schema level.
	Paths() []path.Path
	// String renders the expression for plans and error messages.
	String() string
}

// colExpr reads the value at an access path.
type colExpr struct{ p path.Path }

// Col returns an expression reading the given access path, e.g.
// Col("user.id_str"). It panics on malformed paths (construction-time error).
func Col(p string) Expr { return colExpr{p: path.MustParse(p)} }

// ColPath returns an expression reading a pre-parsed access path.
func ColPath(p path.Path) Expr { return colExpr{p: p} }

func (c colExpr) Eval(d nested.Value) (nested.Value, error) {
	v, ok := c.p.Eval(d)
	if !ok {
		return nested.Null(), nil
	}
	return v, nil
}

func (c colExpr) Paths() []path.Path { return []path.Path{c.p.SchemaLevel()} }
func (c colExpr) String() string     { return c.p.String() }

// litExpr is a constant.
type litExpr struct{ v nested.Value }

// Lit returns a constant expression.
func Lit(v nested.Value) Expr { return litExpr{v: v} }

// LitInt, LitString and LitBool are shorthands for common literals.
func LitInt(v int64) Expr      { return litExpr{v: nested.Int(v)} }
func LitString(v string) Expr  { return litExpr{v: nested.StringVal(v)} }
func LitBool(v bool) Expr      { return litExpr{v: nested.Bool(v)} }
func LitDouble(v float64) Expr { return litExpr{v: nested.Double(v)} }

func (l litExpr) Eval(nested.Value) (nested.Value, error) { return l.v, nil }
func (l litExpr) Paths() []path.Path                      { return nil }
func (l litExpr) String() string                          { return l.v.String() }

// cmpOp enumerates comparison operators.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpNames = map[cmpOp]string{
	opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
}

type cmpExpr struct {
	op   cmpOp
	l, r Expr
}

// Eq returns l == r. Comparisons involving null evaluate to false (except Ne,
// which is the negation).
func Eq(l, r Expr) Expr { return cmpExpr{op: opEq, l: l, r: r} }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return cmpExpr{op: opNe, l: l, r: r} }

// Lt returns l < r using the total order of nested.Compare with numeric
// widening.
func Lt(l, r Expr) Expr { return cmpExpr{op: opLt, l: l, r: r} }

// Le returns l <= r.
func Le(l, r Expr) Expr { return cmpExpr{op: opLe, l: l, r: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return cmpExpr{op: opGt, l: l, r: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return cmpExpr{op: opGe, l: l, r: r} }

func (c cmpExpr) Eval(d nested.Value) (nested.Value, error) {
	lv, err := c.l.Eval(d)
	if err != nil {
		return nested.Value{}, err
	}
	rv, err := c.r.Eval(d)
	if err != nil {
		return nested.Value{}, err
	}
	return c.apply(lv, rv), nil
}

// apply is the scalar comparison kernel, shared verbatim between Eval and
// the filter kernel's generic comparison loop (cmpVec) — null handling
// first, then the widened three-way compare.
func (c cmpExpr) apply(lv, rv nested.Value) nested.Value {
	if lv.IsNull() || rv.IsNull() {
		return nested.Bool(c.op == opNe && !(lv.IsNull() && rv.IsNull()))
	}
	return nested.Bool(c.op.truth(nested.CompareWidened(lv, rv)))
}

// truth maps a three-way comparison result to the operator's truth value.
func (op cmpOp) truth(cmp int) bool {
	switch op {
	case opEq:
		return cmp == 0
	case opNe:
		return cmp != 0
	case opLt:
		return cmp < 0
	case opLe:
		return cmp <= 0
	case opGt:
		return cmp > 0
	case opGe:
		return cmp >= 0
	}
	return false
}

func (c cmpExpr) Paths() []path.Path { return append(c.l.Paths(), c.r.Paths()...) }
func (c cmpExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", c.l, cmpNames[c.op], c.r)
}

type boolExpr struct {
	and      bool
	operands []Expr
}

// And returns the conjunction of the operands.
func And(operands ...Expr) Expr { return boolExpr{and: true, operands: operands} }

// Or returns the disjunction of the operands.
func Or(operands ...Expr) Expr { return boolExpr{and: false, operands: operands} }

func (b boolExpr) Eval(d nested.Value) (nested.Value, error) {
	for _, e := range b.operands {
		v, err := e.Eval(d)
		if err != nil {
			return nested.Value{}, err
		}
		truth, ok := v.AsBool()
		if !ok {
			return nested.Value{}, fmt.Errorf("engine: non-boolean operand %s in %s", v, b)
		}
		if b.and && !truth {
			return nested.Bool(false), nil
		}
		if !b.and && truth {
			return nested.Bool(true), nil
		}
	}
	return nested.Bool(b.and), nil
}

func (b boolExpr) Paths() []path.Path {
	var out []path.Path
	for _, e := range b.operands {
		out = append(out, e.Paths()...)
	}
	return out
}

func (b boolExpr) String() string {
	op := " || "
	if b.and {
		op = " && "
	}
	parts := make([]string, len(b.operands))
	for i, e := range b.operands {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, op) + ")"
}

type notExpr struct{ e Expr }

// Not returns the negation of a boolean expression.
func Not(e Expr) Expr { return notExpr{e: e} }

func (n notExpr) Eval(d nested.Value) (nested.Value, error) {
	v, err := n.e.Eval(d)
	if err != nil {
		return nested.Value{}, err
	}
	truth, ok := v.AsBool()
	if !ok {
		return nested.Value{}, fmt.Errorf("engine: non-boolean operand %s in !", v)
	}
	return nested.Bool(!truth), nil
}

func (n notExpr) Paths() []path.Path { return n.e.Paths() }
func (n notExpr) String() string     { return "!" + n.e.String() }

type containsExpr struct{ str, substr Expr }

// Contains returns true when the string value of str contains the string
// value of substr. Null or non-string operands evaluate to false.
func Contains(str, substr Expr) Expr { return containsExpr{str: str, substr: substr} }

func (c containsExpr) Eval(d nested.Value) (nested.Value, error) {
	sv, err := c.str.Eval(d)
	if err != nil {
		return nested.Value{}, err
	}
	subv, err := c.substr.Eval(d)
	if err != nil {
		return nested.Value{}, err
	}
	return c.apply(sv, subv), nil
}

// apply is the scalar containment kernel shared with the filter kernel
// (containsVec); null or non-string operands evaluate to false.
func (c containsExpr) apply(sv, subv nested.Value) nested.Value {
	s, ok1 := sv.AsString()
	sub, ok2 := subv.AsString()
	return nested.Bool(ok1 && ok2 && strings.Contains(s, sub))
}

func (c containsExpr) Paths() []path.Path { return append(c.str.Paths(), c.substr.Paths()...) }
func (c containsExpr) String() string {
	return fmt.Sprintf("contains(%s, %s)", c.str, c.substr)
}

type isNullExpr struct{ e Expr }

// IsNull reports whether the operand evaluates to null.
func IsNull(e Expr) Expr { return isNullExpr{e: e} }

func (i isNullExpr) Eval(d nested.Value) (nested.Value, error) {
	v, err := i.e.Eval(d)
	if err != nil {
		return nested.Value{}, err
	}
	return nested.Bool(v.IsNull()), nil
}

func (i isNullExpr) Paths() []path.Path { return i.e.Paths() }
func (i isNullExpr) String() string     { return fmt.Sprintf("isnull(%s)", i.e) }

type lenExpr struct{ e Expr }

// Len returns the number of elements of a collection-valued operand (0 for
// anything else).
func Len(e Expr) Expr { return lenExpr{e: e} }

func (l lenExpr) Eval(d nested.Value) (nested.Value, error) {
	v, err := l.e.Eval(d)
	if err != nil {
		return nested.Value{}, err
	}
	return nested.Int(int64(v.Len())), nil
}

func (l lenExpr) Paths() []path.Path { return l.e.Paths() }
func (l lenExpr) String() string     { return fmt.Sprintf("len(%s)", l.e) }

// EvalOps reports the static node count of an expression — how many
// expression nodes one Eval visits, ignoring short-circuiting (so it is an
// upper bound for And/Or). The executor multiplies it by the row count to
// attribute bulk expression-evaluation work to operators in the recorder
// (obs.ExprEvals) without touching the per-row hot path. Unknown
// (externally implemented) expressions count as one node.
func EvalOps(e Expr) int {
	switch x := e.(type) {
	case colExpr, litExpr:
		return 1
	case cmpExpr:
		return 1 + EvalOps(x.l) + EvalOps(x.r)
	case boolExpr:
		n := 1
		for _, op := range x.operands {
			n += EvalOps(op)
		}
		return n
	case notExpr:
		return 1 + EvalOps(x.e)
	case containsExpr:
		return 1 + EvalOps(x.str) + EvalOps(x.substr)
	case isNullExpr:
		return 1 + EvalOps(x.e)
	case lenExpr:
		return 1 + EvalOps(x.e)
	}
	return 1
}
