// Package hotalloc flags per-row allocations in the engine's morsel loops.
// A hot loop is a range over a slice of row-shaped elements (the -hottypes
// list: Row, keyedRow) or any loop nested inside one — the code that
// runs once per data row. Inside such loops, slice/map composite literals,
// make, new, &T{} heap literals, explicit interface conversions (boxing),
// the slice-building accessors of nested.Value (Fields, AttrNames), and
// append growth on locals with no pre-sized definition all allocate per row
// and show up directly in morsel throughput; they must be pool-fed, hoisted,
// or pre-sized outside the loop, or carry a //pebblevet:ignore hotalloc
// justification.
//
// The append check uses the dataflow engine's reaching definitions: an
// append target is clean when ANY reaching definition is pre-sized (make with
// capacity, make with non-zero length, or an x[:0]-style reuse) — a
// deliberate under-approximation that keeps the check quiet on the
// hoisted-backing-array idiom. Struct value literals (Row{...}) are not
// allocations; implicit interface boxing at call sites is out of scope.
// Both documented in DESIGN.md §11.
package hotalloc

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"pebble/internal/analysis"
	"pebble/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: `flag allocations inside per-row morsel loops in the configured packages

Composite literals of slice/map type, make, new, &T{}, explicit interface
conversions, Value.Fields() and Value.AttrNames() calls, and append growth on
non-pre-sized locals inside a hot loop (a
range over rows, or any loop nested in one) allocate once per data row.
Hoist, pre-size, or pool the allocation, or annotate an accepted one with
//pebblevet:ignore hotalloc -- reason.`,
	Run: run,
}

var (
	pkgs     string
	hottypes string
)

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", "pebble/internal/engine", "comma-separated import paths whose loops are checked")
	Analyzer.Flags.StringVar(&hottypes, "hottypes", "Row,keyedRow", "comma-separated element type names whose slices mark a per-row loop")
}

func run(pass *analysis.Pass) (interface{}, error) {
	watched := make(map[string]bool)
	for _, p := range strings.Split(pkgs, ",") {
		if p = strings.TrimSpace(p); p != "" {
			watched[p] = true
		}
	}
	if pass.Pkg != nil && !watched[pass.Pkg.Path()] {
		return nil, nil
	}
	hot := make(map[string]bool)
	for _, t := range strings.Split(hottypes, ",") {
		if t = strings.TrimSpace(t); t != "" {
			hot[t] = true
		}
	}

	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, hot, fd, nil)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, hot, nil, lit)
				}
				return true
			})
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, hot map[string]bool, fd *ast.FuncDecl, lit *ast.FuncLit) {
	var body *ast.BlockStmt
	var r *dataflow.Reaching // built lazily: only append checks need it
	if fd != nil {
		body = fd.Body
	} else {
		body = lit.Body
	}
	reaching := func() *dataflow.Reaching {
		if r == nil {
			if fd != nil {
				r = dataflow.NewReaching(fd, pass.TypesInfo)
			} else {
				r = dataflow.NewReachingLit(lit, pass.TypesInfo)
			}
		}
		return r
	}

	// Find the hot loops: per-row ranges and everything nested inside them.
	var hotLoops []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(lit) {
			return false // closures are analyzed on their own
		}
		rs, ok := n.(*ast.RangeStmt)
		if ok && rowRange(pass.TypesInfo, hot, rs) {
			hotLoops = append(hotLoops, rs)
			return true
		}
		return true
	})
	if len(hotLoops) == 0 {
		return
	}
	inHot := func(n ast.Node) bool {
		for _, l := range hotLoops {
			// The allocation must be in the loop BODY, not the range header.
			if rs := l.(*ast.RangeStmt); n.Pos() >= rs.Body.Pos() && n.End() <= rs.Body.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(lit) {
			return false
		}
		if n == nil || !inHot(n) {
			return true
		}
		switch e := n.(type) {
		case *ast.CompositeLit:
			t := pass.TypesInfo.Types[e].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(e.Pos(), "slice literal allocated in a per-row loop; hoist or pool it — this allocation recurs once per row")
			case *types.Map:
				pass.Reportf(e.Pos(), "map literal allocated in a per-row loop; hoist it — this allocation recurs once per row")
			}
		case *ast.UnaryExpr:
			if cl, ok := e.X.(*ast.CompositeLit); ok && e.Op.String() == "&" {
				pass.Reportf(e.Pos(), "&%s{...} heap allocation in a per-row loop; reuse a pooled or hoisted object — this allocation recurs once per row", typeName(pass.TypesInfo.Types[cl].Type))
			}
		case *ast.CallExpr:
			checkCall(pass, hot, reaching, e)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, hot map[string]bool, reaching func() *dataflow.Reaching, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if isBuiltin(pass.TypesInfo, fun) {
				pass.Reportf(call.Pos(), "make in a per-row loop allocates once per row; hoist the buffer outside the loop and reslice per row")
			}
		case "new":
			if isBuiltin(pass.TypesInfo, fun) {
				pass.Reportf(call.Pos(), "new in a per-row loop allocates once per row; reuse a hoisted or pooled object")
			}
		case "append":
			if isBuiltin(pass.TypesInfo, fun) {
				checkAppend(pass, reaching, call)
			}
		default:
			// Explicit interface conversion: T(x) where T is an interface
			// type boxes x per row.
			if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
				if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
					pass.Reportf(call.Pos(), "conversion to interface type in a per-row loop boxes the value once per row; keep it concrete inside the loop")
				}
			}
		}
	case *ast.SelectorExpr:
		if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
			if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
				pass.Reportf(call.Pos(), "conversion to interface type in a per-row loop boxes the value once per row; keep it concrete inside the loop")
			}
		}
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && sliceBuilders.MatchString(f.FullName()) {
			pass.Reportf(call.Pos(), "Value.%s() builds a slice per call, once per row in a per-row loop; read the item through NumFields, FieldName and FieldValue", f.Name())
		}
	}
}

// sliceBuilders matches the accessors of nested.Value that allocate their
// result on every call, by the full name of the method.
var sliceBuilders = regexp.MustCompile(`\bValue\)\.(Fields|AttrNames)$`)

// checkAppend flags append targets that can only grow by reallocation: a
// plain local identifier none of whose reaching definitions is pre-sized.
// Appends through fields or elements are skipped (the container's sizing is
// not visible intraprocedurally — documented incompleteness).
func checkAppend(pass *analysis.Pass, reaching func() *dataflow.Reaching, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	r := reaching()
	n := nodeContaining(r, call)
	if n == nil {
		return
	}
	// Loop-carried self-appends (x = append(x, ...)) preserve whatever sizing
	// the initial definition had; only the non-append "initial" defs decide.
	initial := 0
	for _, d := range r.ReachingAt(v, n) {
		if isSelfAppend(pass.TypesInfo, d, v) {
			continue
		}
		initial++
		if d.Node == nil || preSized(pass.TypesInfo, d.Rhs) {
			return // some path provides a pre-sized (or caller-owned) buffer
		}
	}
	if initial == 0 {
		return
	}
	pass.Reportf(call.Pos(), "append to %s grows an unsized buffer in a per-row loop; pre-size it outside the loop (make with capacity) or reuse with [:0]", v.Name())
}

// isSelfAppend reports whether def d rebinds v from an append whose first
// argument is v itself (the loop-carried half of the append idiom).
func isSelfAppend(info *types.Info, d *dataflow.Def, v *types.Var) bool {
	if d.Rhs == nil {
		return false
	}
	call, ok := ast.Unparen(d.Rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" || !isBuiltin(info, fun) {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	target, _ := info.Uses[id].(*types.Var)
	return target == v
}

// preSized reports whether a defining expression provides capacity up front:
// make with an explicit capacity, make with a non-zero length, or a
// [:0]-style reslice of an existing buffer.
func preSized(info *types.Info, rhs ast.Expr) bool {
	rhs = ast.Unparen(rhs)
	switch e := rhs.(type) {
	case *ast.CallExpr:
		fun, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || fun.Name != "make" || !isBuiltin(info, fun) {
			return false
		}
		if len(e.Args) >= 3 {
			return true // explicit capacity
		}
		if len(e.Args) == 2 {
			// Non-zero constant length: elements are assigned by index.
			if tv, ok := info.Types[e.Args[1]]; ok && tv.Value != nil {
				return tv.Value.String() != "0"
			}
			return true // dynamic length, e.g. make([]T, len(rows))
		}
		return false
	case *ast.SliceExpr:
		// buf[:0] and friends reuse existing backing storage.
		return true
	}
	return false
}

// rowRange reports whether rs ranges over a slice (or array) whose element's
// named type is in the hot set; pointer elements count too.
func rowRange(info *types.Info, hot map[string]bool, rs *ast.RangeStmt) bool {
	t := info.Types[rs.X].Type
	if t == nil {
		return false
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	if p, ok := elem.Underlying().(*types.Pointer); ok {
		elem = p.Elem()
	}
	named, ok := elem.(*types.Named)
	return ok && hot[named.Obj().Name()]
}

func nodeContaining(r *dataflow.Reaching, target ast.Node) *dataflow.Node {
	var best *dataflow.Node
	for _, n := range r.Graph.Nodes {
		if n.Stmt == nil {
			continue
		}
		if target.Pos() >= n.Stmt.Pos() && target.End() <= n.Stmt.End() {
			// Prefer the innermost (smallest) statement.
			if best == nil || n.Stmt.Pos() >= best.Stmt.Pos() && n.Stmt.End() <= best.Stmt.End() {
				best = n
			}
		}
	}
	return best
}

func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

func typeName(t types.Type) string {
	if t == nil {
		return "T"
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
