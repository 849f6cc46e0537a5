// Package determinism flags sources of run-to-run nondeterminism in code
// that must be byte-stable across executions and worker counts: map
// iteration whose order can leak into results, identifiers, provenance, or
// rendered reports, and wall-clock / global-randomness calls inside the
// packages that produce identifiers and provenance.
//
// Map ranges are allowed when their bodies are provably order-insensitive —
// writes into another map, integer accumulation, delete — or when they only
// collect keys/values into slices that the enclosing function subsequently
// sorts (the repo's sorted-key idiom). Anything else needs an explicit
// `//pebblevet:ignore determinism -- reason` directive.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pebble/internal/analysis"
	"pebble/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: `flag nondeterministic map iteration and time/rand use in deterministic paths

Results, identifiers, and captured provenance must be byte-identical across
runs and Options.Workers settings (see internal/engine/schedule.go). This
analyzer flags range-over-map statements unless the body is order-insensitive
or feeds the collect-then-sort idiom, and flags time.Now and global math/rand
functions inside the identifier/provenance-producing packages.`,
	Run: run,
}

// idPkgs scopes the time.Now / global-rand checks: import paths (plus their
// subpackages) where wall-clock time or an unseeded global generator could
// leak into identifiers, provenance, or generated datasets.
var idPkgs string

// exemptPkgs subtracts from idPkgs: import paths (plus their subpackages)
// where wall-clock use is an explicit part of the contract and never reaches
// provenance bytes. The service layer is the canonical case — pebbled stamps
// job Created/Started/Finished times and Retry-After hints, and the SDK
// polls on wall-clock intervals, while the deterministic capture path those
// jobs run stays inside the idPkgs scope. Listing them here keeps the
// exemption decision in one reviewable place even if idpkgs is later
// broadened to a prefix that would cover them.
var exemptPkgs string

func init() {
	Analyzer.Flags.StringVar(&idPkgs, "idpkgs", strings.Join([]string{
		"pebble/internal/engine",
		"pebble/internal/provenance",
		"pebble/internal/backtrace",
		"pebble/internal/lineage",
		"pebble/internal/nested",
		"pebble/internal/path",
		"pebble/internal/corpus",
		"pebble/internal/workload",
		"pebble/internal/usage",
	}, ","), "comma-separated import paths (with subpackages) subject to the time.Now/math.rand checks")
	Analyzer.Flags.StringVar(&exemptPkgs, "exemptpkgs", strings.Join([]string{
		"pebble/internal/server",
		"pebble/pkg/sdk",
	}, ","), "comma-separated import paths (with subpackages) exempt from the time.Now/math.rand checks even when matched by -idpkgs: packages whose wall-clock use is part of their contract (job timestamps, retry hints) and never enters provenance")
}

func run(pass *analysis.Pass) (interface{}, error) {
	checkClock := inScope(pass.Pkg.Path())
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					checkMapRange(pass, fd, n)
				case *ast.CallExpr:
					if checkClock {
						checkClockAndRand(pass, n)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

func inScope(pkgPath string) bool {
	return !matchesList(pkgPath, exemptPkgs) && matchesList(pkgPath, idPkgs)
}

// matchesList reports whether pkgPath equals an entry of the comma-separated
// list or lives under one as a subpackage.
func matchesList(pkgPath, list string) bool {
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if pkgPath == entry || strings.HasPrefix(pkgPath, entry+"/") {
			return true
		}
	}
	return false
}

// checkMapRange reports rs unless its body is order-insensitive or collects
// into slices that fd later sorts.
func checkMapRange(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if rs.Key == nil && rs.Value == nil {
		// `for range m` cannot observe iteration order through its variables;
		// an order-insensitive repetition count.
		return
	}
	collected := make(map[types.Object]bool)
	if !orderInsensitive(pass, rs.Body.List, collected) {
		pass.Reportf(rs.Pos(), "map iteration order is nondeterministic here; collect the keys and sort them first (or annotate //pebblevet:ignore determinism -- reason)")
		return
	}
	if len(collected) == 0 {
		return
	}
	if !sortedLater(pass, fd.Body, collected) {
		pass.Reportf(rs.Pos(), "map keys/values are collected here but never sorted in %s; sort them before use to keep iteration-order effects out of the output", fd.Name.Name)
	}
}

// orderInsensitive reports whether executing stmts in any iteration order
// yields identical state, tracking slice variables that merely accumulate
// (they are fine if sorted afterwards — the caller checks that).
func orderInsensitive(pass *analysis.Pass, stmts []ast.Stmt, collected map[types.Object]bool) bool {
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(pass, st, collected) {
				return false
			}
		case *ast.IncDecStmt:
			if !isInteger(pass, st.X) {
				return false
			}
		case *ast.ExprStmt:
			// delete(m, k) commutes across iterations (each key visited once),
			// and sorting a slice in the body is itself the determinism fix.
			if call, ok := st.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && pass.TypesInfo.Uses[id] == types.Universe.Lookup("delete") {
					continue
				}
				if isSortCall(pass, call.Fun) {
					continue
				}
			}
			return false
		case *ast.IfStmt:
			if st.Init != nil {
				init, ok := st.Init.(*ast.AssignStmt)
				if !ok || init.Tok != token.DEFINE {
					return false // only per-iteration locals in if-init
				}
			}
			if !orderInsensitive(pass, st.Body.List, collected) {
				return false
			}
			if st.Else != nil {
				var elseStmts []ast.Stmt
				switch e := st.Else.(type) {
				case *ast.BlockStmt:
					elseStmts = e.List
				default:
					elseStmts = []ast.Stmt{e}
				}
				if !orderInsensitive(pass, elseStmts, collected) {
					return false
				}
			}
		case *ast.BlockStmt:
			if !orderInsensitive(pass, st.List, collected) {
				return false
			}
		case *ast.RangeStmt, *ast.ForStmt:
			var body *ast.BlockStmt
			if r, ok := st.(*ast.RangeStmt); ok {
				body = r.Body
			} else {
				body = st.(*ast.ForStmt).Body
			}
			if !orderInsensitive(pass, body.List, collected) {
				return false
			}
		case *ast.DeclStmt, *ast.EmptyStmt:
			// Local declarations are per-iteration state.
		case *ast.BranchStmt:
			if st.Tok != token.CONTINUE {
				return false // break/goto make effects order-dependent
			}
		default:
			return false
		}
	}
	return true
}

// orderInsensitiveAssign accepts the three assignment shapes that commute
// across iteration orders: slice accumulation v = append(v, ...), writes
// into a map (each range key distinct), and integer accumulation.
func orderInsensitiveAssign(pass *analysis.Pass, st *ast.AssignStmt, collected map[types.Object]bool) bool {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		// Per-iteration locals like k, v := ... are fine only for :=.
		if st.Tok == token.DEFINE {
			return true
		}
		return false
	}
	lhs, rhs := st.Lhs[0], st.Rhs[0]
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		if id, ok := lhs.(*ast.Ident); ok {
			if call, ok := rhs.(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && pass.TypesInfo.Uses[fn] == types.Universe.Lookup("append") {
					if len(call.Args) > 0 {
						if base, ok := call.Args[0].(*ast.Ident); ok && base.Name == id.Name {
							if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
								collected[obj] = true
								return true
							}
						}
					}
				}
				// One interprocedural hop: a local helper called from the
				// body can leak iteration order through its own writes even
				// though the result lands in a per-iteration local.
				if fd := localCallee(pass, call); fd != nil && helperOrderSensitive(pass, fd) {
					return false
				}
			}
			// Defining a fresh per-iteration local is harmless.
			return st.Tok == token.DEFINE
		}
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if t := pass.TypesInfo.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return true
				}
			}
		}
		return false
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Integer accumulation commutes; float addition does not (rounding).
		return isInteger(pass, lhs)
	}
	return false
}

func isInteger(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortedLater reports whether any collected variable is passed to a sorting
// call (package sort or slices, or a helper whose name starts with "sort")
// somewhere in the enclosing function body.
func sortedLater(pass *analysis.Pass, body *ast.BlockStmt, collected map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(pass, call.Fun) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil && collected[obj] {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func isSortCall(pass *analysis.Pass, fun ast.Expr) bool {
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok {
				p := pn.Imported().Path()
				return p == "sort" || p == "slices"
			}
		}
		return strings.HasPrefix(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.HasPrefix(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// localCallee resolves a call to its *ast.FuncDecl when the callee is a
// plain function declared in this package's files; nil otherwise (methods,
// builtins, imported functions, function values).
func localCallee(pass *analysis.Pass, call *ast.CallExpr) *ast.FuncDecl {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pass.TypesInfo.Defs[fd.Name] == types.Object(fn) {
				return fd
			}
		}
	}
	return nil
}

// helperOrderSensitive is the one-hop interprocedural check (DESIGN.md §11):
// a helper invoked once per map iteration makes the order observable when it
// stores an argument-derived value by index into a slice parameter — slices
// are shared across iterations, and colliding indices resolve by call order.
// The dataflow engine's taint lattice tracks argument influence through the
// helper's body; one hop only, helpers of helpers are not followed.
func helperOrderSensitive(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Body == nil || fd.Type.Params == nil {
		return false
	}
	params := make(map[*types.Var]bool)
	sliceParams := make(map[*types.Var]bool)
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			v, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			params[v] = true
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				sliceParams[v] = true
			}
		}
	}
	if len(sliceParams) == 0 {
		return false
	}
	r := dataflow.NewReaching(fd, pass.TypesInfo)
	taint := dataflow.NewTaint(r, dataflow.TaintConfig{
		Source: func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			if !ok {
				return false
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			return ok && params[v]
		},
	})
	for _, n := range r.Graph.Nodes {
		if n.Stmt == nil {
			continue
		}
		as, ok := n.Stmt.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for i, lhs := range as.Lhs {
			ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
			if !ok {
				continue
			}
			base, ok := ast.Unparen(ix.X).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pass.TypesInfo.Uses[base].(*types.Var)
			if !ok || !sliceParams[v] {
				continue
			}
			if taint.ExprTaintedAt(ix.Index, n) || (i < len(as.Rhs) && taint.ExprTaintedAt(as.Rhs[i], n)) {
				return true
			}
		}
	}
	return false
}

// checkClockAndRand flags time.Now and the global math/rand convenience
// functions (whose shared source makes output depend on call interleaving).
func checkClockAndRand(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" {
			pass.Reportf(call.Pos(), "time.Now in an identifier/provenance-producing package makes output depend on the wall clock; thread a timestamp in explicitly (or annotate //pebblevet:ignore determinism -- reason)")
		}
	case "math/rand", "math/rand/v2":
		switch sel.Sel.Name {
		case "New", "NewSource", "NewZipf":
			return // constructing an explicitly seeded generator is the fix
		}
		if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc {
			pass.Reportf(call.Pos(), "global math/rand.%s draws from the shared, seed-racy source; use an explicitly seeded *rand.Rand", sel.Sel.Name)
		}
	}
}
