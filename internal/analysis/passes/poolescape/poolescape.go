// Package poolescape enforces the lifetime contract of pooled buffers. Values
// obtained from a sync.Pool.Get or from the repo's pool helpers (getBatch,
// getCol, the stage scratch) are borrowed: they may be read,
// passed to calls, and stored inside other pooled objects, but they must not
// escape the borrowing function — not via return, not captured by a closure,
// and not stored into a non-pooled struct field, container, global, or
// channel — because the matching Put recycles the backing memory under later
// morsels. Re-use after Put and double Put are flagged directly.
//
// The analysis is the dataflow engine's taint lattice over reaching
// definitions (DESIGN.md §11): pool-get results taint their definitions,
// taint propagates through copies/slices/composites, and escape points check
// the tainted state at the exact CFG node. The functions in the sources, puts
// and exempt sets below are the audited pool boundary and are skipped — they
// hold pooled values by design and are covered by the alias tests instead.
package poolescape

import (
	"go/ast"
	"go/types"

	"pebble/internal/analysis"
	"pebble/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc: `flag pooled values escaping their borrowing function or used after Put

Values from (*sync.Pool).Get or the engine's pool helper functions must not
be returned, captured by closures, stored into non-pooled fields, containers,
globals, or channels, used after being released with Put, or released twice.`,
	Run: run,
}

// The engine's pool boundary (DESIGN.md §13.6): the filter kernel's batches
// and columns, the per-worker scratch of a stage's inner members, and the
// keyTable with the join and aggregate scratch. The set is small and fixed; a
// new pool is a design change that edits these lists.
var (
	// sources return pool-borrowed values; puts release one.
	sources = set("getBatch", "getCol", "getStageScratch",
		"getKeyTable", "getJoinScratch", "getAggScratch", "getAggAccum")
	puts = set("putBatch", "putStageScratch",
		"putKeyTable", "putJoinScratch", "putAggScratch", "putAggAccum")
	// exempt functions complete the audited boundary: their bodies are
	// skipped like those of sources and puts.
	exempt = set("decodeColumn", "column")
	// borrowMethods return values aliasing pooled storage of their receiver.
	borrowMethods = set("column", "keyBytes", "matchedFor")
	// syncCallers (pkg.Func or bare method name) run closure arguments
	// synchronously; closures passed to them cannot outlive a deferred Put.
	syncCallers = set("sort.Slice", "sort.SliceStable", "forEachPartition")
)

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

type checker struct {
	pass *analysis.Pass
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{pass: pass}
	skip := func(name string) bool { return exempt[name] || sources[name] || puts[name] }

	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || skip(fd.Name.Name) {
				continue
			}
			c.checkFunc(dataflow.NewReaching(fd, pass.TypesInfo), fd.Body)
			// Closures get their own intraprocedural analysis: pool values
			// obtained inside the closure must not escape the closure either.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkFunc(dataflow.NewReachingLit(lit, pass.TypesInfo), lit.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// isPoolGet reports whether e obtains a pooled value: a call to
// (*sync.Pool).Get or to one of the source helpers.
func (c *checker) isPoolGet(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return sources[fun.Name]
	case *ast.SelectorExpr:
		if sources[fun.Sel.Name] {
			return true
		}
		return fun.Sel.Name == "Get" && c.isSyncPoolMethod(fun)
	}
	return false
}

func (c *checker) isSyncPoolMethod(sel *ast.SelectorExpr) bool {
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync"
}

// putTarget returns the variable released by statement-level call e
// (put helper or (*sync.Pool).Put with a plain identifier argument), or nil.
func (c *checker) putTarget(e ast.Expr) (*types.Var, *ast.CallExpr) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, nil
	}
	isPut := false
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		isPut = puts[fun.Name]
	case *ast.SelectorExpr:
		isPut = puts[fun.Sel.Name] || (fun.Sel.Name == "Put" && c.isSyncPoolMethod(fun))
	}
	if !isPut {
		return nil, nil
	}
	arg := ast.Unparen(call.Args[0])
	if ue, ok := arg.(*ast.UnaryExpr); ok {
		arg = ast.Unparen(ue.X) // Put(&s) releases s
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v, call
	}
	return nil, nil
}

func (c *checker) checkFunc(r *dataflow.Reaching, body *ast.BlockStmt) {
	taint := dataflow.NewTaint(r, dataflow.TaintConfig{
		Source: c.isPoolGet,
		Borrow: func(call *ast.CallExpr) bool {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return ok && borrowMethods[sel.Sel.Name]
		},
	})
	c.checkEscapes(r, taint)
	c.checkReleases(r)
}

// checkEscapes flags program points where a tainted (pool-borrowed) value
// leaves the function's control.
func (c *checker) checkEscapes(r *dataflow.Reaching, taint *dataflow.Taint) {
	for _, n := range r.Graph.Nodes {
		if n.Stmt == nil {
			continue
		}
		switch s := n.Stmt.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if taint.ExprTaintedAt(res, n) {
					c.pass.Reportf(res.Pos(), "pool-obtained value escapes via return; the pool may recycle its backing memory under the caller — copy it or drop the Put")
				}
			}
		case *ast.AssignStmt:
			c.checkAssign(s, n, taint)
		case *ast.SendStmt:
			if taint.ExprTaintedAt(s.Value, n) {
				c.pass.Reportf(s.Value.Pos(), "pool-obtained value escapes via channel send; the receiver outlives the Put — copy before sending")
			}
		}
		// Closures capturing a tainted variable extend its lifetime past the
		// function's control of Put ordering.
		for _, e := range dataflow.OwnExprs(n.Stmt) {
			c.checkClosures(e, n, taint)
		}
	}
}

func (c *checker) checkAssign(s *ast.AssignStmt, n *dataflow.Node, taint *dataflow.Taint) {
	rhsFor := func(i int) ast.Expr {
		if len(s.Rhs) == len(s.Lhs) {
			return s.Rhs[i]
		}
		return nil // multi-value call: results are untainted
	}
	for i, lhs := range s.Lhs {
		rhs := rhsFor(i)
		if rhs == nil || !taint.ExprTaintedAt(rhs, n) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if !taint.ExprTaintedAt(l.X, n) {
				c.pass.Reportf(lhs.Pos(), "pool-obtained value stored into a field of a non-pooled object; the field outlives the Put — copy it or pool the container")
			}
		case *ast.IndexExpr:
			if !taint.ExprTaintedAt(l.X, n) {
				c.pass.Reportf(lhs.Pos(), "pool-obtained value stored into a non-pooled container; the element outlives the Put — copy it first")
			}
		case *ast.Ident:
			if v, ok := c.pass.TypesInfo.Uses[l].(*types.Var); ok && isPackageLevel(v) {
				c.pass.Reportf(lhs.Pos(), "pool-obtained value stored into package-level variable %s; it outlives every morsel — copy it first", v.Name())
			}
		case *ast.StarExpr:
			if !taint.ExprTaintedAt(l.X, n) {
				c.pass.Reportf(lhs.Pos(), "pool-obtained value stored through a pointer to non-pooled storage; the target outlives the Put — copy it first")
			}
		}
	}
}

// isSyncCaller reports whether call's callee is listed as a synchronous
// closure driver (sort.Slice, the engine's forEachPartition barrier, ...):
// closures passed to it return before it does, so they cannot outlive a
// deferred Put in the enclosing function.
func (c *checker) isSyncCaller(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return syncCallers[fun.Name]
	case *ast.SelectorExpr:
		if syncCallers[fun.Sel.Name] {
			return true
		}
		if fn, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			return syncCallers[fn.Pkg().Name()+"."+fn.Name()]
		}
	}
	return false
}

func (c *checker) checkClosures(e ast.Expr, n *dataflow.Node, taint *dataflow.Taint) {
	exemptLits := map[*ast.FuncLit]bool{}
	ast.Inspect(e, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && c.isSyncCaller(call) {
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					exemptLits[lit] = true
				}
			}
		}
		lit, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		if exemptLits[lit] {
			return true // synchronous caller: keep scanning for nested lits
		}
		// Free variables: idents used in the lit whose declaration lies
		// outside it.
		reported := false
		ast.Inspect(lit.Body, func(y ast.Node) bool {
			if reported {
				return false
			}
			id, ok := y.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || v.Pos() == 0 {
				return true
			}
			if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
				return true // declared inside the closure
			}
			if taint.VarTaintedAt(v, n) {
				c.pass.Reportf(id.Pos(), "closure captures pool-obtained value %s; if the closure outlives the Put it reads recycled memory — pass a copy instead", v.Name())
				reported = true
			}
			return true
		})
		return false // the lit's own internals are analyzed separately
	})
}

// checkReleases runs a forward "released variables" analysis: after a Put the
// variable must not be read or Put again until redefined.
func (c *checker) checkReleases(r *dataflow.Reaching) {
	g := r.Graph
	// Release sites per node. putVars lists every released variable in
	// discovery order (node scan order), keeping iteration deterministic.
	putsAt := make(map[*dataflow.Node][]*types.Var)
	seen := make(map[*types.Var]bool)
	var putVars []*types.Var
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		if _, ok := n.Stmt.(*ast.DeferStmt); ok {
			// `defer put(x)` — the kernels' standard release idiom — runs at
			// function exit, not at its syntactic position, so it releases
			// nothing for the remainder of the body. Escapes via return are
			// still caught by checkEscapes independently.
			continue
		}
		node := n
		for _, e := range dataflow.OwnExprs(n.Stmt) {
			ast.Inspect(e, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if v, _ := c.putTarget(call); v != nil {
						putsAt[node] = append(putsAt[node], v)
						if !seen[v] {
							seen[v] = true
							putVars = append(putVars, v)
						}
					}
				}
				return true
			})
		}
	}
	if len(putVars) == 0 {
		return
	}

	// Fixpoint: IN(n) = ∪ OUT(p); OUT(n) = (IN(n) − redefined(n)) ∪ puts(n).
	in := make([]map[*types.Var]bool, len(g.Nodes))
	out := make([]map[*types.Var]bool, len(g.Nodes))
	for i := range g.Nodes {
		in[i] = make(map[*types.Var]bool)
		out[i] = make(map[*types.Var]bool)
	}
	redef := func(n *dataflow.Node) map[*types.Var]bool {
		m := make(map[*types.Var]bool)
		for _, d := range r.DefsAt(n) {
			m[d.Obj] = true
		}
		return m
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			kills := redef(n)
			for _, v := range putVars {
				if !in[n.Index][v] {
					for _, p := range n.Preds {
						if out[p.Index][v] {
							in[n.Index][v] = true
							changed = true
							break
						}
					}
				}
				if in[n.Index][v] && !kills[v] && !out[n.Index][v] {
					out[n.Index][v] = true
					changed = true
				}
			}
			for _, v := range putsAt[n] {
				if !out[n.Index][v] {
					out[n.Index][v] = true
					changed = true
				}
			}
		}
	}

	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		released := in[n.Index]
		if len(released) == 0 {
			continue
		}
		kills := redef(n)
		// Double Put: putting a variable already released on some path.
		for _, v := range putsAt[n] {
			if released[v] && !kills[v] {
				c.pass.Reportf(n.Stmt.Pos(), "double Put of pooled value %s; the pool hands the same object to two borrowers", v.Name())
			}
		}
		// Use after Put: reading a released variable.
		for _, e := range dataflow.OwnExprs(n.Stmt) {
			c.checkReadsReleased(e, n, released, kills)
		}
	}
}

func (c *checker) checkReadsReleased(e ast.Expr, n *dataflow.Node, released, kills map[*types.Var]bool) {
	// A plain-ident assignment LHS is a redefinition, not a read.
	if as, ok := n.Stmt.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if lhs == e {
				if _, ok := ast.Unparen(e).(*ast.Ident); ok {
					return
				}
			}
		}
	}
	ast.Inspect(e, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			// The Put's own argument read is the release itself; double Put
			// is reported separately.
			if v, _ := c.putTarget(call); v != nil {
				return false
			}
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if released[v] && !kills[v] {
			c.pass.Reportf(id.Pos(), "use of pooled value %s after Put; the pool may already have handed it to another morsel", v.Name())
		}
		return true
	})
}

func isPackageLevel(v *types.Var) bool {
	if v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}
