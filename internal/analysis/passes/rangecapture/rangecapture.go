// Package rangecapture enforces the PartitionSink call-site contract of the
// id-range capture path (DESIGN.md §10): the morsel handle is obtained once
// per morsel (Partition hoisted out of emission loops), the bulk *Range
// emissions cover contiguous id runs exactly once (a range call inside a loop
// must advance its base monotonically — a loop-invariant base re-emits the
// same ids), row-wise emission ids derive from the enclosing loop's induction
// (monotone or invariant in every enclosing loop), and one operator body
// never mixes row-wise and range emission on the same handle — a morsel's
// association layout is either fixed-width (one range call) or
// variable-length (row-wise), never both.
//
// Emission methods are recognized by name and arity on receivers whose
// method set is sink-shaped (it has both a row-wise and a range method), so
// the checks apply to engine.PartitionSink and to fixture doubles alike.
package rangecapture

import (
	"go/ast"
	"go/types"

	"pebble/internal/analysis"
	"pebble/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "rangecapture",
	Doc: `enforce the PartitionSink morsel contract for row-wise and bulk range emission

Partition handles must be hoisted out of emission loops; range emission inside
a loop must advance its base id monotonically; row-wise out-ids must be
monotone or invariant in every enclosing loop; and an operator body must not
mix row-wise with range emission on the same handle along any control path.`,
	Run: run,
}

// emission method table: name → (number of args, index of the out-id/base
// argument, whether it is the bulk range form).
type emitSig struct {
	args    int
	idArg   int
	isRange bool
}

var emitSigs = map[string]emitSig{
	"Unary":        {2, 1, false},
	"Agg":          {2, 1, false},
	"SourceRows":   {2, 0, true},
	"UnaryRange":   {2, 1, true},
	"BinaryRange":  {3, 2, true},
	"FlattenRange": {3, 2, true},
}

// emitCall is one recognized emission call site.
type emitCall struct {
	call *ast.CallExpr
	sel  *ast.SelectorExpr
	sig  emitSig
	name string
	recv *types.Var // root object of the receiver, if a plain ident
	node *dataflow.Node
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, dataflow.NewReaching(fd, pass.TypesInfo), fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, dataflow.NewReachingLit(lit, pass.TypesInfo), lit.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// sinkShaped reports whether t's method set carries both a row-wise and a
// bulk range emission method — the structural signature of a PartitionSink.
func sinkShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	hasRow, hasRange := false, false
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Unary":
			hasRow = true
		case "UnaryRange", "SourceRows":
			hasRange = true
		}
	}
	if hasRow && hasRange {
		return true
	}
	// Pointer receiver methods.
	if _, ok := t.(*types.Pointer); !ok {
		return sinkShapedPtr(t)
	}
	return false
}

func sinkShapedPtr(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	hasRow, hasRange := false, false
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Unary":
			hasRow = true
		case "UnaryRange", "SourceRows":
			hasRange = true
		}
	}
	return hasRow && hasRange
}

func checkFunc(pass *analysis.Pass, r *dataflow.Reaching, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var emits []emitCall
	var partitions []*ast.CallExpr

	for _, n := range r.Graph.Nodes {
		if n.Stmt == nil {
			continue
		}
		for _, e := range dataflow.OwnExprs(n.Stmt) {
			node := n
			ast.Inspect(e, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false // analyzed separately
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sig, ok := emitSigs[sel.Sel.Name]; ok && len(call.Args) == sig.args && sinkShaped(info.Types[sel.X].Type) {
					emits = append(emits, emitCall{
						call: call, sel: sel, sig: sig, name: sel.Sel.Name,
						recv: rootVar(sel.X, info), node: node,
					})
				}
				if sel.Sel.Name == "Partition" && len(call.Args) == 2 && returnsPartitionSink(info, sel) {
					partitions = append(partitions, call)
				}
				return true
			})
		}
	}
	if len(emits) == 0 && len(partitions) == 0 {
		return
	}

	checkMixing(pass, r, emits)
	checkInduction(pass, body, info, emits)
	checkPartitionHoisting(pass, body, partitions, emits)
}

// checkMixing flags operator bodies where a row-wise emission is reachable
// from a range emission (or vice versa) on the same handle: the morsel would
// be partly bulk, partly per-row, breaking the oracle's one-form-per-morsel
// byte identity.
func checkMixing(pass *analysis.Pass, r *dataflow.Reaching, emits []emitCall) {
	reported := map[*ast.CallExpr]bool{}
	for i := range emits {
		for j := range emits {
			a, b := &emits[i], &emits[j]
			if a.sig.isRange == b.sig.isRange {
				continue
			}
			if a.recv == nil || a.recv != b.recv {
				continue
			}
			if a.node == b.node || r.Graph.Reachable(a.node, b.node) {
				if !reported[b.call] {
					reported[b.call] = true
					pass.Reportf(b.call.Pos(), "operator body mixes row-wise %s with bulk %s on the same PartitionSink handle; a morsel must be emitted entirely row-wise or entirely as ranges", rowName(a, b), rangeName(a, b))
				}
			}
		}
	}
}

func rowName(a, b *emitCall) string {
	if !a.sig.isRange {
		return a.name
	}
	return b.name
}

func rangeName(a, b *emitCall) string {
	if a.sig.isRange {
		return a.name
	}
	return b.name
}

// checkInduction verifies the id discipline of emissions inside loops:
// row-wise out-ids must be monotone-or-invariant in every enclosing loop;
// range bases must be strictly advancing (monotone with at least one in-loop
// write — an invariant base re-emits the same id range every iteration).
func checkInduction(pass *analysis.Pass, body *ast.BlockStmt, info *types.Info, emits []emitCall) {
	for i := range emits {
		em := &emits[i]
		loops := dataflow.EnclosingLoops(body, em.call)
		if len(loops) == 0 {
			continue
		}
		idArg := ast.Unparen(em.call.Args[em.sig.idArg])
		v, derivable := inductionBase(idArg, info)
		if !derivable {
			pass.Reportf(idArg.Pos(), "%s id argument is not derivable from loop induction (want a plain identifier, a constant, or ident+constant); emitted ids must be reconstructible per morsel", em.name)
			continue
		}
		if v == nil {
			// Constant argument: invariant. Fine for row-wise, a re-emission
			// bug for range forms.
			if em.sig.isRange {
				pass.Reportf(idArg.Pos(), "%s inside a loop with a constant base re-emits the same id range every iteration; advance the base per iteration or hoist the call per morsel", em.name)
			}
			continue
		}
		for _, loop := range loops {
			if !dataflow.MonotoneInLoop(v, loop, info) {
				pass.Reportf(idArg.Pos(), "%s id argument %s is not monotone in an enclosing loop; ids must advance with the loop induction so ranges stay contiguous", em.name, v.Name())
				break
			}
		}
		if em.sig.isRange {
			innermost := loops[len(loops)-1]
			if dataflow.InvariantInLoop(v, innermost, info) {
				pass.Reportf(idArg.Pos(), "%s inside a loop with loop-invariant base %s re-emits the same id range every iteration; advance the base or hoist the call per morsel", em.name, v.Name())
			}
		}
	}
}

// inductionBase reduces an id argument to its base variable: a plain ident,
// a constant (nil var), or ident ± constant. Anything else is not derivable.
func inductionBase(e ast.Expr, info *types.Info) (*types.Var, bool) {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return nil, true // constant
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v, true
		}
	case *ast.CallExpr:
		// A conversion like int64(i) keeps the base derivable.
		if len(e.Args) == 1 {
			if _, isConv := info.Types[e.Fun]; isConv && info.Types[e.Fun].IsType() {
				return inductionBase(e.Args[0], info)
			}
		}
	case *ast.BinaryExpr:
		xv, xok := inductionBase(e.X, info)
		yv, yok := inductionBase(e.Y, info)
		if !xok || !yok {
			return nil, false
		}
		if xv != nil && yv != nil {
			return nil, false // two variables: not a simple induction form
		}
		if xv != nil {
			return xv, true
		}
		return yv, true
	}
	return nil, false
}

// checkPartitionHoisting flags Partition calls inside a loop that also emits:
// the handle lookup belongs before the loop, once per morsel.
func checkPartitionHoisting(pass *analysis.Pass, body *ast.BlockStmt, partitions []*ast.CallExpr, emits []emitCall) {
	for _, call := range partitions {
		for _, loop := range dataflow.EnclosingLoops(body, call) {
			if loopEmits(loop, emits) {
				pass.Reportf(call.Pos(), "Partition called inside an emission loop; hoist the handle out of the loop — the contract is one registry lookup per morsel")
				break
			}
		}
	}
}

func loopEmits(loop ast.Stmt, emits []emitCall) bool {
	for i := range emits {
		if emits[i].call.Pos() >= loop.Pos() && emits[i].call.End() <= loop.End() {
			return true
		}
	}
	return false
}

func returnsPartitionSink(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "PartitionSink"
}

func rootVar(e ast.Expr, info *types.Info) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
