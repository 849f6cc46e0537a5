// Package codecerr flags discarded error results from the provenance codec,
// the backtrace sidecar codec, and encoding/binary read/write calls. A
// dropped error from Run.WriteTo or ReadRun silently truncates or corrupts
// serialized provenance — the repro and benchmark artifacts later PRs diff
// against — a dropped Tracer.WriteIndexes/LoadIndexes error ships or
// installs a broken index sidecar, and a dropped binary.Read/Write error
// yields garbage values that look like data. Callers must check, return, or
// explicitly annotate.
package codecerr

import (
	"go/ast"
	"go/types"

	"pebble/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "codecerr",
	Doc: `flag discarded errors from the provenance and sidecar codecs and encoding/binary

Errors returned by functions and methods of encoding/binary,
pebble/internal/provenance and pebble/internal/backtrace must not be dropped
via a bare call statement, assignment to blank identifiers only, defer, or
go.`,
	Run: run,
}

// watched lists the import paths whose error results must be consumed.
var watched = map[string]bool{
	"encoding/binary":            true,
	"pebble/internal/provenance": true,
	"pebble/internal/backtrace":  true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				check(pass, st.X, "discarded")
			case *ast.DeferStmt:
				check(pass, st.Call, "discarded by defer")
			case *ast.GoStmt:
				check(pass, st.Call, "discarded by go statement")
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && allBlank(st.Lhs) {
					check(pass, st.Rhs[0], "assigned to _")
				}
			}
			return true
		})
	}
	return nil
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

func check(pass *analysis.Pass, e ast.Expr, how string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || !watched[fn.Pkg().Path()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s.%s is %s; a dropped codec error silently truncates serialized provenance — handle it or annotate //pebblevet:ignore codecerr -- reason", fn.Pkg().Name(), fn.Name(), how)
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				return true
			}
		}
	}
	return false
}
