// Package capturesound enforces the soundness contract of lightweight
// provenance capture (Def. 5.1 / Tab. 5 of the source paper): every
// expression operator must report the access paths its evaluation reads.
// The engine populates the accessed-path set A of an operator's structural
// provenance from Expr.Paths(); an Eval implementation that reads a nested
// attribute Paths() cannot report silently under-approximates A, and
// backtraces would miss markings on that attribute.
//
// The analyzer looks at every type implementing the expression shape — a
// value type with both an Eval method and a Paths (a.k.a. AccessedPaths)
// method — and flags Eval-side nested-value accessor calls with constant
// attribute names (v.Get("attr"), path.New("attr"), path.MustParse("a.b"))
// when the type's Paths method provably cannot mention that attribute: its
// body builds paths exclusively from literals (or returns none at all) and
// none of those literals cover the accessed attribute. Paths methods that
// delegate (stored path fields, sub-expression Paths() calls) are beyond
// static proof and are left alone.
package capturesound

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"pebble/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "capturesound",
	Doc: `flag Eval-side nested reads that the expression's Paths method cannot report

Every engine expression must return the access paths its Eval reads, or the
captured provenance under-approximates the accessed-path set A (Def. 5.1).`,
	Run: run,
}

// exprMethods records the Eval/Paths method declarations of one candidate
// expression type.
type exprMethods struct {
	eval  *ast.FuncDecl
	paths *ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	byType := make(map[string]*exprMethods)
	var order []string
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			name := recvTypeName(fd.Recv.List[0].Type)
			if name == "" {
				continue
			}
			m := byType[name]
			if m == nil {
				m = &exprMethods{}
				byType[name] = m
				order = append(order, name)
			}
			switch fd.Name.Name {
			case "Eval":
				if len(fd.Type.Params.List) >= 1 {
					m.eval = fd
				}
			case "Paths", "AccessedPaths":
				if fd.Type.Params.NumFields() == 0 {
					m.paths = fd
				}
			}
		}
	}
	for _, name := range order {
		m := byType[name]
		if m.eval == nil || m.paths == nil {
			continue
		}
		mentioned, provable := pathsMentions(pass, m.paths)
		if !provable {
			continue
		}
		for _, acc := range evalAccesses(pass, m.eval) {
			if !covered(mentioned, acc.attr) {
				pass.Reportf(acc.node.Pos(), "%s.Eval reads attribute %q but %s.%s cannot report it: add the path to the reported access paths (Def. 5.1 capture soundness)", name, acc.attr, name, m.paths.Name.Name)
			}
		}
	}
	return nil
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// accessLit is one constant-attribute nested read found in an Eval body.
type accessLit struct {
	attr string
	node ast.Node
}

// evalAccesses collects constant attribute names read via nested-value
// accessors inside an Eval body: method calls named Get with a constant
// string argument, and path-construction calls (New/Parse/MustParse from a
// package named "path") with constant arguments.
func evalAccesses(pass *analysis.Pass, fd *ast.FuncDecl) []accessLit {
	var out []accessLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// v.Get("attr") — the nested.Value attribute accessor.
		if sel.Sel.Name == "Get" && len(call.Args) == 1 {
			if isMethod(pass, sel) {
				if s, ok := constString(pass, call.Args[0]); ok {
					out = append(out, accessLit{attr: s, node: call})
				}
			}
			return true
		}
		// path.New("a", "b") / path.MustParse("a.b[0]") / path.Parse(...)
		// constructed inline in Eval: the read path never went through the
		// type's stored, reported paths.
		if x, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok && pn.Imported().Name() == "path" {
				switch sel.Sel.Name {
				case "New", "Parse", "MustParse":
					for _, arg := range call.Args {
						if s, ok := constString(pass, arg); ok {
							for _, attr := range splitPathLiteral(s) {
								out = append(out, accessLit{attr: attr, node: call})
							}
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// isMethod reports whether sel selects a method (not a package function or
// struct field) — distinguishing v.Get from somepkg.Get.
func isMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// splitPathLiteral breaks a path literal like "user.id[0]" into its
// attribute names.
func splitPathLiteral(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ".") {
		if i := strings.IndexByte(part, '['); i >= 0 {
			part = part[:i]
		}
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// pathsMentions analyzes a Paths/AccessedPaths body. provable is true when
// the body builds its result purely from constants, so the full set of
// attribute names it can ever mention is the returned set; any delegation
// (receiver fields, calls other than literal path constructors, non-constant
// identifiers) makes the result unprovable and the type is skipped.
func pathsMentions(pass *analysis.Pass, fd *ast.FuncDecl) (mentioned []string, provable bool) {
	provable = true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !provable {
			return false
		}
		switch n := n.(type) {
		case *ast.BasicLit:
			if s, ok := constString(pass, n); ok {
				mentioned = append(mentioned, splitPathLiteral(s)...)
			}
		case *ast.SelectorExpr:
			// Selector on anything but a package (receiver field, sub-expr
			// method) can smuggle in arbitrary paths. Literal path
			// constructors from a "path" package stay provable; their string
			// arguments are collected by the BasicLit case.
			if x, ok := n.X.(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok {
					if pn.Imported().Name() == "path" || pn.Imported().Name() == "nested" {
						return true
					}
				}
			}
			provable = false
			return false
		}
		return true
	})
	return mentioned, provable
}

func covered(mentioned []string, attr string) bool {
	for _, m := range mentioned {
		if m == attr {
			return true
		}
	}
	return false
}
