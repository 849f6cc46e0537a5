// Package lockcheck enforces the repo's `// guarded by <mu>` field-comment
// convention: a struct field whose declaration carries that comment may only
// be accessed by functions that visibly hold the named lock. A function
// counts as holding the lock when it
//
//   - calls <base>.<mu>.Lock() or <base>.<mu>.RLock() on the same base
//     variable anywhere in its body (the dominant defer-unlock idiom), or
//   - is named with the *Locked suffix (the repo's convention for helpers
//     whose callers hold the lock), or
//   - documents the transfer with "must hold"/"while holding" in its doc
//     comment, or
//   - accesses the field through a variable declared locally in the same
//     function (construction before the value is shared, e.g. NewCollector).
//
// The check is flow-insensitive by design: it cannot prove the lock is held
// at the access, only that the function participates in the discipline. That
// is exactly the property that decays silently as code grows — a new method
// touching collector shards or scheduler maps without any locking at all.
package lockcheck

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"pebble/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: `flag accesses to '// guarded by mu' struct fields from functions that do not hold the lock

Annotate shared struct state with a '// guarded by <mutexfield>' comment on
the field; every function accessing the field must lock that mutex, carry the
*Locked name suffix, or state 'caller must hold' in its doc comment.`,
	Run: run,
}

var guardedRe = regexp.MustCompile(`(?i)guarded by (\w+)`)
var holderDocRe = regexp.MustCompile(`(?i)(must hold|while holding|holds) \w*`)

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
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
			checkFunc(pass, fd, guards)
		}
	}
	return nil
}

// guardKey identifies a guarded field by its defining object.
type guardInfo struct {
	structName string
	guardField string
}

// collectGuards maps each guarded field's types.Object to its guard.
func collectGuards(pass *analysis.Pass) map[types.Object]guardInfo {
	guards := make(map[types.Object]guardInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					guard := guardName(field)
					if guard == "" {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							guards[obj] = guardInfo{structName: ts.Name.Name, guardField: guard}
						}
					}
				}
			}
		}
	}
	return guards
}

func guardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guards map[types.Object]guardInfo) {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	if fd.Doc != nil && holderDocRe.MatchString(fd.Doc.Text()) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fieldObj := selection.Obj()
		g, guarded := guards[fieldObj]
		if !guarded {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true // compound base: beyond this check's reach
		}
		baseObj := pass.TypesInfo.ObjectOf(base)
		if baseObj == nil {
			return true
		}
		if isFunctionLocal(pass, fd, baseObj) {
			return true // not yet shared: constructors and local copies
		}
		if locksGuard(pass, fd.Body, baseObj, g.guardField) {
			return true
		}
		pass.Reportf(sel.Pos(), "%s.%s is guarded by %s but %s neither locks it, has the Locked suffix, nor documents 'caller must hold %s'", g.structName, fieldObj.Name(), g.guardField, fd.Name.Name, g.guardField)
		return true
	})
}

// isFunctionLocal reports whether obj is a variable declared in fd's body
// (not a receiver or parameter): a value still private to the constructor.
func isFunctionLocal(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	if obj.Pos() == 0 {
		return false
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, n := range f.Names {
				if pass.TypesInfo.Defs[n] == obj {
					return false
				}
			}
		}
	}
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			if pass.TypesInfo.Defs[n] == obj {
				return false
			}
		}
	}
	return fd.Body.Pos() <= obj.Pos() && obj.Pos() < fd.Body.End()
}

// locksGuard reports whether body contains base.guard.Lock() or
// base.guard.RLock() for the same base object.
func locksGuard(pass *analysis.Pass, body *ast.BlockStmt, baseObj types.Object, guard string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != guard {
			return true
		}
		baseIdent, ok := inner.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pass.TypesInfo.ObjectOf(baseIdent) == baseObj {
			found = true
		}
		return !found
	})
	return found
}
