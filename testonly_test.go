package pebble_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalled lists, as Type.Method, the exported methods that no identifier in
// the module names and that stay: ones that only an interface calls, or that
// public API reaches through an alias in package pebble. Today every method
// an interface calls (String, Error, MarshalJSON, …) shares its name with a
// call somewhere, so only the second kind is here.
var uncalled = map[string]bool{
	// pebble.Pipeline's left outer join, which README's "Extension
	// operators" names; only tests build one.
	"Pipeline.LeftJoin": true,
}

// TestNoTestOnlyCode keeps shipped code that only tests call out of
// internal/: every exported function and method declared in a non-test file
// there must be named, as an identifier, in some non-test file of the module
// other than at its own declaration. A name shared with a live identifier
// passes, so this is a floor, not a proof of use.
func TestNoTestOnlyCode(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	var decls []*ast.FuncDecl
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				own[fd.Name] = true
				if strings.HasPrefix(filepath.ToSlash(p), "internal/") && fd.Name.IsExported() {
					decls = append(decls, fd)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, fd := range decls {
		name := fd.Name.Name
		if fd.Recv != nil && uncalled[recvName(fd.Recv)+"."+name] {
			continue
		}
		if !used[name] {
			unused = append(unused, fset.Position(fd.Pos()).String()+": "+name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions in internal/ are named by no non-test file:\n%s", len(unused), strings.Join(unused, "\n"))
	}
}

// recvName is the name of a method's receiver type.
func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
