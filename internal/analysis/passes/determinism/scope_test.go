package determinism

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"pebble/internal/analysis"
)

// TestInScope pins the clock/rand scope: the listed packages and their
// subpackages are in, a path that merely shares a prefix is not, and the
// service layer (internal/server, pkg/sdk) is out.
func TestInScope(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"pebble/internal/engine", true},
		{"pebble/internal/engine/determinism", true},
		{"pebble/internal/provenance", true},
		{"pebble/internal/usage", true},
		{"pebble/internal/enginex", false},
		{"pebble/internal/server", false},
		{"pebble/pkg/sdk", false},
		{"pebble", false},
	} {
		t.Run(tc.path, func(t *testing.T) {
			if got := inScope(tc.path); got != tc.want {
				t.Errorf("inScope(%q) = %v, want %v", tc.path, got, tc.want)
			}
		})
	}
}

// TestIsSortCall pins which calls count as sorting the collected keys: the
// sorting functions of sort and slices (under any import name) and local
// sort* helpers or methods. Searching, membership and sortedness tests do
// not sort, so they must not hide a map-order leak.
func TestIsSortCall(t *testing.T) {
	for _, tc := range []struct {
		call string
		pkg  string // import path of the selector's qualifier; "" if it is not a package
		want bool
	}{
		{"sort.Sort", "sort", true},
		{"sort.Stable", "sort", true},
		{"sort.Slice", "sort", true},
		{"sort.SliceStable", "sort", true},
		{"sort.Strings", "sort", true},
		{"sort.Ints", "sort", true},
		{"sort.Float64s", "sort", true},
		{"slices.Sort", "slices", true},
		{"slices.SortFunc", "slices", true},
		{"slices.SortStableFunc", "slices", true},
		{"stdsort.Strings", "sort", true},
		{"sort.Search", "sort", false},
		{"sort.SearchStrings", "sort", false},
		{"sort.IsSorted", "sort", false},
		{"slices.Contains", "slices", false},
		{"slices.BinarySearch", "slices", false},
		{"slices.IsSorted", "slices", false},
		{"other.Sort", "example.com/other", false},
		{"sortKeys", "", true},
		{"rows.SortByName", "", true},
		{"collect", "", false},
		{"rows.Search", "", false},
	} {
		t.Run(tc.call, func(t *testing.T) {
			fun, err := parser.ParseExpr(tc.call)
			if err != nil {
				t.Fatal(err)
			}
			info := analysis.NewInfo()
			if sel, ok := fun.(*ast.SelectorExpr); ok && tc.pkg != "" {
				x := sel.X.(*ast.Ident)
				info.Uses[x] = types.NewPkgName(token.NoPos, nil, x.Name, types.NewPackage(tc.pkg, x.Name))
			}
			if got := isSortCall(&analysis.Pass{TypesInfo: info}, fun); got != tc.want {
				t.Errorf("isSortCall(%s) = %v, want %v", tc.call, got, tc.want)
			}
		})
	}
}
