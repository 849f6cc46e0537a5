// Package analysis is a small, dependency-free reimplementation of the part
// of the golang.org/x/tools/go/analysis API that pebble's static-analysis
// suite needs, so the module keeps no external requirements. An Analyzer is
// a named check with a Run function over one typechecked compilation unit (a
// Pass); drivers — the go vet -vettool protocol in
// internal/analysis/unitchecker, the fixture harness in
// internal/analysis/analysistest — construct Passes and collect Diagnostics.
// The suite's analyzers need only syntax and types, so the upstream shapes
// they never use are left out: there are no facts, no Requires graph or
// ResultOf results, and no analyzer flags. Analyzer code still reads as it
// would upstream, which keeps a future migration mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, in its go vet enable
	// switch (-NAME), and in //pebblevet:ignore directives. It must be a
	// valid Go identifier.
	Name string

	// Doc is the analyzer's documentation; the first line is used as a
	// one-line summary by the driver's help output.
	Doc string

	// Run executes the check over one compilation unit and reports findings
	// via pass.Report. Analyzers are independent: none consumes another's
	// output, and none takes options — a scope an analyzer needs is a
	// constant in its package.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with the parsed and typechecked unit under
// analysis plus the Report sink for its findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (p *Pass) String() string { return p.Analyzer.Name + "@" + p.Pkg.Path() }

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional
	Category string    // optional sub-category within the analyzer
	Message  string
}

// Validate checks that the analyzer list is well formed: names are unique
// and non-empty, and Run functions are set.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" {
			return fmt.Errorf("analysis: analyzer with empty name")
		}
		if a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q has no Run function", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
