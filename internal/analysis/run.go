package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Unit is one parsed and typechecked package, ready for analysis. Both
// drivers (unitchecker, analysistest) reduce their input to this shape.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Finding pairs a diagnostic with the analyzer that produced it.
type Finding struct {
	Analyzer   *Analyzer
	Diagnostic Diagnostic
}

// RunAnalyzers executes the analyzers over the unit, filters diagnostics
// silenced by //pebblevet:ignore directives, and returns the survivors
// sorted by position then analyzer name. An analyzer returning an error
// aborts the run.
//
// When the StaleIgnore pseudo-analyzer is in the list, the driver appends
// one finding per ignore directive that names an analyzer which ran here but
// never had a diagnostic suppressed by it — staleness is a whole-run
// property, so it is computed after every real analyzer has reported.
func RunAnalyzers(unit *Unit, analyzers []*Analyzer) ([]Finding, error) {
	if err := Validate(analyzers); err != nil {
		return nil, err
	}
	sup := NewSuppressor(unit.Fset, unit.Files)
	ran := make(map[string]bool, len(analyzers))
	staleEnabled := false
	var findings []Finding
	for _, a := range analyzers {
		if a == StaleIgnore {
			staleEnabled = true
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      unit.Fset,
			Files:     unit.Files,
			Pkg:       unit.Pkg,
			TypesInfo: unit.Info,
			Report: func(d Diagnostic) {
				if sup.Suppressed(a.Name, d.Pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a, Diagnostic: d})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
		ran[a.Name] = true
	}
	if staleEnabled {
		for _, d := range sup.Stale(ran) {
			findings = append(findings, Finding{Analyzer: StaleIgnore, Diagnostic: d})
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := findings[i].Diagnostic.Pos, findings[j].Diagnostic.Pos
		if pi != pj {
			return pi < pj
		}
		return findings[i].Analyzer.Name < findings[j].Analyzer.Name
	})
	return findings, nil
}

// NewInfo returns a types.Info with every map the suite's analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
