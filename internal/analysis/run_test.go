package analysis_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"strings"
	"testing"

	"pebble/internal/analysis"
	"pebble/internal/analysis/suite"
)

func TestValidateAcceptsSuite(t *testing.T) {
	if err := analysis.Validate(suite.Analyzers()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEmptyName(t *testing.T) {
	err := analysis.Validate([]*analysis.Analyzer{{Run: noop}})
	if err == nil || !strings.Contains(err.Error(), "empty name") {
		t.Fatalf("Validate = %v, want an empty-name error", err)
	}
}

func TestValidateRejectsMissingRun(t *testing.T) {
	err := analysis.Validate([]*analysis.Analyzer{{Name: "norun"}})
	if err == nil || !strings.Contains(err.Error(), `"norun" has no Run`) {
		t.Fatalf("Validate = %v, want a missing-Run error", err)
	}
}

func TestValidateRejectsDuplicateName(t *testing.T) {
	err := analysis.Validate([]*analysis.Analyzer{{Name: "twice", Run: noop}, {Name: "twice", Run: noop}})
	if err == nil || !strings.Contains(err.Error(), `duplicate analyzer name "twice"`) {
		t.Fatalf("Validate = %v, want a duplicate-name error", err)
	}
}

// unitSrc has two short variable declarations; the second carries a
// trailing directive that silences the "loud" analyzer on its line only.
const unitSrc = `package p

func f() int {
	a := 1
	b := 2 //pebblevet:ignore loud -- accepted here
	return a + b
}
`

// TestRunAnalyzersOrdersAndSuppresses runs two analyzers that report at
// every := and checks the driver's output: the directive drops only the
// analyzer it names, and findings come back by position, then analyzer
// name, whatever the order of the analyzer list.
func TestRunAnalyzersOrdersAndSuppresses(t *testing.T) {
	unit := checkUnit(t)
	findings, err := analysis.RunAnalyzers(unit, []*analysis.Analyzer{defines("quiet"), defines("loud")})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s@%d", f.Analyzer.Name, unit.Fset.Position(f.Diagnostic.Pos).Line))
	}
	want := "loud@4 quiet@4 quiet@5"
	if strings.Join(got, " ") != want {
		t.Fatalf("findings = %v, want %s", got, want)
	}
}

// TestRunAnalyzersStaleOnlyWhenEnabled: a directive that hides nothing is
// reported only when the staleignore pseudo-analyzer is in the run.
func TestRunAnalyzersStaleOnlyWhenEnabled(t *testing.T) {
	unit := checkUnit(t)
	silent := &analysis.Analyzer{Name: "loud", Run: noop}
	findings, err := analysis.RunAnalyzers(unit, []*analysis.Analyzer{silent})
	if err != nil || len(findings) != 0 {
		t.Fatalf("without staleignore: findings %v, err %v; want none", findings, err)
	}
	findings, err = analysis.RunAnalyzers(unit, []*analysis.Analyzer{silent, analysis.StaleIgnore})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer != analysis.StaleIgnore ||
		!strings.Contains(findings[0].Diagnostic.Message, "stale //pebblevet:ignore loud") {
		t.Fatalf("with staleignore: findings %v, want one stale-ignore finding", findings)
	}
}

// TestRunAnalyzersReturnsAnalyzerError: an analyzer's error aborts the run,
// names the analyzer, and stops the analyzers after it.
func TestRunAnalyzersReturnsAnalyzerError(t *testing.T) {
	later := false
	failing := &analysis.Analyzer{Name: "broken", Run: func(*analysis.Pass) error { return errors.New("boom") }}
	after := &analysis.Analyzer{Name: "after", Run: func(*analysis.Pass) error { later = true; return nil }}
	findings, err := analysis.RunAnalyzers(checkUnit(t), []*analysis.Analyzer{failing, after})
	if err == nil || err.Error() != "analyzer broken: boom" || findings != nil {
		t.Fatalf("RunAnalyzers = %v, %v; want nil, \"analyzer broken: boom\"", findings, err)
	}
	if later {
		t.Fatal("an analyzer after the failing one ran")
	}
}

// TestShippedBinariesLinkNoAnalysis keeps the analysis suite out of what is
// shipped and measured: neither the daemon nor the benchmark harness may
// depend on anything under pebble/internal/analysis, so a change to the
// suite cannot move a benchmark figure.
func TestShippedBinariesLinkNoAnalysis(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "pebble/cmd/pebbled", "pebble/bench").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "pebble/internal/analysis" || strings.HasPrefix(pkg, "pebble/internal/analysis/") {
			t.Errorf("pebbled or bench depends on %s", pkg)
		}
	}
}

func noop(*analysis.Pass) error { return nil }

// defines returns an analyzer named name that reports every := statement.
func defines(name string) *analysis.Analyzer {
	return &analysis.Analyzer{Name: name, Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
					pass.Reportf(as.Pos(), "define")
				}
				return true
			})
		}
		return nil
	}}
}

func checkUnit(t *testing.T) *analysis.Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", unitSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Unit{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}
