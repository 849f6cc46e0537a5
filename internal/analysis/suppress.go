package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The suite supports a narrow, audited escape hatch: a comment of the form
//
//	//pebblevet:ignore name1,name2 -- reason
//
// suppresses diagnostics of the named analyzers. Placement decides scope
// precisely: a trailing directive (code precedes it on the same line) covers
// its own line only; a standalone directive (alone on its line) covers the
// line directly below. The reason is mandatory by convention — check.sh
// reviewers treat a bare ignore as a finding in itself — but the parser only
// requires the analyzer list. Directives are deliberately line-scoped: there
// is no file- or package-level opt-out, so every accepted nondeterminism or
// discarded error stays visible at its use site.
//
// Directives are also audited for staleness: the driver tracks which
// directives actually suppressed a diagnostic, and the staleignore
// pseudo-analyzer reports any directive naming an analyzer that ran but
// found nothing on the covered line — a stale ignore hides nothing and
// misleads readers into thinking the line is exempt.

const ignorePrefix = "//pebblevet:ignore"

// StaleIgnore is the driver-level staleness check, exposed as an analyzer so
// the unitchecker protocol (per-analyzer enable flags, -staleignore) and the
// suite listing treat it uniformly. Its Run is a no-op: RunAnalyzers itself
// emits the findings after every real analyzer has reported, since staleness
// is a property of the whole run, not of one pass.
var StaleIgnore = &Analyzer{
	Name: "staleignore",
	Doc: `report //pebblevet:ignore directives that no longer suppress any finding

A directive naming an analyzer that ran on the package but produced no
diagnostic on the covered line is stale: it documents an exemption that does
not exist. Remove it, or narrow its analyzer list.`,
	Run: func(*Pass) error { return nil },
}

// A directive is one parsed //pebblevet:ignore comment.
type directive struct {
	names       []string
	pos         token.Pos // comment position, for staleness reporting
	coveredLine int       // the single line the directive suppresses
	testFile    bool
	hits        map[string]bool // analyzer names that suppressed a diagnostic
}

// A Suppressor holds every ignore directive of one analysis unit and records
// which of them actually fire, enabling the staleness report.
type Suppressor struct {
	fset *token.FileSet
	// byFile maps each token.File to its directives indexed by covered line.
	byFile map[*token.File]map[int][]*directive
	all    []*directive
}

// NewSuppressor parses the ignore directives of the unit's files. A
// directive's scope depends on placement: trailing (code starts earlier on
// the same line) covers its own line; standalone covers the next line.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{fset: fset, byFile: make(map[*token.File]map[int][]*directive)}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		codeLines := codeStartLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseIgnore(c.Text)
				if len(names) == 0 {
					continue
				}
				posn := fset.Position(c.Pos())
				covered := posn.Line + 1 // standalone: the line below
				if codeLines[posn.Line] {
					covered = posn.Line // trailing: its own line
				}
				d := &directive{
					names:       names,
					pos:         c.Pos(),
					coveredLine: covered,
					testFile:    IsTestFile(fset, c.Pos()),
					hits:        make(map[string]bool),
				}
				m := s.byFile[tf]
				if m == nil {
					m = make(map[int][]*directive)
					s.byFile[tf] = m
				}
				m[covered] = append(m[covered], d)
				s.all = append(s.all, d)
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic of the named analyzer at pos is
// silenced, and records the hit for the staleness report.
func (s *Suppressor) Suppressed(name string, pos token.Pos) bool {
	tf := s.fset.File(pos)
	if tf == nil {
		return false
	}
	line := s.fset.Position(pos).Line
	hit := false
	for _, d := range s.byFile[tf][line] {
		for _, n := range d.names {
			if n == name {
				d.hits[name] = true
				hit = true
			}
		}
	}
	return hit
}

// Stale returns one diagnostic per (directive, name) pair where the named
// analyzer ran but the directive never suppressed one of its diagnostics.
// Directives in _test.go files are exempt, matching the analyzers themselves.
func (s *Suppressor) Stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.all {
		if d.testFile {
			continue
		}
		for _, n := range d.names {
			if ran[n] && !d.hits[n] {
				out = append(out, Diagnostic{
					Pos:     d.pos,
					Message: fmt.Sprintf("stale //pebblevet:ignore %s: the %s analyzer reports nothing on the covered line; remove the directive or narrow its list", n, n),
				})
			}
		}
	}
	return out
}

// parseIgnore extracts the analyzer names of an ignore directive, or nil.
func parseIgnore(text string) []string {
	if !strings.HasPrefix(text, ignorePrefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, ignorePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //pebblevet:ignorefoo
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	var names []string
	for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if f != "" {
			names = append(names, f)
		}
	}
	return names
}

// codeStartLines returns the set of lines on which some AST node (i.e. code,
// not only a comment) begins. Used to classify a directive as trailing.
func codeStartLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}

// Suppressed reports whether a diagnostic of the named analyzer at pos is
// silenced by a //pebblevet:ignore directive. Standalone wrapper for callers
// without a Suppressor; hit tracking is discarded.
func Suppressed(fset *token.FileSet, files []*ast.File, name string, pos token.Pos) bool {
	return NewSuppressor(fset, files).Suppressed(name, pos)
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The suite's analyzers enforce production-code invariants; tests may, for
// example, iterate expectation maps or discard errors deliberately.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	tf := fset.File(pos)
	return tf != nil && strings.HasSuffix(tf.Name(), "_test.go")
}
