// Package unitchecker implements the command-line protocol that `go vet
// -vettool=...` speaks to an analysis tool, for the analyzers of
// internal/analysis. It mirrors the contract of
// golang.org/x/tools/go/analysis/unitchecker (which this repo cannot vendor
// offline):
//
//	tool -V=full        print a version line the build system can cache on
//	tool -flags         describe supported flags in JSON
//	tool [flags] x.cfg  analyze the one compilation unit described by x.cfg
//
// The cfg file is JSON written by the go command; it names the unit's Go
// files and maps every import to the export data the compiler already
// produced, so analysis needs no go/packages-style loader: parse, typecheck
// against export data, run the analyzers, print findings.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pebble/internal/analysis"
)

// Config is the JSON compilation-unit description the go command hands to a
// vettool. Field set and meaning follow the upstream protocol.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// triState distinguishes an unset analyzer-enable flag from an explicit
// true/false, matching go vet's per-analyzer flag semantics: any flag set to
// true selects exactly those analyzers; otherwise false flags deselect.
type triState int

const (
	unset triState = iota
	setTrue
	setFalse
)

func (ts *triState) IsBoolFlag() bool { return true }
func (ts *triState) Get() interface{} { return *ts == setTrue }
func (ts *triState) String() string {
	if *ts == setFalse {
		return "false"
	}
	return "true"
}
func (ts *triState) Set(value string) error {
	b, err := strconv.ParseBool(value)
	if err != nil {
		return fmt.Errorf("want true or false")
	}
	if b {
		*ts = setTrue
	} else {
		*ts = setFalse
	}
	return nil
}

// versionFlag implements -V=full: print a line the go command can use as the
// tool's build ID (content hash of the executable).
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() interface{} { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	progname, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(progname)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel buildID=%02x\n", progname, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}

// Main is the entry point of a vettool built on this package.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	if err := analysis.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	printflags := flag.Bool("flags", false, "print the tool's flags in JSON")
	jsonOut := flag.Bool("json", false, "emit JSON output")
	_ = flag.Int("c", -1, "display offending line with this many lines of context")
	flag.Var(versionFlag{}, "V", "print version and exit")

	enabled := make(map[*analysis.Analyzer]*triState, len(analyzers))
	for _, a := range analyzers {
		ts := new(triState)
		enabled[a] = ts
		flag.Var(ts, a.Name, "enable "+a.Name+" analysis")
	}

	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "%s: static-analysis suite for the pebble repo; invoke via go vet -vettool=%s\n", progname, progname)
		os.Exit(1)
	}
	flag.Parse()

	if *printflags {
		printFlags()
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
	}

	// Apply -NAME / -NAME=false selection.
	var hasTrue, hasFalse bool
	for _, a := range analyzers {
		switch *enabled[a] {
		case setTrue:
			hasTrue = true
		case setFalse:
			hasFalse = true
		}
	}
	if hasTrue || hasFalse {
		keep := analyzers[:0:0]
		for _, a := range analyzers {
			ts := *enabled[a]
			if hasTrue && ts == setTrue || !hasTrue && ts != setFalse {
				keep = append(keep, a)
			}
		}
		analyzers = keep
	}

	run(args[0], analyzers, *jsonOut)
}

func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

func run(configFile string, analyzers []*analysis.Analyzer, jsonOut bool) {
	data, err := os.ReadFile(configFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", configFile, err)
	}
	if len(cfg.GoFiles) == 0 {
		log.Fatalf("package has no files: %s", cfg.ImportPath)
	}

	// The go command asks for a facts file even from tools without facts;
	// writing it (empty — the suite's analyzers are package-local) keeps the
	// vet result cacheable.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				log.Fatalf("failed to write facts file: %v", err)
			}
		}
	}

	// Dependency units are analyzed only for facts; with a fact-free suite
	// they are no-ops.
	if cfg.VetxOnly {
		writeVetx()
		os.Exit(0)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				os.Exit(0)
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return compilerImporter.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			os.Exit(0)
		}
		log.Fatal(err)
	}

	unit := &analysis.Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}
	findings, err := analysis.RunAnalyzers(unit, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	writeVetx()

	if jsonOut {
		printJSON(fset, cfg.ID, analyzers, findings)
		os.Exit(0)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%v: %s\n", fset.Position(f.Diagnostic.Pos), f.Diagnostic.Message)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

// printJSON emits the nested {package: {analyzer: [diagnostics]}} shape the
// upstream drivers use, which `go vet -json` aggregates across units.
func printJSON(fset *token.FileSet, id string, analyzers []*analysis.Analyzer, findings []analysis.Finding) {
	type jsonDiagnostic struct {
		Category string `json:"category,omitempty"`
		Posn     string `json:"posn"`
		Message  string `json:"message"`
	}
	byAnalyzer := make(map[string][]jsonDiagnostic)
	for _, f := range findings {
		byAnalyzer[f.Analyzer.Name] = append(byAnalyzer[f.Analyzer.Name], jsonDiagnostic{
			Category: f.Diagnostic.Category,
			Posn:     fset.Position(f.Diagnostic.Pos).String(),
			Message:  f.Diagnostic.Message,
		})
	}
	tree := map[string]map[string][]jsonDiagnostic{id: byAnalyzer}
	data, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
