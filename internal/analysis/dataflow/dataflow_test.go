package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// load typechecks one file of source and returns its first FuncDecl named
// name along with the types.Info.
func load(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, fset
		}
	}
	t.Fatalf("func %s not found", name)
	return nil, nil, nil
}

func findVar(t *testing.T, info *types.Info, name string) *types.Var {
	t.Helper()
	for _, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && v.Name() == name {
			return v
		}
	}
	t.Fatalf("var %s not found", name)
	return nil
}

// nodeFor finds the CFG node whose statement contains the given source
// fragment (by re-rendering positions is overkill; we match statement type +
// a predicate).
func nodeWhere(g *Graph, pred func(ast.Stmt) bool) *Node {
	for _, n := range g.Nodes {
		if n.Stmt != nil && pred(n.Stmt) {
			return n
		}
	}
	return nil
}

func isCallNamed(s ast.Stmt, fn string) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == fn
}

func TestCFGLinear(t *testing.T) {
	fd, _, _ := load(t, `package p
func use(...interface{}) {}
func f() {
	x := 1
	use(x)
}`, "f")
	g := New(fd.Body)
	// Entry, Exit, assign, call.
	if len(g.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(g.Nodes))
	}
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry succs = %d", len(g.Entry.Succs))
	}
	if len(g.Exit.Preds) != 1 {
		t.Fatalf("exit preds = %d", len(g.Exit.Preds))
	}
}

func TestCFGIfElse(t *testing.T) {
	fd, _, _ := load(t, `package p
func use(...interface{}) {}
func f(c bool) {
	if c {
		use(1)
	} else {
		use(2)
	}
	use(3)
}`, "f")
	g := New(fd.Body)
	ifn := nodeWhere(g, func(s ast.Stmt) bool { _, ok := s.(*ast.IfStmt); return ok })
	if ifn == nil || len(ifn.Succs) != 2 {
		t.Fatalf("if node succs = %v", ifn)
	}
	after := nodeWhere(g, func(s ast.Stmt) bool { return isCallNamed(s, "use") && s.Pos() > ifn.Stmt.End() })
	if after == nil || len(after.Preds) != 2 {
		t.Fatalf("join preds wrong: %v", after)
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	fd, _, _ := load(t, `package p
func use(...interface{}) {}
func f() {
	for i := 0; i < 10; i++ {
		use(i)
	}
	use(0)
}`, "f")
	g := New(fd.Body)
	head := nodeWhere(g, func(s ast.Stmt) bool { _, ok := s.(*ast.ForStmt); return ok })
	post := nodeWhere(g, func(s ast.Stmt) bool { _, ok := s.(*ast.IncDecStmt); return ok })
	if head == nil || post == nil {
		t.Fatal("missing loop nodes")
	}
	// post → head back edge.
	found := false
	for _, s := range post.Succs {
		if s == head {
			found = true
		}
	}
	if !found {
		t.Fatal("no back edge from post to header")
	}
	// The header also exits the loop, to the statement after it.
	exit := nodeWhere(g, func(s ast.Stmt) bool { return isCallNamed(s, "use") && s.Pos() > head.Stmt.End() })
	if exit == nil || len(head.Succs) != 2 || (head.Succs[0] != exit && head.Succs[1] != exit) {
		t.Fatalf("header successors %v, want the body and the statement after the loop", head.Succs)
	}
}

func TestCFGBreakContinue(t *testing.T) {
	fd, _, _ := load(t, `package p
func use(...interface{}) {}
func f(xs []int) {
	for _, x := range xs {
		if x == 0 {
			continue
		}
		if x == 1 {
			break
		}
		use(x)
	}
	use(9)
}`, "f")
	g := New(fd.Body)
	head := nodeWhere(g, func(s ast.Stmt) bool { _, ok := s.(*ast.RangeStmt); return ok })
	var brk, cont *Node
	for _, n := range g.Nodes {
		if bs, ok := n.Stmt.(*ast.BranchStmt); ok {
			switch bs.Tok {
			case token.BREAK:
				brk = n
			case token.CONTINUE:
				cont = n
			}
		}
	}
	if cont == nil || cont.Succs[0] != head {
		t.Fatal("continue must target range header")
	}
	after := nodeWhere(g, func(s ast.Stmt) bool { return isCallNamed(s, "use") && s.Pos() > head.Stmt.End() })
	if brk == nil || brk.Succs[0] != after {
		t.Fatal("break must target statement after loop")
	}
}

func TestCFGSwitchFallthroughAndReturn(t *testing.T) {
	fd, _, _ := load(t, `package p
func use(...interface{}) {}
func f(x int) {
	switch x {
	case 0:
		use(0)
		fallthrough
	case 1:
		use(1)
	default:
		return
	}
	use(2)
}`, "f")
	g := New(fd.Body)
	var ft *Node
	for _, n := range g.Nodes {
		if bs, ok := n.Stmt.(*ast.BranchStmt); ok && bs.Tok == token.FALLTHROUGH {
			ft = n
		}
	}
	if ft == nil {
		t.Fatal("no fallthrough node")
	}
	// fallthrough must reach use(1) without passing the switch header.
	next := ft.Succs[0]
	if !isCallNamed(next.Stmt, "use") {
		t.Fatalf("fallthrough target = %T", next.Stmt)
	}
	ret := nodeWhere(g, func(s ast.Stmt) bool { _, ok := s.(*ast.ReturnStmt); return ok })
	if ret.Succs[0] != g.Exit {
		t.Fatal("return must edge to exit")
	}
}

func TestReachingDefsKill(t *testing.T) {
	fd, info, _ := load(t, `package p
func use(...interface{}) {}
func f(c bool) {
	x := 1
	if c {
		x = 2
	}
	use(x)
}`, "f")
	r := NewReaching(fd, info)
	x := findVar(t, info, "x")
	useN := nodeWhere(r.Graph, func(s ast.Stmt) bool { return isCallNamed(s, "use") })
	ds := r.ReachingAt(x, useN)
	if len(ds) != 2 {
		t.Fatalf("reaching defs of x at use = %d, want 2 (both branches)", len(ds))
	}
}

func TestReachingDefsStraightKill(t *testing.T) {
	fd, info, _ := load(t, `package p
func use(...interface{}) {}
func f() {
	x := 1
	x = 2
	use(x)
}`, "f")
	r := NewReaching(fd, info)
	x := findVar(t, info, "x")
	useN := nodeWhere(r.Graph, func(s ast.Stmt) bool { return isCallNamed(s, "use") })
	ds := r.ReachingAt(x, useN)
	if len(ds) != 1 {
		t.Fatalf("reaching defs = %d, want 1 (x=2 kills x:=1)", len(ds))
	}
	if lit, ok := ds[0].Rhs.(*ast.BasicLit); !ok || lit.Value != "2" {
		t.Fatalf("surviving def rhs = %v", ds[0].Rhs)
	}
}

func TestReachingLoopCarried(t *testing.T) {
	fd, info, _ := load(t, `package p
func use(...interface{}) {}
func f(n int) {
	s := 0
	for i := 0; i < n; i++ {
		use(s)
		s = s + i
	}
}`, "f")
	r := NewReaching(fd, info)
	s := findVar(t, info, "s")
	useN := nodeWhere(r.Graph, func(st ast.Stmt) bool { return isCallNamed(st, "use") })
	ds := r.ReachingAt(s, useN)
	// Both s := 0 and the loop-carried s = s + i reach the use.
	if len(ds) != 2 {
		t.Fatalf("loop-carried reaching defs = %d, want 2", len(ds))
	}
}

func TestTaintThroughCopies(t *testing.T) {
	fd, info, _ := load(t, `package p
func source() []byte { return nil }
func sink(...interface{}) {}
func f() {
	a := source()
	b := a
	c := b[1:]
	d := 5
	sink(c, d)
}`, "f")
	r := NewReaching(fd, info)
	tt := NewTaint(r, TaintConfig{Source: func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "source"
	}})
	sinkN := nodeWhere(r.Graph, func(s ast.Stmt) bool { return isCallNamed(s, "sink") })
	if !tt.VarTaintedAt(findVar(t, info, "c"), sinkN) {
		t.Fatal("c should be tainted via a → b → slice")
	}
	if tt.VarTaintedAt(findVar(t, info, "d"), sinkN) {
		t.Fatal("d must stay untainted")
	}
}

func TestTaintKilledByReassign(t *testing.T) {
	fd, info, _ := load(t, `package p
func source() []byte { return nil }
func sink(...interface{}) {}
func f() {
	a := source()
	a = nil
	sink(a)
}`, "f")
	r := NewReaching(fd, info)
	tt := NewTaint(r, TaintConfig{Source: func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "source"
	}})
	sinkN := nodeWhere(r.Graph, func(s ast.Stmt) bool { return isCallNamed(s, "sink") })
	if tt.VarTaintedAt(findVar(t, info, "a"), sinkN) {
		t.Fatal("a = nil should kill the tainted definition")
	}
}

func TestTaintCompositeAndStruct(t *testing.T) {
	fd, info, _ := load(t, `package p
type box struct{ buf []byte }
func source() []byte { return nil }
func sink(...interface{}) {}
func f() {
	a := source()
	w := box{buf: a}
	n := len(a)
	sink(w, n)
}`, "f")
	r := NewReaching(fd, info)
	tt := NewTaint(r, TaintConfig{Source: func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "source"
	}})
	sinkN := nodeWhere(r.Graph, func(s ast.Stmt) bool { return isCallNamed(s, "sink") })
	if !tt.VarTaintedAt(findVar(t, info, "w"), sinkN) {
		t.Fatal("w should be tainted: composite literal embeds tainted slice")
	}
	if tt.VarTaintedAt(findVar(t, info, "n"), sinkN) {
		t.Fatal("n (len result) must stay untainted: call results are clean")
	}
}

func TestEntryDefsForParams(t *testing.T) {
	fd, info, _ := load(t, `package p
func use(...interface{}) {}
func f(p int) {
	use(p)
}`, "f")
	r := NewReaching(fd, info)
	p := findVar(t, info, "p")
	useN := nodeWhere(r.Graph, func(s ast.Stmt) bool { return isCallNamed(s, "use") })
	ds := r.ReachingAt(p, useN)
	if len(ds) != 1 || ds[0].Node != nil {
		t.Fatalf("param should have exactly the entry def reaching, got %d", len(ds))
	}
}

func TestGotoResolution(t *testing.T) {
	fd, _, _ := load(t, `package p
func use(...interface{}) {}
func f(c bool) {
	if c {
		goto done
	}
	use(1)
done:
	use(2)
}`, "f")
	g := New(fd.Body)
	var gn *Node
	for _, n := range g.Nodes {
		if bs, ok := n.Stmt.(*ast.BranchStmt); ok && bs.Tok == token.GOTO {
			gn = n
		}
	}
	if gn == nil || len(gn.Succs) != 1 {
		t.Fatal("goto node missing or unwired")
	}
	if !isCallNamed(gn.Succs[0].Stmt, "use") {
		t.Fatalf("goto target = %T", gn.Succs[0].Stmt)
	}
	if !strings.Contains(srcOf(t, gn.Succs[0].Stmt), "2") {
		t.Fatal("goto must land on use(2)")
	}
}

func srcOf(t *testing.T, s ast.Stmt) string {
	t.Helper()
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call := es.X.(*ast.CallExpr)
	if lit, ok := call.Args[0].(*ast.BasicLit); ok {
		return lit.Value
	}
	return ""
}
