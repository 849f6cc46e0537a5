package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Def is one definition (write) of a variable at a CFG node. Rhs is the
// defining expression when syntactically evident (the matching right-hand
// side of an assignment, a ValueSpec initializer); nil for entry defs,
// IncDecStmt, range-clause variables, and multi-value assignments where no
// single expression corresponds (x, y := f()  — Rhs is the call for both).
type Def struct {
	ID   int
	Obj  *types.Var
	Node *Node    // nil for synthetic entry definitions (params, free vars)
	Rhs  ast.Expr // defining expression, if any
	// Call is set when the definition's value comes from a (possibly
	// multi-result) call: x := f() or x, y := f().
	Call *ast.CallExpr
}

// Reaching holds the reaching-definitions solution of one function graph.
type Reaching struct {
	Graph *Graph
	Info  *types.Info
	Defs  []*Def
	// DefsOf indexes definitions by variable.
	DefsOf map[*types.Var][]*Def
	// In[n.Index] is the bitset of definition IDs reaching the entry of node n.
	In []bitset
	// defsAt[n.Index] lists the definitions generated at node n.
	defsAt [][]*Def
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) orInto(src bitset) bool {
	changed := false
	for i, w := range src {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// NewReaching builds the graph of fn's body and solves reaching definitions
// over it. Entry definitions are synthesized for parameters, named results,
// and the receiver. Variables declared outside the function but assigned
// inside (free variables of closures) get an entry def too, so reads before
// the first inner write see a definition.
func NewReaching(fn *ast.FuncDecl, info *types.Info) *Reaching {
	g := New(fn.Body)
	r := &Reaching{
		Graph:  g,
		Info:   info,
		DefsOf: make(map[*types.Var][]*Def),
		defsAt: make([][]*Def, len(g.Nodes)),
	}

	addDef := func(obj *types.Var, n *Node, rhs ast.Expr, call *ast.CallExpr) {
		d := &Def{ID: len(r.Defs), Obj: obj, Node: n, Rhs: rhs, Call: call}
		r.Defs = append(r.Defs, d)
		r.DefsOf[obj] = append(r.DefsOf[obj], d)
		if n != nil {
			r.defsAt[n.Index] = append(r.defsAt[n.Index], d)
		}
	}
	entryDef := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					addDef(v, nil, nil, nil)
				}
			}
		}
	}
	entryDef(fn.Recv)
	entryDef(fn.Type.Params)
	entryDef(fn.Type.Results)

	// Collect defs generated at each node.
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		collectDefs(n, info, addDef)
	}

	// Variables written inside the body whose declaration lies outside it
	// (closure free variables): give them an entry def so reads before any
	// inner write are not def-free. Iterate in declaration order so Def IDs
	// are deterministic across runs.
	declared := make(map[*types.Var]bool)
	ast.Inspect(fn.Body, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				declared[v] = true
			}
		}
		return true
	})
	var free []*types.Var
	for v, defs := range r.DefsOf { //pebblevet:ignore determinism -- collected into free and sorted by Pos below
		if declared[v] {
			continue
		}
		hasEntry := false
		for _, d := range defs {
			if d.Node == nil {
				hasEntry = true
			}
		}
		if !hasEntry {
			free = append(free, v)
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i].Pos() < free[j].Pos() })
	for _, v := range free {
		addDef(v, nil, nil, nil)
	}

	r.solve()
	return r
}

// collectDefs reports the definitions a single CFG node generates.
func collectDefs(n *Node, info *types.Info, add func(*types.Var, *Node, ast.Expr, *ast.CallExpr)) {
	defIdent := func(e ast.Expr, rhs ast.Expr, call *ast.CallExpr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v != nil {
			add(v, n, rhs, call)
		}
	}

	switch s := n.Stmt.(type) {
	case *ast.AssignStmt:
		// x, y = f(): every LHS defined by the call. x, y = a, b: pairwise.
		var call *ast.CallExpr
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			call, _ = s.Rhs[0].(*ast.CallExpr)
		}
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			var c *ast.CallExpr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
				c, _ = rhs.(*ast.CallExpr)
			} else {
				c = call
			}
			defIdent(lhs, rhs, c)
		}
	case *ast.IncDecStmt:
		defIdent(s.X, nil, nil)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var call *ast.CallExpr
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					call, _ = vs.Values[0].(*ast.CallExpr)
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					var c *ast.CallExpr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
						c, _ = rhs.(*ast.CallExpr)
					} else {
						c = call
					}
					defIdent(name, rhs, c)
				}
			}
		}
	case *ast.RangeStmt:
		if s.Key != nil {
			defIdent(s.Key, nil, nil)
		}
		if s.Value != nil {
			defIdent(s.Value, nil, nil)
		}
	case *ast.TypeSwitchStmt:
		// `switch y := x.(type)` — y is implicitly declared per clause; the
		// clause nodes carry the implicit object.
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			defIdent(as.Lhs[0], nil, nil)
		}
	case *ast.CaseClause:
		if v, ok := info.Implicits[s].(*types.Var); ok {
			add(v, n, nil, nil)
		}
	case *ast.IfStmt:
		collectInit(s.Init, n, info, add)
	case *ast.SwitchStmt:
		collectInit(s.Init, n, info, add)
	case *ast.ForStmt:
		collectInit(s.Init, n, info, add)
	}
}

func collectInit(init ast.Stmt, n *Node, info *types.Info, add func(*types.Var, *Node, ast.Expr, *ast.CallExpr)) {
	if init == nil {
		return
	}
	sub := &Node{Index: n.Index, Stmt: init}
	collectDefs(sub, info, func(v *types.Var, _ *Node, rhs ast.Expr, c *ast.CallExpr) {
		add(v, n, rhs, c)
	})
}

// solve runs the classic forward worklist: OUT(n) = gen(n) ∪ (IN(n) − kill(n));
// IN(n) = ∪ OUT(p). gen kills all other defs of the same variables.
func (r *Reaching) solve() {
	nd := len(r.Defs)
	g := r.Graph
	r.In = make([]bitset, len(g.Nodes))
	out := make([]bitset, len(g.Nodes))
	for i := range g.Nodes {
		r.In[i] = newBitset(nd)
		out[i] = newBitset(nd)
	}

	// Entry defs form OUT(entry).
	for _, d := range r.Defs {
		if d.Node == nil {
			out[g.Entry.Index].set(d.ID)
		}
	}

	transfer := func(n *Node) bitset {
		o := r.In[n.Index].clone()
		for _, d := range r.defsAt[n.Index] {
			// Kill all other defs of the same variable, then gen d.
			for _, k := range r.DefsOf[d.Obj] {
				o.clear(k.ID)
			}
		}
		for _, d := range r.defsAt[n.Index] {
			o.set(d.ID)
		}
		return o
	}

	work := make([]*Node, 0, len(g.Nodes))
	inWork := make([]bool, len(g.Nodes))
	push := func(n *Node) {
		if !inWork[n.Index] {
			inWork[n.Index] = true
			work = append(work, n)
		}
	}
	for _, n := range g.Nodes {
		push(n)
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n.Index] = false
		for _, p := range n.Preds {
			r.In[n.Index].orInto(out[p.Index])
		}
		if n == g.Entry {
			continue // OUT(entry) is fixed
		}
		no := transfer(n)
		if !bitsetEq(no, out[n.Index]) {
			out[n.Index] = no
			for _, s := range n.Succs {
				push(s)
			}
		}
	}
}

func bitsetEq(a, b bitset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ReachingAt returns the definitions of v reaching the entry of node n.
func (r *Reaching) ReachingAt(v *types.Var, n *Node) []*Def {
	var ds []*Def
	for _, d := range r.DefsOf[v] {
		if r.In[n.Index].has(d.ID) {
			ds = append(ds, d)
		}
	}
	return ds
}
