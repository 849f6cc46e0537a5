// Package dataflow is the intraprocedural analysis engine behind the
// determinism analyzer's one-hop helper check: a control-flow graph built
// directly over go/ast (no SSA — consistent with the from-scratch
// x/tools-compatible framework in internal/analysis), classic
// reaching-definitions over it, and a conservative value-flow ("taint")
// lattice for tracking where values such as a helper's parameters travel.
//
// The engine is deliberately a may-analysis with documented approximations
// (see DESIGN.md §11): extra CFG edges and over-tainting only make the
// analyzer conservative, never silently permissive, and its fixture tests
// pin both the flagged and the clean shapes.
package dataflow

import (
	"go/ast"
	"go/token"
)

// A Node is one statement of the control-flow graph. Compound statements
// contribute a header node (carrying their init/condition/tag expressions)
// while their nested statements get nodes of their own; Entry and Exit are
// synthetic (Stmt == nil).
type Node struct {
	Index int
	// Stmt is the statement this node represents. For IfStmt, ForStmt,
	// RangeStmt, SwitchStmt, TypeSwitchStmt, and SelectStmt the node stands
	// for the header (init statement, condition/tag evaluation, range
	// operand) only — the bodies are separate nodes.
	Stmt  ast.Stmt
	Succs []*Node
	Preds []*Node
}

// A Graph is the control-flow graph of one function body. Panics and calls
// to runtime.Goexit are not modelled (no abnormal edges); defer bodies run at
// Exit conceptually but are treated as ordinary statements at their lexical
// position, which is conservative for forward may-analyses.
type Graph struct {
	Entry *Node
	Exit  *Node
	Nodes []*Node
}

type builder struct {
	g *Graph
	// break/continue target stacks; each entry remembers the label (possibly
	// empty) of the enclosing breakable/continuable statement.
	breaks    []branchTarget
	continues []branchTarget
	// labels maps label names to the entry node of their statement, for goto;
	// gotos seen before their label are patched after the build.
	labels  map[string]*Node
	pending []pendingGoto
}

type branchTarget struct {
	label string
	node  *Node
}

type pendingGoto struct {
	from  *Node
	label string
}

// New builds the control-flow graph of a function body (a *ast.BlockStmt).
// A nil body yields a graph with only Entry→Exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: make(map[string]*Node)}
	g.Entry = b.newNode(nil)
	g.Exit = b.newNode(nil)
	if body == nil {
		edge(g.Entry, g.Exit)
		return g
	}
	first := b.stmtList(body.List, g.Exit)
	edge(g.Entry, first)
	// Patch forward gotos; unresolved labels (shouldn't happen in
	// typechecked code) conservatively jump to Exit.
	for _, pg := range b.pending {
		if t, ok := b.labels[pg.label]; ok {
			edge(pg.from, t)
		} else {
			edge(pg.from, g.Exit)
		}
	}
	return g
}

func (b *builder) newNode(s ast.Stmt) *Node {
	n := &Node{Index: len(b.g.Nodes), Stmt: s}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func edge(from, to *Node) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// stmtList wires a statement sequence so that falling off the end continues
// at succ, returning the entry node of the sequence.
func (b *builder) stmtList(list []ast.Stmt, succ *Node) *Node {
	next := succ
	for i := len(list) - 1; i >= 0; i-- {
		next = b.stmt(list[i], next, "")
	}
	return next
}

// stmt builds the subgraph of one statement; label is the enclosing label
// name when the statement is the body of a LabeledStmt.
func (b *builder) stmt(s ast.Stmt, succ *Node, label string) *Node {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, succ)

	case *ast.LabeledStmt:
		// The label resolves to the entry of the labeled statement. Register
		// a placeholder first so `goto L` inside the statement resolves.
		entry := b.stmt(s.Stmt, succ, s.Label.Name)
		b.labels[s.Label.Name] = entry
		return entry

	case *ast.IfStmt:
		n := b.newNode(s)
		then := b.stmtList(s.Body.List, succ)
		edge(n, then)
		if s.Else != nil {
			edge(n, b.stmt(s.Else, succ, ""))
		} else {
			edge(n, succ)
		}
		return n

	case *ast.ForStmt:
		head := b.newNode(s)
		// The loop re-entry point: the post statement when present, else the
		// header. `continue` jumps there.
		reentry := head
		var post *Node
		if s.Post != nil {
			post = b.newNode(s.Post)
			edge(post, head)
			reentry = post
		}
		b.pushLoop(label, succ, reentry)
		bodyEntry := b.stmtList(s.Body.List, reentry)
		b.popLoop()
		edge(head, bodyEntry)
		// Conservative loop exit even for `for {}` — a missing edge would hide
		// code after the loop from the analyses.
		edge(head, succ)
		return head

	case *ast.RangeStmt:
		head := b.newNode(s)
		b.pushLoop(label, succ, head)
		bodyEntry := b.stmtList(s.Body.List, head)
		b.popLoop()
		edge(head, bodyEntry)
		edge(head, succ)
		return head

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var bodyList []ast.Stmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			bodyList = sw.Body.List
		} else {
			bodyList = s.(*ast.TypeSwitchStmt).Body.List
		}
		head := b.newNode(s)
		b.pushBreak(label, succ)
		// Build case bodies back to front so fallthrough can target the next
		// case's body entry.
		caseEntries := make([]*Node, len(bodyList))
		nextBody := succ // fallthrough target of the last case
		for i := len(bodyList) - 1; i >= 0; i-- {
			cc := bodyList[i].(*ast.CaseClause)
			cn := b.newNode(cc)
			bodyEntry := b.stmtListFallthrough(cc.Body, succ, nextBody)
			edge(cn, bodyEntry)
			caseEntries[i] = cn
			nextBody = bodyEntry
		}
		b.popBreak()
		hasDefault := false
		for i, cs := range bodyList {
			if cs.(*ast.CaseClause).List == nil {
				hasDefault = true
			}
			edge(head, caseEntries[i])
		}
		if !hasDefault {
			edge(head, succ)
		}
		return head

	case *ast.SelectStmt:
		head := b.newNode(s)
		b.pushBreak(label, succ)
		hasDefault := false
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			cn := b.newNode(cc)
			edge(cn, b.stmtList(cc.Body, succ))
			edge(head, cn)
			if cc.Comm == nil {
				hasDefault = true
			}
		}
		b.popBreak()
		if !hasDefault && len(s.Body.List) == 0 {
			edge(head, succ)
		}
		return head

	case *ast.ReturnStmt:
		n := b.newNode(s)
		edge(n, b.g.Exit)
		return n

	case *ast.BranchStmt:
		n := b.newNode(s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			edge(n, b.target(b.breaks, label))
		case token.CONTINUE:
			edge(n, b.target(b.continues, label))
		case token.GOTO:
			if t, ok := b.labels[label]; ok {
				edge(n, t)
			} else {
				b.pending = append(b.pending, pendingGoto{from: n, label: label})
			}
		case token.FALLTHROUGH:
			// Handled by stmtListFallthrough; a stray fallthrough (invalid Go)
			// falls to succ.
			edge(n, succ)
		}
		return n

	default:
		// Simple statements: assignments, declarations, expressions, send,
		// inc/dec, go, defer, empty.
		n := b.newNode(s)
		edge(n, succ)
		return n
	}
}

// stmtListFallthrough is stmtList for a case body whose trailing fallthrough
// must jump to the next case body instead of succ.
func (b *builder) stmtListFallthrough(list []ast.Stmt, succ, nextBody *Node) *Node {
	if n := len(list); n > 0 {
		if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			fn := b.newNode(br)
			edge(fn, nextBody)
			return b.seqInto(list[:n-1], fn)
		}
	}
	return b.stmtList(list, succ)
}

func (b *builder) seqInto(list []ast.Stmt, succ *Node) *Node {
	next := succ
	for i := len(list) - 1; i >= 0; i-- {
		next = b.stmt(list[i], next, "")
	}
	return next
}

func (b *builder) pushLoop(label string, brk, cont *Node) {
	b.breaks = append(b.breaks, branchTarget{label: label, node: brk})
	b.continues = append(b.continues, branchTarget{label: label, node: cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) pushBreak(label string, brk *Node) {
	b.breaks = append(b.breaks, branchTarget{label: label, node: brk})
}

func (b *builder) popBreak() { b.breaks = b.breaks[:len(b.breaks)-1] }

// target resolves a break/continue to the innermost matching target; with a
// label, the innermost target carrying it. Unresolvable branches (invalid
// code) go to Exit.
func (b *builder) target(stack []branchTarget, label string) *Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].node
		}
	}
	return b.g.Exit
}
