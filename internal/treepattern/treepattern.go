// Package treepattern implements the tree-pattern provenance queries of
// Sec. 6.1: structural queries over nested result data in which nodes
// reference attributes, edges are parent-child or ancestor-descendant
// relationships, and nodes may carry value-equality and occurrence-count
// constraints (Fig. 4). Matching a pattern against a dataset identifies the
// data items for which provenance is requested and returns them as a
// backtracing structure (Def. 6.2) ready for the backtracing algorithm.
package treepattern

import (
	"fmt"
	"strings"
	"sync"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/path"
)

// Edge is the relationship between a pattern node and its parent.
type Edge uint8

// Edge kinds: parent-child or ancestor-descendant.
const (
	ChildEdge Edge = iota
	DescendantEdge
)

// Node is one tree-pattern node: it matches attributes with the given name
// reachable via its edge type, optionally constrained to a constant value
// and an occurrence count within the nearest enclosing collection.
type Node struct {
	Attr     string
	Edge     Edge
	Eq       *nested.Value
	Contains string        // substring constraint on string values ("" = none)
	Lt, Gt   *nested.Value // open range bounds on the total value order
	MinCount int           // 0 = no lower bound beyond "matches at least once"
	MaxCount int           // 0 = no upper bound
	Children []*Node
}

// Child returns a parent-child pattern node.
func Child(attr string, children ...*Node) *Node {
	return &Node{Attr: attr, Edge: ChildEdge, Children: children}
}

// Desc returns an ancestor-descendant pattern node.
func Desc(attr string, children ...*Node) *Node {
	return &Node{Attr: attr, Edge: DescendantEdge, Children: children}
}

// WithEq constrains the node's value to equal v.
func (n *Node) WithEq(v nested.Value) *Node {
	n.Eq = &v
	return n
}

// WithContains constrains the node's string value to contain the substring.
func (n *Node) WithContains(s string) *Node {
	n.Contains = s
	return n
}

// WithLt constrains the node's value to be strictly less than v (numeric
// comparisons widen int/double).
func (n *Node) WithLt(v nested.Value) *Node {
	n.Lt = &v
	return n
}

// WithGt constrains the node's value to be strictly greater than v.
func (n *Node) WithGt(v nested.Value) *Node {
	n.Gt = &v
	return n
}

// WithCount constrains how often the node may match within the nearest
// enclosing collection: [min, max] occurrences, max 0 meaning unbounded.
func (n *Node) WithCount(min, max int) *Node {
	n.MinCount, n.MaxCount = min, max
	return n
}

// Pattern is a tree pattern whose implicit root is the top-level data item.
// Do not copy a Pattern by value once it has matched — it caches its
// compiled form (see compile.go).
type Pattern struct {
	Children []*Node

	// compileOnce/compiled cache the one-time Compile() result shared by
	// every Match on this pattern.
	compileOnce sync.Once
	compiled    *Compiled
}

// New returns a pattern with the given root children.
func New(children ...*Node) *Pattern {
	return &Pattern{Children: children}
}

// String renders the pattern for diagnostics.
func (p *Pattern) String() string {
	var sb strings.Builder
	sb.WriteString("root")
	var render func(n *Node, depth int)
	render = func(n *Node, depth int) {
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("  ", depth))
		if n.Edge == DescendantEdge {
			sb.WriteString("//")
		}
		sb.WriteString(n.Attr)
		if n.Eq != nil {
			fmt.Fprintf(&sb, " == %s", *n.Eq)
		}
		if n.Contains != "" {
			fmt.Fprintf(&sb, " contains %q", n.Contains)
		}
		if n.Lt != nil {
			fmt.Fprintf(&sb, " < %s", *n.Lt)
		}
		if n.Gt != nil {
			fmt.Fprintf(&sb, " > %s", *n.Gt)
		}
		if n.MinCount > 0 || n.MaxCount > 0 {
			fmt.Fprintf(&sb, " [%d,%d]", n.MinCount, n.MaxCount)
		}
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	for _, c := range p.Children {
		render(c, 1)
	}
	return sb.String()
}

// binding is one concrete match of a pattern node: the path where it matched
// plus the bindings of its pattern children.
type binding struct {
	path     path.Path
	children []binding
}

// bindingsTree folds the matched bindings into a backtracing tree of
// contributing paths.
func bindingsTree(all []binding) *backtrace.Tree {
	t := backtrace.NewTree()
	var addBindings func(bs []binding)
	addBindings = func(bs []binding) {
		for _, b := range bs {
			t.EnsureContributing(b.path)
			addBindings(b.children)
		}
	}
	addBindings(all)
	return t
}

// Match matches the pattern against every row of the dataset in parallel
// (one goroutine per partition) and returns the backtracing structure over
// the matching rows — the distributed tree-pattern matching step that feeds
// Alg. 1. The pattern runs in its compiled form (compile.go), built on first
// use and shared — immutable and race-clean — by every partition goroutine
// and every later Match. Rows that bind the same paths share one tree; the
// trees of the returned structure are read-only.
func (p *Pattern) Match(d *engine.Dataset) *backtrace.Structure {
	return p.Compile().Match(d)
}

// compareWidened compares two values, widening int/double pairs.
func compareWidened(a, b nested.Value) int {
	if a.Kind() != b.Kind() {
		af, aok := a.AsDouble()
		bf, bok := b.AsDouble()
		if aok && bok {
			return nested.Compare(nested.Double(af), nested.Double(bf))
		}
	}
	return nested.Compare(a, b)
}
