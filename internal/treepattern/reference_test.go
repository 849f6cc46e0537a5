package treepattern

import (
	"strings"

	"pebble/internal/backtrace"
	"pebble/internal/nested"
	"pebble/internal/path"
)

// This file holds the AST interpreter — the matcher that shipped beside the
// compiled form until Match ran the compiled form only. It walks the pattern
// tree directly, one locate pass and one bind pass per node, and is the
// reference the equivalence tests (compile_test.go, fuzz_test.go,
// edgecases_test.go) hold the compiled matcher to: same match verdict, same
// backtracing tree, on every pattern and item they generate.

// MatchItem matches the pattern against one data item and returns the
// backtracing tree of matched paths, or ok == false when the item does not
// satisfy the pattern, by interpreting the pattern tree.
func (p *Pattern) MatchItem(d nested.Value) (*backtrace.Tree, bool) {
	var all []binding
	for _, c := range p.Children {
		bs := matchNode(c, d, nil)
		if bs == nil {
			return nil, false
		}
		all = append(all, bs...)
	}
	return bindingsTree(all), true
}

// matchNode returns all bindings of pattern node n within context value ctx
// (addressed by prefix), or nil when the node does not match (including
// count-constraint violations).
func matchNode(n *Node, ctx nested.Value, prefix path.Path) []binding {
	locs := locate(n, ctx, prefix)
	var out []binding
	for _, loc := range locs {
		b, ok := bindAt(n, loc.val, loc.p)
		if ok {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if n.MinCount > 0 && len(out) < n.MinCount {
		return nil
	}
	if n.MaxCount > 0 && len(out) > n.MaxCount {
		return nil
	}
	return out
}

// bindAt checks the node's value conditions and child patterns at one
// location.
func bindAt(n *Node, val nested.Value, p path.Path) (binding, bool) {
	if n.Eq != nil && !nested.Equal(val, *n.Eq) {
		return binding{}, false
	}
	if n.Contains != "" {
		s, ok := val.AsString()
		if !ok || !strings.Contains(s, n.Contains) {
			return binding{}, false
		}
	}
	if n.Lt != nil && !(compareWidened(val, *n.Lt) < 0) {
		return binding{}, false
	}
	if n.Gt != nil && !(compareWidened(val, *n.Gt) > 0) {
		return binding{}, false
	}
	b := binding{path: p}
	for _, c := range n.Children {
		cb := matchNode(c, val, p)
		if cb == nil {
			return binding{}, false
		}
		b.children = append(b.children, cb...)
	}
	return b, true
}

type location struct {
	val nested.Value
	p   path.Path
}

// locate finds the attribute occurrences the node's edge can reach from ctx:
// direct attributes (fanning through collection elements) for child edges,
// any depth for descendant edges.
func locate(n *Node, ctx nested.Value, prefix path.Path) []location {
	var out []location
	switch ctx.Kind() {
	case nested.KindItem:
		for i := 0; i < ctx.NumFields(); i++ {
			name, val := ctx.FieldName(i), ctx.FieldValue(i)
			p := prefix.Append(path.Step{Attr: name, Index: path.NoIndex})
			if name == n.Attr {
				out = append(out, location{val: val, p: p})
				if n.Edge == ChildEdge {
					continue
				}
			}
			if n.Edge == DescendantEdge {
				out = append(out, locate(n, val, p)...)
			}
		}
	case nested.KindBag, nested.KindSet:
		for i, e := range ctx.Elems() {
			p := prefix.Append(path.Step{Index: i + 1})
			out = append(out, locate(n, e, p)...)
		}
	}
	return out
}
