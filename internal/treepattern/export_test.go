package treepattern

import (
	"pebble/internal/backtrace"
	"pebble/internal/nested"
)

// MatchItem matches one data item with the compiled program and returns the
// backtracing tree of matched paths, or ok == false when the item does not
// satisfy the pattern: Match's body for one item, which the equivalence tests
// hold to the interpreter's Pattern.MatchItem.
func (c *Compiled) MatchItem(d nested.Value) (*backtrace.Tree, bool) {
	m := matcher{c: c}
	all, ok := m.bind(d)
	if !ok {
		return nil, false
	}
	return bindingsTree(all), true
}
