package treepattern

import (
	"encoding/binary"
	"strings"
	"sync"

	"pebble/internal/backtrace"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/path"
)

// Compiled patterns: Compile flattens the pattern AST into a preorder
// instruction array. Each instruction holds the node's attribute, edge kind,
// a single pre-resolved constraint thunk (the Eq/Contains/Lt/Gt checks fused
// into one closure at compile time instead of re-dispatched per candidate),
// the count bounds, and the indexes of its child instructions. Matching
// executes instructions against each candidate with a fused locate+bind walk
// — no intermediate per-node location slice — in the traversal order and with
// the semantics of the AST interpreter it replaced, which lives on in
// reference_test.go as the reference the equivalence tests compare against.
//
// A Compiled is immutable after construction: matching keeps all per-row
// state on the stack, so one compiled pattern is safely shared by the
// parallel per-partition Match goroutines and by concurrent queries.

// cnode is one compiled pattern instruction.
type cnode struct {
	attr     string
	desc     bool // ancestor-descendant edge
	check    func(nested.Value) bool
	minCount int
	maxCount int
	children []int32
}

// Compiled is the executable form of a Pattern; build it with
// Pattern.Compile. It matches exactly like the pattern it was compiled from.
type Compiled struct {
	prog  []cnode
	roots []int32
}

// Compile returns the pattern's compiled form, building it on first use and
// caching it on the pattern — repeated Match calls and all partition
// goroutines share one program.
func (p *Pattern) Compile() *Compiled {
	p.compileOnce.Do(func() { p.compiled = compile(p) })
	return p.compiled
}

// compile lays the pattern nodes out in preorder and pre-resolves each
// node's constraint thunk.
func compile(p *Pattern) *Compiled {
	c := &Compiled{}
	var emit func(n *Node) int32
	emit = func(n *Node) int32 {
		idx := int32(len(c.prog))
		c.prog = append(c.prog, cnode{
			attr:     n.Attr,
			desc:     n.Edge == DescendantEdge,
			check:    compileCheck(n),
			minCount: n.MinCount,
			maxCount: n.MaxCount,
		})
		var kids []int32
		for _, ch := range n.Children {
			kids = append(kids, emit(ch))
		}
		c.prog[idx].children = kids
		return idx
	}
	for _, ch := range p.Children {
		c.roots = append(c.roots, emit(ch))
	}
	return c
}

// compileCheck fuses a node's value constraints into one thunk (nil when the
// node is unconstrained). The constant operands are captured once here
// instead of re-read per candidate.
func compileCheck(n *Node) func(nested.Value) bool {
	var checks []func(nested.Value) bool
	if n.Eq != nil {
		want := *n.Eq
		checks = append(checks, func(v nested.Value) bool { return nested.Equal(v, want) })
	}
	if n.Contains != "" {
		sub := n.Contains
		checks = append(checks, func(v nested.Value) bool {
			s, ok := v.AsString()
			return ok && strings.Contains(s, sub)
		})
	}
	if n.Lt != nil {
		want := *n.Lt
		checks = append(checks, func(v nested.Value) bool { return compareWidened(v, want) < 0 })
	}
	if n.Gt != nil {
		want := *n.Gt
		checks = append(checks, func(v nested.Value) bool { return compareWidened(v, want) > 0 })
	}
	switch len(checks) {
	case 0:
		return nil
	case 1:
		return checks[0]
	}
	all := checks
	return func(v nested.Value) bool {
		for _, c := range all {
			if !c(v) {
				return false
			}
		}
		return true
	}
}

// MatchItem matches one data item with the compiled program and returns the
// backtracing tree of matched paths, or ok == false when the item does not
// satisfy the pattern. The tree is the caller's own.
func (c *Compiled) MatchItem(d nested.Value) (*backtrace.Tree, bool) {
	all, ok := c.bind(d)
	if !ok {
		return nil, false
	}
	return bindingsTree(all), true
}

// bind returns the bindings of every root instruction on one data item.
func (c *Compiled) bind(d nested.Value) ([]binding, bool) {
	var all []binding
	for _, r := range c.roots {
		bs := c.matchNode(r, d, nil)
		if bs == nil {
			return nil, false
		}
		all = append(all, bs...)
	}
	return all, true
}

// Match matches the compiled pattern against every row of the dataset in
// parallel, one goroutine per partition. Rows that bind the same paths — the
// usual case: a pattern over top-level attributes binds the same paths on
// every row — get the same, shared *backtrace.Tree; the trees of the returned
// structure are read-only (see backtrace.Tree).
func (c *Compiled) Match(d *engine.Dataset) *backtrace.Structure {
	partResults := make([][]*backtrace.Item, len(d.Partitions))
	shared := &sharedTrees{bySig: make(map[string]*backtrace.Tree)}
	var wg sync.WaitGroup
	for pi := range d.Partitions {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			var (
				items []*backtrace.Item
				sig   []byte
				seen  map[string]*backtrace.Tree // this goroutine's view of shared
			)
			for _, row := range d.Partitions[pi] {
				all, ok := c.bind(row.Value)
				if !ok {
					continue
				}
				sig = appendSignature(sig[:0], all)
				tree, ok := seen[string(sig)]
				if !ok {
					tree = shared.tree(sig, all)
					if seen == nil {
						seen = make(map[string]*backtrace.Tree)
					}
					seen[string(sig)] = tree
				}
				items = append(items, &backtrace.Item{ID: row.ID, Tree: tree})
			}
			partResults[pi] = items
		}(pi)
	}
	wg.Wait()
	out := backtrace.NewStructure()
	for _, items := range partResults {
		out.Items = append(out.Items, items...)
	}
	return out
}

// sharedTrees holds the one tree per distinct binding signature of a Match,
// across its partition goroutines.
type sharedTrees struct {
	mu    sync.Mutex
	bySig map[string]*backtrace.Tree // guarded by mu
}

// tree returns the tree of the bindings with signature sig, building it when
// the signature is new.
func (s *sharedTrees) tree(sig []byte, all []binding) *backtrace.Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.bySig[string(sig)]
	if !ok {
		t = bindingsTree(all)
		s.bySig[string(sig)] = t
	}
	return t
}

// appendSignature appends what bindingsTree reads of the bindings — every
// bound path, in its order — so that equal signatures mean equal trees.
func appendSignature(dst []byte, bs []binding) []byte {
	for _, b := range bs {
		dst = binary.AppendUvarint(dst, uint64(len(b.path)))
		for _, s := range b.path {
			dst = binary.AppendUvarint(dst, uint64(len(s.Attr)))
			dst = append(dst, s.Attr...)
			dst = binary.AppendVarint(dst, int64(s.Index))
		}
		dst = appendSignature(dst, b.children)
	}
	return dst
}

// matchNode executes instruction i against context value ctx: all bindings,
// or nil when the node does not match (including count violations) — the
// one pattern node's verdict.
func (c *Compiled) matchNode(i int32, ctx nested.Value, prefix path.Path) []binding {
	n := &c.prog[i]
	out := c.collect(n, ctx, prefix, nil)
	if len(out) == 0 {
		return nil
	}
	if n.minCount > 0 && len(out) < n.minCount {
		return nil
	}
	if n.maxCount > 0 && len(out) > n.maxCount {
		return nil
	}
	return out
}

// collect finds the occurrences the node's edge can reach from ctx — direct
// attributes (fanning through collection elements) for child edges, any depth
// for descendant edges — and binds each as it is discovered, in document
// order.
func (c *Compiled) collect(n *cnode, ctx nested.Value, prefix path.Path, out []binding) []binding {
	switch ctx.Kind() {
	case nested.KindItem:
		for i := 0; i < ctx.NumFields(); i++ {
			name := ctx.FieldName(i)
			if name != n.attr && !n.desc {
				continue // a child edge reads the name table and the slots that match
			}
			val := ctx.FieldValue(i)
			p := prefix.Append(path.Step{Attr: name, Index: path.NoIndex})
			if name == n.attr {
				if b, ok := c.bindAt(n, val, p); ok {
					out = append(out, b)
				}
			}
			if n.desc {
				out = c.collect(n, val, p, out)
			}
		}
	case nested.KindBag, nested.KindSet:
		for i, e := range ctx.Elems() {
			p := prefix.Append(path.Step{Index: i + 1})
			out = c.collect(n, e, p, out)
		}
	}
	return out
}

// bindAt applies the node's constraint thunk and child instructions at one
// occurrence.
func (c *Compiled) bindAt(n *cnode, val nested.Value, p path.Path) (binding, bool) {
	if n.check != nil && !n.check(val) {
		return binding{}, false
	}
	b := binding{path: p}
	for _, ci := range n.children {
		cb := c.matchNode(ci, val, p)
		if cb == nil {
			return binding{}, false
		}
		b.children = append(b.children, cb...)
	}
	return b, true
}
