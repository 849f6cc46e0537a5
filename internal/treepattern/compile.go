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
// The walk keeps the path to the value it visits on a step stack (matcher):
// a step is pushed per field or element visited and popped on the way back,
// and a path is copied out only for an occurrence that binds, so a walk that
// visits many nodes and binds few allocates nothing per node. The copies and
// the root bindings of a row go into buffers the next row reuses, since a
// row's bindings are read before the next row binds. Each Match goroutine and
// each MatchItem call owns its matcher; a Compiled is immutable after
// construction, so one compiled pattern is safely shared by the parallel
// per-partition Match goroutines and by concurrent queries.

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
	m := matcher{c: c}
	all, ok := m.bind(d)
	if !ok {
		return nil, false
	}
	return bindingsTree(all), true
}

// stackSteps is the step capacity a matcher starts with: deeper than the
// scenarios' results nest, so the stack is allocated once per goroutine.
const stackSteps = 16

// matcher is the state of one walk: the program, the steps from the data
// item to the value being visited, and storage reused from row to row. It
// belongs to one goroutine.
type matcher struct {
	c     *Compiled
	stack path.Path
	// A row's bindings are read — its signature taken, its tree built — before
	// the next row is bound, so the root bindings and every bound path of a
	// row live in buffers the next row overwrites.
	roots []binding
	paths []path.Step
}

// bind returns the bindings of every root instruction on one data item,
// valid until the next call.
func (m *matcher) bind(d nested.Value) ([]binding, bool) {
	all, ok := m.roots[:0], true
	m.paths = m.paths[:0]
	for _, r := range m.c.roots {
		if all, ok = m.matchNode(r, d, all); !ok {
			break
		}
	}
	m.roots = all
	return all, ok
}

// Match matches the compiled pattern against every row of the dataset in
// parallel, one goroutine per partition. Rows that bind the same paths — the
// usual case: a pattern over top-level attributes binds the same paths on
// every row — get the same, shared *backtrace.Tree; the trees of the returned
// structure are read-only (see backtrace.Tree). A panic of a partition
// goroutine is raised again on the caller's goroutine, once every goroutine
// has ended, as an *engine.PanicError.
func (c *Compiled) Match(d *engine.Dataset) *backtrace.Structure {
	partResults := make([][]*backtrace.Item, len(d.Partitions))
	panics := make([]error, len(d.Partitions))
	shared := &sharedTrees{bySig: make(map[string]*backtrace.Tree)}
	var wg sync.WaitGroup
	for pi := range d.Partitions {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			defer engine.Recover(&panics[pi])
			var (
				m     = matcher{c: c, stack: make(path.Path, 0, stackSteps)}
				items []*backtrace.Item
				slab  []backtrace.Item // the items, allocated itemChunk at a time
				sig   []byte
				seen  map[string]*backtrace.Tree // this goroutine's view of shared
			)
			for _, row := range d.Partitions[pi] {
				all, ok := m.bind(row.Value)
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
				if len(slab) == cap(slab) {
					slab = make([]backtrace.Item, 0, itemChunk)
				}
				slab = append(slab, backtrace.Item{ID: row.ID, Tree: tree})
				items = append(items, &slab[len(slab)-1])
			}
			partResults[pi] = items
		}(pi)
	}
	wg.Wait()
	for _, err := range panics {
		if err != nil {
			panic(err)
		}
	}
	out := backtrace.NewStructure()
	for _, items := range partResults {
		out.Items = append(out.Items, items...)
	}
	return out
}

// itemChunk is how many matched items Match allocates together.
const itemChunk = 256

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

// matchNode executes instruction i against context value ctx, which the
// stack addresses, and appends its bindings to out. ok is false, and out
// comes back as it was given, when the node does not match (including count
// violations) — the one pattern node's verdict.
func (m *matcher) matchNode(i int32, ctx nested.Value, out []binding) (_ []binding, ok bool) {
	n := &m.c.prog[i]
	start := len(out)
	out = m.collect(n, &ctx, out)
	k := len(out) - start
	if k == 0 || (n.minCount > 0 && k < n.minCount) || (n.maxCount > 0 && k > n.maxCount) {
		return out[:start], false
	}
	return out, true
}

// collect finds the occurrences the node's edge can reach from ctx — direct
// attributes (fanning through collection elements) for child edges, any depth
// for descendant edges — and binds each as it is discovered, in document
// order. Each field or element it visits is a step pushed on the stack for
// the visit and popped after it; a scalar it cannot bind or descend into is
// not visited.
func (m *matcher) collect(n *cnode, ctx *nested.Value, out []binding) []binding {
	switch ctx.Kind() {
	case nested.KindItem:
		vals := ctx.FieldValues()
		for i := range vals {
			name, val := ctx.FieldName(i), &vals[i]
			hit := name == n.attr
			if !hit && !(n.desc && nests(val)) {
				continue // a child edge reads the name table and the slots that match
			}
			m.stack = append(m.stack, path.Step{Attr: name, Index: path.NoIndex})
			if hit {
				if b, ok := m.bindAt(n, *val); ok {
					out = append(out, b)
				}
			}
			if n.desc {
				out = m.collect(n, val, out)
			}
			m.stack = m.stack[:len(m.stack)-1]
		}
	case nested.KindBag, nested.KindSet:
		elems := ctx.Elems()
		for i := range elems {
			if e := &elems[i]; nests(e) {
				m.stack = append(m.stack, path.Step{Index: i + 1})
				out = m.collect(n, e, out)
				m.stack = m.stack[:len(m.stack)-1]
			}
		}
	}
	return out
}

// nests reports whether v holds attributes or elements: an item or a
// collection, where collect finds occurrences.
func nests(v *nested.Value) bool {
	return v.Kind() == nested.KindItem || v.Kind().IsCollection()
}

// bindAt applies the node's constraint thunk and child instructions at the
// occurrence val the stack addresses. The binding's path is a copy of the
// stack into the row's path buffer, taken once the children have bound.
func (m *matcher) bindAt(n *cnode, val nested.Value) (binding, bool) {
	if n.check != nil && !n.check(val) {
		return binding{}, false
	}
	var children []binding
	for _, ci := range n.children {
		var ok bool
		if children, ok = m.matchNode(ci, val, children); !ok {
			return binding{}, false
		}
	}
	start := len(m.paths)
	m.paths = append(m.paths, m.stack...)
	return binding{path: m.paths[start:len(m.paths):len(m.paths)], children: children}, true
}
