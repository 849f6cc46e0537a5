// Package backtrace implements the provenance query side of the paper: the
// backtracing structure and backtracing trees of Sec. 6.2 and the
// backtracing algorithms 1–4 of Sec. 6.3, which step a set of queried result
// items backward through the captured lightweight operator provenance until
// the source datasets are reached.
package backtrace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pebble/internal/jsonenc"
	"pebble/internal/path"
)

// Node is one node of a backtracing tree (Def. 6.3): it references an
// attribute (or a position within a nested collection), the operators that
// accessed and manipulated it, and whether it contributes to the queried
// items (c = true) or merely influences them (c = false).
type Node struct {
	// Name is the attribute name; empty for position nodes.
	Name string
	// Pos is 0 for attribute nodes, a 1-based position for position nodes,
	// or path.Pos for the unresolved [pos] placeholder.
	Pos int
	// Parent is nil for the root.
	Parent *Node
	// Children, in insertion order.
	Children []*Node
	// Access lists operators that accessed the attribute (A of Def. 6.3).
	Access []int
	// Manip lists operators that structurally manipulated it (M of Def. 6.3).
	Manip []int
	// Contributing is the c flag: true when the attribute is needed to
	// reproduce the queried items, false when it only influences them.
	Contributing bool
}

// Tree is a backtracing tree T = ⟨root, N⟩. The root stands for the
// top-level data item itself.
//
// A tree that sits in a Structure handed to or returned by a match or a trace
// is shared and read-only: many items, the steps of a trace and its result
// may all point at the one *Tree that stands for a given content. Whatever
// changes a tree — Ensure…, AccessPath, ApplyMappings, RemoveAt,
// SubstitutePlaceholder, MarkAllManip, PruneToSchema, being merged into, a
// write to a field of the tree or of a node — is for a tree nobody else holds
// yet: a new one, or a Clone.
type Tree struct {
	Root *Node
	// Opaque is set once the trace crosses a map operator: the opaque λ
	// hides structural information, so attribute-level precision below the
	// top-level item is no longer guaranteed (Sec. 6.3: map "marks all nodes
	// in the input schema as manipulated by default").
	Opaque bool
}

// NewTree returns a tree with only a root node.
func NewTree() *Tree {
	return &Tree{Root: &Node{}}
}

// key identifies a node among its siblings. It is the rendered form used by
// PathString and the tree printer; the tree-walking paths compare nkey pairs
// instead so that lookups never format strings.
func (n *Node) key() string {
	if n.Name != "" {
		return n.Name
	}
	if n.Pos == path.Pos {
		return "#pos"
	}
	return fmt.Sprintf("#%d", n.Pos)
}

// nkey is the structural identity of a node among its siblings: an attribute
// name, or — when the name is empty — a 1-based position (path.Pos for the
// unresolved [pos] placeholder).
type nkey struct {
	name string
	pos  int
}

// isPos reports whether the key identifies a position node.
func (k nkey) isPos() bool { return k.name == "" }

// newNode returns a fresh unattached node with this identity.
func (k nkey) newNode() *Node { return &Node{Name: k.name, Pos: k.pos} }

// childK returns the child with the given structural identity.
func (n *Node) childK(k nkey) *Node {
	for _, c := range n.Children {
		if c.Name == k.name && (k.name != "" || c.Pos == k.pos) {
			return c
		}
	}
	return nil
}

// posChildren returns all position-node children.
func (n *Node) posChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == "" {
			out = append(out, c)
		}
	}
	return out
}

func (n *Node) addChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

func (n *Node) removeChild(c *Node) {
	for i, cur := range n.Children {
		if cur == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return
		}
	}
}

// hasMarks reports whether the node carries any access or manipulation
// operator annotations.
func (n *Node) hasMarks() bool { return len(n.Access) > 0 || len(n.Manip) > 0 }

func addMark(marks []int, oid int) []int {
	if hasMark(marks, oid) {
		return marks
	}
	return append(marks, oid)
}

// MarkAccess records that oid accessed the node.
func (n *Node) MarkAccess(oid int) { n.Access = addMark(n.Access, oid) }

// MarkManip records that oid structurally manipulated the node.
func (n *Node) MarkManip(oid int) { n.Manip = addMark(n.Manip, oid) }

// Clone returns a deep copy of the tree: a private tree the caller may
// modify, whatever shares the original.
func (t *Tree) Clone() *Tree {
	return &Tree{Root: t.Root.clone(nil), Opaque: t.Opaque}
}

func (n *Node) clone(parent *Node) *Node {
	c := n.cloneBare(parent)
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.clone(c)
		}
	}
	return c
}

// cloneBare copies the node without its children.
func (n *Node) cloneBare(parent *Node) *Node {
	return &Node{
		Name:         n.Name,
		Pos:          n.Pos,
		Parent:       parent,
		Access:       append([]int(nil), n.Access...),
		Manip:        append([]int(nil), n.Manip...),
		Contributing: n.Contributing,
	}
}

// hash is the structural hash behind a trace's intern table: name, position,
// contributing flag, the access and manipulation marks as sets, the children
// in order, and the opaque flag — everything String and AppendJSON render,
// without rendering it.
func (t *Tree) hash() uint64 {
	h := t.Root.hash()
	if t.Opaque {
		h = mix(h, 1)
	}
	return h
}

const (
	hashSeed  = 14695981039346656037 // FNV-1a offset basis
	hashPrime = 1099511628211
)

// mix folds x into h; the order of calls matters.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * hashPrime
	return h ^ h>>29
}

func (n *Node) hash() uint64 {
	h := uint64(hashSeed)
	for i := 0; i < len(n.Name); i++ {
		h = (h ^ uint64(n.Name[i])) * hashPrime
	}
	h = mix(h, uint64(n.Pos))
	if n.Contributing {
		h = mix(h, 1)
	}
	h = mix(h, marksHash(n.Access))
	h = mix(h, marksHash(n.Manip))
	for _, c := range n.Children {
		h = mix(h, c.hash())
	}
	return h
}

// marksHash hashes a mark list as a set: marks are rendered sorted and only
// ever tested for membership, so their order is not content.
func marksHash(marks []int) uint64 {
	var h uint64
	for _, m := range marks {
		h += mix(hashSeed, uint64(m))
	}
	return mix(h, uint64(len(marks)))
}

// equal reports whether two trees have the same content, in the sense of
// hash: they render the same and every tree operation treats them alike.
func (t *Tree) equal(o *Tree) bool {
	return t == o || t.Opaque == o.Opaque && t.Root.equal(o.Root)
}

func (n *Node) equal(o *Node) bool {
	if n.Name != o.Name || n.Pos != o.Pos || n.Contributing != o.Contributing ||
		len(n.Children) != len(o.Children) ||
		!sameMarks(n.Access, o.Access) || !sameMarks(n.Manip, o.Manip) {
		return false
	}
	for i, c := range n.Children {
		if !c.equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// sameMarks compares two duplicate-free mark lists as sets.
func sameMarks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, m := range a {
		if !hasMark(b, m) {
			return false
		}
	}
	return true
}

func hasMark(marks []int, oid int) bool {
	for _, m := range marks {
		if m == oid {
			return true
		}
	}
	return false
}

// Walk visits every node in depth-first pre-order, starting at the root.
func (t *Tree) Walk(f func(*Node)) { t.Root.walk(f) }

func (n *Node) walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}

// pathNKeys expands a path into per-level structural node keys: a step a[2]
// expands into the attribute key "a" followed by the position key 2.
func pathNKeys(p path.Path) []nkey {
	keys := make([]nkey, 0, len(p))
	for _, s := range p {
		if s.Attr != "" {
			keys = append(keys, nkey{name: s.Attr})
		}
		if s.Index != path.NoIndex {
			keys = append(keys, nkey{pos: s.Index})
		}
	}
	return keys
}

// ensureChild finds or creates the child with identity k; a created node
// gets the given contributing flag.
func (n *Node) ensureChild(k nkey, contributing bool) *Node {
	next := n.childK(k)
	if next == nil {
		next = k.newNode()
		next.Contributing = contributing
		n.addChild(next)
	}
	return next
}

// EnsureContributing creates the node at path p and marks every node along
// the path as contributing (used when building the query tree).
func (t *Tree) EnsureContributing(p path.Path) *Node {
	cur := t.Root
	for _, s := range p {
		if s.Attr != "" {
			cur = cur.ensureChild(nkey{name: s.Attr}, true)
			cur.Contributing = true
		}
		if s.Index != path.NoIndex {
			cur = cur.ensureChild(nkey{pos: s.Index}, true)
			cur.Contributing = true
		}
	}
	return cur
}

// Find returns the nodes matched by path p. A [pos] step matches every
// position child (including an unresolved placeholder); a concrete position
// matches only that position node. An attribute step without index matches
// the attribute node itself.
func (t *Tree) Find(p path.Path) []*Node {
	nodes := []*Node{t.Root}
	for _, k := range pathNKeys(p) {
		var next []*Node
		for _, n := range nodes {
			if k.isPos() && k.pos == path.Pos {
				next = append(next, n.posChildren()...)
				continue
			}
			if c := n.childK(k); c != nil {
				next = append(next, c)
			}
			// A concrete position also matches an unresolved placeholder.
			if k.isPos() {
				if c := n.childK(nkey{pos: path.Pos}); c != nil {
					next = append(next, c)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		nodes = next
	}
	return nodes
}

// AccessPath implements the accessPath method of Sec. 6.2: when the nodes of
// path a exist, the operator id is added to each node's access collection;
// otherwise the missing nodes are created with c = false (they influence the
// queried items but are not needed to reproduce them) and marked likewise.
func (t *Tree) AccessPath(a path.Path, oid int) {
	t.accessWalk(t.Root, pathNKeys(a), oid)
}

func (t *Tree) accessWalk(cur *Node, keys []nkey, oid int) {
	if len(keys) == 0 {
		return
	}
	k := keys[0]
	if k.isPos() && k.pos == path.Pos {
		existing := cur.posChildren()
		if len(existing) == 0 {
			c := k.newNode()
			cur.addChild(c)
			existing = []*Node{c}
		}
		for _, c := range existing {
			c.MarkAccess(oid)
			t.accessWalk(c, keys[1:], oid)
		}
		return
	}
	next := cur.ensureChild(k, false)
	next.MarkAccess(oid)
	t.accessWalk(next, keys[1:], oid)
}

// Mapping is the backtracing view of one manipulation ⟨in, out⟩.
type Mapping struct {
	In  path.Path
	Out path.Path
}

// ApplyMappings implements the manipulatePath method of Sec. 6.2 for a set
// of mappings applied simultaneously: every output path that exists in the
// tree is transformed back to its input path, and the manipulating operator
// is recorded on the transplanted nodes (identity mappings transform nothing
// and leave no mark). Detached structural shells without annotations are
// pruned.
func (t *Tree) ApplyMappings(ms []Mapping, oid int) {
	type move struct {
		node *Node
		in   path.Path
	}
	var moves []move
	for _, m := range ms {
		if m.In.Equal(m.Out) {
			continue // identity: no structural manipulation
		}
		for _, n := range t.Find(m.Out) {
			moves = append(moves, move{node: n, in: m.In})
		}
	}
	// Detach all matched nodes first so that mappings cannot observe each
	// other's results (e.g. swapping renames a→b, b→a).
	byParent := make(map[*Node][]*Node)
	var parentOrder []*Node // iteration order: first-detach wins, not map order
	for _, mv := range moves {
		parent := mv.node.Parent
		if parent == nil {
			continue // root or already detached
		}
		parent.removeChild(mv.node)
		if _, ok := byParent[parent]; !ok {
			parentOrder = append(parentOrder, parent)
		}
		byParent[parent] = append(byParent[parent], mv.node)
	}
	// Structural shells emptied by the transplants (e.g. a struct created by
	// a select whose fields all map back) do not exist in the input schema:
	// fold their annotations into the moved children and prune them.
	for _, parent := range parentOrder {
		movedKids := byParent[parent]
		n := parent
		for n != nil && n != t.Root && len(n.Children) == 0 {
			for _, k := range movedKids {
				for _, a := range n.Access {
					k.MarkAccess(a)
				}
				for _, m := range n.Manip {
					k.MarkManip(m)
				}
			}
			p := n.Parent
			if p == nil {
				break
			}
			p.removeChild(n)
			n = p
		}
	}
	for _, mv := range moves {
		t.attach(mv.node, mv.in, oid)
	}
}

// attach places a detached node at the given input path, renaming it to the
// path's last component and merging with any existing node there.
func (t *Tree) attach(n *Node, in path.Path, oid int) {
	keys := pathNKeys(in)
	if len(keys) == 0 {
		return
	}
	last := keys[len(keys)-1]
	parent := t.Root
	for _, k := range keys[:len(keys)-1] {
		next := parent.childK(k)
		if next == nil {
			next = k.newNode()
			next.Contributing = n.Contributing
			parent.addChild(next)
		} else if n.Contributing {
			next.Contributing = true
		}
		parent = next
	}
	// Rename the node to the destination key.
	n.Name, n.Pos = last.name, last.pos
	n.MarkManip(oid)
	if existing := parent.childK(last); existing != nil {
		existing.mergeFrom(n)
		return
	}
	parent.addChild(n)
}

// mergeFrom merges another node's annotations and children into n. The
// children n lacks are moved over, so o must be a detached node of a tree
// the caller owns; mergeCopy is the variant for an o that is only read.
func (n *Node) mergeFrom(o *Node) {
	n.mergeMarks(o)
	for _, oc := range o.Children {
		if existing := n.childK(nkey{name: oc.Name, pos: oc.Pos}); existing != nil {
			existing.mergeFrom(oc)
		} else {
			oc.Parent = nil
			n.addChild(oc)
		}
	}
}

// mergeCopy is mergeFrom for a node of a shared tree: o is left untouched,
// and the children n lacks are copied over.
func (n *Node) mergeCopy(o *Node) {
	n.mergeMarks(o)
	for _, oc := range o.Children {
		if existing := n.childK(nkey{name: oc.Name, pos: oc.Pos}); existing != nil {
			existing.mergeCopy(oc)
		} else {
			n.Children = append(n.Children, oc.clone(n))
		}
	}
}

func (n *Node) mergeMarks(o *Node) {
	for _, oid := range o.Access {
		n.MarkAccess(oid)
	}
	for _, oid := range o.Manip {
		n.MarkManip(oid)
	}
	n.Contributing = n.Contributing || o.Contributing
}

// pruneShells removes n and its now-empty ancestors when they carry no
// children, no annotations, and are not themselves queried (contributing
// empty leaves stay: they are queried values).
func (t *Tree) pruneShells(n *Node) {
	for n != nil && n != t.Root && len(n.Children) == 0 && !n.hasMarks() && !n.Contributing {
		parent := n.Parent
		parent.removeChild(n)
		n = parent
	}
}

// RemoveAt removes every node matched by p (Alg. 4's removeNodes).
func (t *Tree) RemoveAt(p path.Path) {
	for _, n := range t.Find(p) {
		if n.Parent != nil {
			parent := n.Parent
			parent.removeChild(n)
			t.pruneShells(parent)
		}
	}
}

// SubstitutePlaceholder resolves the [pos] placeholder child under the
// attribute at prefix to the concrete position pos, merging with an existing
// node of that position (Alg. 2's merge step for flatten).
func (t *Tree) SubstitutePlaceholder(prefix path.Path, pos int) {
	attr := prefix.Clone()
	if len(attr) > 0 && attr[len(attr)-1].Index != path.NoIndex {
		attr[len(attr)-1].Index = path.NoIndex
	}
	for _, n := range t.Find(attr) {
		ph := n.childK(nkey{pos: path.Pos})
		if ph == nil {
			continue
		}
		n.removeChild(ph)
		ph.Pos = pos
		if existing := n.childK(nkey{pos: ph.Pos}); existing != nil {
			existing.mergeFrom(ph)
		} else {
			n.addChild(ph)
		}
	}
}

// MarkAllManip marks every node (except the root) as manipulated by oid —
// the conservative treatment of the opaque map operator.
func (t *Tree) MarkAllManip(oid int) {
	t.Walk(func(n *Node) {
		if n != t.Root {
			n.MarkManip(oid)
		}
	})
}

// Merge merges another tree into this one. o is only read: what t lacks is
// copied over, node by node.
func (t *Tree) Merge(o *Tree) {
	t.Opaque = t.Opaque || o.Opaque
	t.Root.mergeCopy(o.Root)
}

// PruneToSchema keeps only the top-level children whose attribute name is in
// the given schema — join backtracing removes the other input's attributes.
func (t *Tree) PruneToSchema(schema []string) {
	keep := make(map[string]bool, len(schema))
	for _, a := range schema {
		keep[a] = true
	}
	var kept []*Node
	for _, c := range t.Root.Children {
		if keep[c.Name] {
			kept = append(kept, c)
		} else {
			c.Parent = nil
		}
	}
	t.Root.Children = kept
}

// PathString renders the path from the root to the node.
func (n *Node) PathString() string {
	var keys []string
	for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
		k := cur.key()
		if strings.HasPrefix(k, "#") {
			k = "[" + strings.TrimPrefix(k, "#") + "]"
		}
		keys = append(keys, k)
	}
	// Reverse and join; positions attach to the preceding attribute.
	var sb strings.Builder
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if strings.HasPrefix(k, "[") {
			sb.WriteString(k)
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(k)
	}
	return sb.String()
}

// String renders the tree with one node per line, children indented, with
// contributing/influencing flags and access/manipulation marks — the textual
// form of Fig. 2's trees.
func (t *Tree) String() string {
	var sb strings.Builder
	if t.Opaque {
		sb.WriteString("(opaque: crossed a map operator)\n")
	}
	var render func(n *Node, depth int)
	render = func(n *Node, depth int) {
		if n != t.Root {
			sb.WriteString(strings.Repeat("  ", depth-1))
			label := n.key()
			if strings.HasPrefix(label, "#") {
				label = "[" + strings.TrimPrefix(label, "#") + "]"
			}
			sb.WriteString(label)
			if n.Contributing {
				sb.WriteString(" (contributing)")
			} else {
				sb.WriteString(" (influencing)")
			}
			if len(n.Access) > 0 {
				fmt.Fprintf(&sb, " accessed:%v", sortedInts(n.Access))
			}
			if len(n.Manip) > 0 {
				fmt.Fprintf(&sb, " manipulated:%v", sortedInts(n.Manip))
			}
			sb.WriteByte('\n')
		}
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	render(t.Root, 0)
	return sb.String()
}

func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out
}

// MarshalJSON encodes the tree for machine consumption (front-ends,
// notebooks): nodes carry their attribute name or 1-based position, the
// contributing flag, and the accessing/manipulating operator ids; empty
// members are left out.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(nil, jsonenc.Compact), nil
}

// AppendJSON appends the tree's JSON encoding to dst: MarshalJSON's bytes
// for depth jsonenc.Compact, and for depth >= 0 those bytes as
// json.Indent(_, "", "  ") lays them out for a value nested depth levels
// deep.
func (t *Tree) AppendJSON(dst []byte, depth int) []byte {
	in := jsonenc.Inner(depth)
	dst = append(dst, '{')
	if t.Opaque {
		dst = append(jsonenc.Key(dst, in, "opaque"), "true"...)
	}
	dst = appendChildrenJSON(dst, in, t.Root.Children)
	return jsonenc.Close(dst, depth, '}')
}

// appendChildrenJSON appends the "children" member of a container whose
// members are at depth, or nothing when there are none.
func appendChildrenJSON(dst []byte, depth int, children []*Node) []byte {
	if len(children) == 0 {
		return dst
	}
	in := jsonenc.Inner(depth)
	dst = append(jsonenc.Key(dst, depth, "children"), '[')
	for _, c := range children {
		dst = c.appendJSON(jsonenc.Sep(dst, in), in)
	}
	return jsonenc.Close(dst, depth, ']')
}

func (n *Node) appendJSON(dst []byte, depth int) []byte {
	in := jsonenc.Inner(depth)
	dst = append(dst, '{')
	if n.Name != "" {
		dst = jsonenc.String(jsonenc.Key(dst, in, "name"), n.Name)
	}
	if n.Pos > 0 {
		dst = strconv.AppendInt(jsonenc.Key(dst, in, "pos"), int64(n.Pos), 10)
	}
	dst = strconv.AppendBool(jsonenc.Key(dst, in, "contributing"), n.Contributing)
	dst = appendOpsJSON(dst, in, "accessed", n.Access)
	dst = appendOpsJSON(dst, in, "manipulated", n.Manip)
	dst = appendChildrenJSON(dst, in, n.Children)
	return jsonenc.Close(dst, depth, '}')
}

// appendOpsJSON appends a member listing operator ids in ascending order,
// or nothing for an empty list.
func appendOpsJSON(dst []byte, depth int, name string, ops []int) []byte {
	if len(ops) == 0 {
		return dst
	}
	if !sort.IntsAreSorted(ops) {
		ops = sortedInts(ops)
	}
	in := jsonenc.Inner(depth)
	dst = append(jsonenc.Key(dst, depth, name), '[')
	for _, op := range ops {
		dst = strconv.AppendInt(jsonenc.Sep(dst, in), int64(op), 10)
	}
	return jsonenc.Close(dst, depth, ']')
}
