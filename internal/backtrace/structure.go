package backtrace

import (
	"fmt"
	"sort"
	"strings"
)

// Item is one entry ⟨id, T⟩ of the backtracing structure: a top-level data
// item identifier with the backtracing tree describing the queried (and
// influencing) parts of its schema.
type Item struct {
	ID   int64
	Tree *Tree
}

// Structure is the backtracing structure B = {{⟨id, T⟩}} of Def. 6.2.
//
// Items of one structure, and of the structures a match or a trace hands
// out, may point at the same *Tree: such trees are shared and read-only (see
// Tree). Clone gives a structure whose trees are private copies.
type Structure struct {
	Items []*Item
}

// NewStructure returns an empty backtracing structure.
func NewStructure() *Structure { return &Structure{} }

// Add appends an item.
func (b *Structure) Add(id int64, t *Tree) {
	b.Items = append(b.Items, &Item{ID: id, Tree: t})
}

// Len returns the number of items.
func (b *Structure) Len() int { return len(b.Items) }

// IDs returns the item identifiers in ascending order.
func (b *Structure) IDs() []int64 {
	out := make([]int64, len(b.Items))
	for i, it := range b.Items {
		out[i] = it.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy: every item gets a private copy of its tree,
// also where b's items share one.
func (b *Structure) Clone() *Structure {
	out := &Structure{Items: make([]*Item, len(b.Items))}
	for i, it := range b.Items {
		out.Items[i] = &Item{ID: it.ID, Tree: it.Tree.Clone()}
	}
	return out
}

// merger builds the γ_id + mergeTrees result of a backtracing step item by
// item, in first-seen order, without an intermediate structure.
type merger struct {
	out Structure
	at  map[int64]int // identifier → index in out.Items
	// own[i] tells that out.Items[i] holds a tree only the merger knows, so
	// further trees merge into it in place.
	own []bool
	// slab is where the next items come from: they are allocated by the
	// chunk, each chunk twice the last.
	slab []Item
}

// maxItemChunk bounds the growth of a merger's item chunks.
const maxItemChunk = 1024

func newMerger() *merger { return &merger{at: make(map[int64]int)} }

// add records ⟨id, t⟩. The first tree of an identifier is kept as it is, the
// same tree again costs nothing, and a different one is merged into a copy of
// the first — made before the first real merge, since that tree is shared.
func (m *merger) add(id int64, t *Tree) {
	i, ok := m.at[id]
	if !ok {
		if len(m.slab) == 0 {
			m.slab = make([]Item, min(max(2*len(m.out.Items), 4), maxItemChunk))
		}
		m.slab[0] = Item{ID: id, Tree: t}
		m.at[id] = len(m.out.Items)
		m.out.Items = append(m.out.Items, &m.slab[0])
		m.own = append(m.own, false)
		m.slab = m.slab[1:]
		return
	}
	it := m.out.Items[i]
	if it.Tree == t {
		return
	}
	if !m.own[i] {
		it.Tree = it.Tree.Clone()
		m.own[i] = true
	}
	it.Tree.Merge(t)
}

func (m *merger) addAll(b *Structure) {
	for _, it := range b.Items {
		m.add(it.ID, it.Tree)
	}
}

// merged returns the structure. Inside a trace the trees the merger built
// are interned, so equal merges share one tree again; in may be nil.
func (m *merger) merged(in *interner) *Structure {
	if in != nil {
		for i, it := range m.out.Items {
			if m.own[i] {
				it.Tree = in.intern(it.Tree)
			}
		}
	}
	return &m.out
}

// String renders the structure, one item per block.
func (b *Structure) String() string {
	var sb strings.Builder
	items := append([]*Item(nil), b.Items...)
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	for _, it := range items {
		fmt.Fprintf(&sb, "item %d\n", it.ID)
		for _, line := range strings.Split(strings.TrimRight(it.Tree.String(), "\n"), "\n") {
			if line != "" {
				sb.WriteString("  " + line + "\n")
			}
		}
	}
	return sb.String()
}

// ContributingPaths returns, per item, the paths of the contributing leaf
// nodes — the where-provenance-style view of the trace: the "cells" the
// queried result values were copied from. The paper's Sec. 2 discusses why
// this flat cell list is weaker than the full backtracing trees (it loses
// the common context binding the cells together); it is still the right
// granularity for cell-level redaction or masking.
func (b *Structure) ContributingPaths() map[int64][]string {
	out := make(map[int64][]string, len(b.Items))
	for _, it := range b.Items {
		var cells []string
		it.Tree.Walk(func(n *Node) {
			if n.Parent == nil || !n.Contributing || len(n.Children) > 0 {
				return
			}
			cells = append(cells, n.PathString())
		})
		sort.Strings(cells)
		out[it.ID] = cells
	}
	return out
}
