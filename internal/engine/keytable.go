package engine

import (
	"bytes"

	"pebble/internal/nested"
)

// keyTable is the flat open-addressing hash table shared by the join and
// aggregate kernels (DESIGN.md §13). Rows are clustered by key in two steps:
// the key's hash (cached by the shuffle, so no rehash per row) selects a slot
// run, and the key's normalized byte encoding (nested.Value.AppendNorm)
// decides equality. Compared with a map[uint64][]keyedRow and a structural
// comparison per candidate (the reference in reference_test.go), the table
// keeps all per-group state in parallel int32 arrays and all key bytes in a
// single arena, so building and probing allocate per table, not per row.
//
// Semantics contract: byte equality is the match discipline of both kernels.
// It is finer than nested.CompareWidened(a,b)==0 and nested.Equal in three places:
// int/double widening, which never meets in one hash chain (Hash feeds on
// the kind tag), and ±0.0 and NaNs of different payload, which do since Hash
// follows Equal — there the bytes keep them distinct keys, as they have
// always been. The residual difference is a 64-bit FNV collision between
// structurally different keys, a non-match either way.
//
// Group indexes are dense and assigned in first-seen row order, and each
// group's rows are chained through next in insertion (= sequence) order, so
// walking a group visits its rows in sequence order.
type keyTable struct {
	slots []int32 // group index + 1; 0 marks an empty slot
	mask  uint64

	// Per-group parallel arrays, indexed by dense group id.
	hash   []uint64
	keyOff []int32
	keyLen []int32
	head   []int32
	tail   []int32
	count  []int32
	fields []int32 // join build: Σ NumFields() over the group's rows

	next  []int32 // per inserted row: next row index of the same group, -1 ends
	arena []byte  // normalized key bytes of all groups
}

// newKeyTable returns a table for up to n insertions. The slot count is a
// power of two at load factor ≤ 1/2, so the probe loops never need a
// mid-build rehash, and every per-group array has room for n groups, so no
// insert regrows one.
func newKeyTable(n int) *keyTable {
	capSlots := 16
	for capSlots < 2*n {
		capSlots *= 2
	}
	return &keyTable{
		slots:  make([]int32, capSlots),
		mask:   uint64(capSlots - 1),
		hash:   make([]uint64, 0, n),
		keyOff: make([]int32, 0, n),
		keyLen: make([]int32, 0, n),
		head:   make([]int32, 0, n),
		tail:   make([]int32, 0, n),
		count:  make([]int32, 0, n),
		fields: make([]int32, 0, n),
		next:   make([]int32, 0, n),
	}
}

// groups returns the number of distinct keys inserted.
func (t *keyTable) groups() int { return len(t.hash) }

// keyBytes returns the stored normalized encoding of group g.
func (t *keyTable) keyBytes(g int32) []byte {
	return t.arena[t.keyOff[g] : t.keyOff[g]+t.keyLen[g]]
}

// insert adds row index ri (rows must be inserted with consecutive indexes
// starting at 0) under key k with cached hash h, and returns the row's dense
// group index; a group's first-seen row is head[g]. nFields accumulates into
// the group's field sum (join output sizing).
func (t *keyTable) insert(h uint64, k nested.Value, ri int32, nFields int32) int32 {
	start := len(t.arena)
	t.arena = k.AppendNorm(t.arena)
	kb := t.arena[start:]
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			g := int32(len(t.hash))
			t.slots[i] = g + 1
			t.hash = append(t.hash, h)
			t.keyOff = append(t.keyOff, int32(start))
			t.keyLen = append(t.keyLen, int32(len(kb)))
			t.head = append(t.head, ri)
			t.tail = append(t.tail, ri)
			t.count = append(t.count, 1)
			t.fields = append(t.fields, nFields)
			t.next = append(t.next, -1)
			return g
		}
		g := s - 1
		if t.hash[g] == h && bytes.Equal(t.keyBytes(g), kb) {
			t.arena = t.arena[:start]
			t.next = append(t.next, -1)
			t.next[t.tail[g]] = ri
			t.tail[g] = ri
			t.count[g]++
			t.fields[g] += nFields
			return g
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the group index for (h, kb), or -1. Read-only: safe for
// concurrent probes once the build is complete (the broadcast join probes one
// shared table from all partition workers).
func (t *keyTable) lookup(h uint64, kb []byte) int32 {
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		g := s - 1
		if t.hash[g] == h && bytes.Equal(t.keyBytes(g), kb) {
			return g
		}
		i = (i + 1) & t.mask
	}
}
