package engine

import (
	"bytes"
	"sync"

	"pebble/internal/nested"
)

// keyTable is the flat open-addressing hash table shared by the join and
// aggregate kernels (DESIGN.md §13). Rows are clustered by key in two steps:
// the key's hash (cached by the shuffle, so no rehash per row) selects a slot
// run, and the key's normalized byte encoding (nested.Value.AppendNorm)
// decides equality. Compared with a map[uint64][]keyedRow and a structural
// comparison per candidate (the reference in reference_test.go), the table
// keeps all per-group state in parallel int32 arrays and all key bytes in a
// single arena, so building and probing allocate nothing in steady state
// (the table and its arrays are pooled).
//
// Semantics contract: byte equality is the match discipline of both kernels.
// It is finer than compareWidened(a,b)==0 and nested.Equal in three places:
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
	fields []int32        // join build: Σ NumFields() over the group's rows
	keys   []nested.Value // aggregate: first-seen key value per group

	next  []int32 // per inserted row: next row index of the same group, -1 ends
	arena []byte  // normalized key bytes of all groups
}

// reset prepares the table for up to n insertions: power-of-two slot count at
// load factor ≤ 1/2, so the probe loops never need a mid-build rehash.
func (t *keyTable) reset(n int) {
	capSlots := 16
	for capSlots < 2*n {
		capSlots *= 2
	}
	if cap(t.slots) < capSlots {
		t.slots = make([]int32, capSlots)
	} else {
		t.slots = t.slots[:capSlots]
		clear(t.slots)
	}
	t.mask = uint64(capSlots - 1)
	t.hash = t.hash[:0]
	t.keyOff, t.keyLen = t.keyOff[:0], t.keyLen[:0]
	t.head, t.tail, t.count, t.fields = t.head[:0], t.tail[:0], t.count[:0], t.fields[:0]
	t.keys = t.keys[:0]
	if cap(t.next) < n {
		t.next = make([]int32, 0, n)
	} else {
		t.next = t.next[:0]
	}
	t.arena = t.arena[:0]
}

// groups returns the number of distinct keys inserted.
func (t *keyTable) groups() int { return len(t.hash) }

// keyBytes returns the stored normalized encoding of group g.
func (t *keyTable) keyBytes(g int32) []byte {
	return t.arena[t.keyOff[g] : t.keyOff[g]+t.keyLen[g]]
}

// insert adds row index ri (rows must be inserted with consecutive indexes
// starting at 0) under key k with cached hash h, and returns the row's dense
// group index. nFields accumulates into the group's field sum (join output
// sizing); keepKey retains the first-seen key value per group (aggregate
// output keys).
func (t *keyTable) insert(h uint64, k nested.Value, ri int32, nFields int32, keepKey bool) int32 {
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
			if keepKey {
				t.keys = append(t.keys, k)
			}
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

// keyTablePool recycles tables with their slot, group, chain, and arena
// storage across morsels and workers. Pooled slices keep stale contents
// (including key Values in keys) until overwritten, bounded by the largest
// morsel and released when the GC clears the pool; reset trims lengths, not
// memory. Outputs never alias the table: group walks read ids and boxed
// values out of it, so putting a table back cannot mutate operator results
// (pinned by TestJoinAggScratchPoolsDoNotAliasResults).
var keyTablePool = sync.Pool{
	New: func() any { return new(keyTable) },
}

func getKeyTable(n int) *keyTable {
	t := keyTablePool.Get().(*keyTable)
	t.reset(n)
	return t
}

func putKeyTable(t *keyTable) { keyTablePool.Put(t) }
