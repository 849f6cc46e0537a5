// Fixture for the join-probe / aggregate kernel shapes (DESIGN.md §13): the
// kernel pool helpers are recognized sources and puts, `defer put(x)`
// releases at function exit rather than at its syntactic position,
// borrow-methods propagate taint from pooled receivers, and closures passed
// to listed synchronous drivers (sort.Slice, forEachPartition) do not
// count as escapes.
package poolescape

import (
	"sort"
	"sync"
)

// keyTable mirrors the engine's pooled flat hash table; keyBytes (a
// listed borrow method) returns a slice aliasing its pooled arena.
type keyTable struct {
	arena []byte
	head  []int32
}

func (t *keyTable) keyBytes(g int32) []byte { return t.arena[g : g+1] }

var keyTablePool = sync.Pool{New: func() interface{} { return new(keyTable) }}

func getKeyTable(n int) *keyTable { return keyTablePool.Get().(*keyTable) }

func putKeyTable(t *keyTable) { keyTablePool.Put(t) }

type executor struct{}

// forEachPartition is a listed synchronous driver: the closure returns
// before forEachPartition does.
func (e *executor) forEachPartition(n int, f func(int) error) error {
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// spawn is NOT a listed synchronous driver.
func (e *executor) spawn(f func(int) error) {
	go func() { _ = f(0) }()
}

// cleanDeferredPut: the kernels' standard release idiom — every read between
// the defer and the return happens before the Put runs.
func cleanDeferredPut() int {
	t := getKeyTable(8)
	defer putKeyTable(t)
	n := 0
	for _, h := range t.head {
		n += int(h)
	}
	return n
}

// cleanSortClosure: sort.Slice runs its comparator synchronously, so the
// captured pooled table cannot outlive the deferred Put.
func cleanSortClosure(order []int) {
	t := getKeyTable(8)
	defer putKeyTable(t)
	sort.Slice(order, func(i, j int) bool { return t.head[order[i]] < t.head[order[j]] })
}

// cleanPartitionClosure: the engine's forEachPartition barrier waits for
// every worker closure before returning (the broadcast probe shape).
func cleanPartitionClosure(e *executor) error {
	t := getKeyTable(8)
	defer putKeyTable(t)
	return e.forEachPartition(4, func(part int) error {
		_ = t.head
		return nil
	})
}

// escapeViaAsyncClosure: a goroutine-spawning driver is not synchronous; the
// capture outlives the Put.
func escapeViaAsyncClosure(e *executor) {
	t := getKeyTable(8)
	defer putKeyTable(t)
	e.spawn(func(int) error {
		_ = t.head // want `closure captures pool-obtained value t`
		return nil
	})
}

// escapeViaKeyTableReturn: the kernel helpers are listed sources, so a
// table leaking via return is caught like any pooled value.
func escapeViaKeyTableReturn() *keyTable {
	t := getKeyTable(8)
	return t // want `pool-obtained value escapes via return`
}

// escapeViaBorrowMethod: keyBytes aliases the pooled arena, so its result is
// as borrowed as the table itself.
func escapeViaBorrowMethod() []byte {
	t := getKeyTable(8)
	defer putKeyTable(t)
	return t.keyBytes(0) // want `pool-obtained value escapes via return`
}

// useAfterExplicitPut: an explicit (non-deferred) put still releases at its
// own position.
func useAfterExplicitPut() int {
	t := getKeyTable(8)
	putKeyTable(t)
	return len(t.head) // want `use of pooled value t after Put`
}

// stageScratch mirrors the engine's per-worker stage scratch, a listed
// source: what a stage's last member writes leaves the stage, so it must not
// be the scratch's.
type stageScratch struct{ cols []int64 }

func getStageScratch(members int) *stageScratch { return new(stageScratch) }

func putStageScratch(s *stageScratch) {}

func escapeViaStageOutput(in []int64) []int64 {
	s := getStageScratch(1)
	defer putStageScratch(s)
	s.cols = append(s.cols[:0], in...)
	return s.cols[:len(in)] // want `pool-obtained value escapes via return`
}
