// Fixture for the poolescape analyzer: pooled values escaping their
// borrowing function, use after Put, and double Put. The types it uses live
// in b.go — the loader compiles the whole fixture directory as one package,
// so the cross-file references exercise the multi-file path.
package poolescape

import "sync"

var bufPool = sync.Pool{New: func() interface{} { return new(buffer) }}

// getBatch and putBatch are in the analyzer's pool-boundary sets: their bodies are
// exempt, and their callers are the audited borrowers.
func getBatch() *buffer { return bufPool.Get().(*buffer) }

func putBatch(b *buffer) { bufPool.Put(b) }

var global *buffer

func escapeViaReturn() *buffer {
	b := getBatch()
	return b // want `pool-obtained value escapes via return`
}

func escapeViaSyncPoolDirect() *buffer {
	v := bufPool.Get().(*buffer)
	return v // want `pool-obtained value escapes via return`
}

func escapeViaClosure() func() int {
	b := getBatch()
	f := func() int { return len(b.data) } // want `closure captures pool-obtained value b`
	putBatch(b)
	return f
}

func escapeViaField(h *holder) {
	b := getBatch()
	h.buf = b // want `pool-obtained value stored into a field of a non-pooled object`
	putBatch(b)
}

func escapeViaGlobal() {
	b := getBatch()
	global = b // want `pool-obtained value stored into package-level variable global`
}

func escapeViaContainer(m map[int]*buffer) {
	b := getBatch()
	m[0] = b // want `pool-obtained value stored into a non-pooled container`
}

func escapeViaSend(ch chan *buffer) {
	b := getBatch()
	ch <- b // want `pool-obtained value escapes via channel send`
}

func useAfterPut() int {
	b := getBatch()
	putBatch(b)
	return len(b.data) // want `use of pooled value b after Put`
}

func doublePut() {
	b := getBatch()
	putBatch(b)
	putBatch(b) // want `double Put of pooled value b`
}

// cleanBorrow is the contract followed: read, then release, nothing escapes.
func cleanBorrow() int {
	b := getBatch()
	n := len(b.data)
	putBatch(b)
	return n
}

// cleanRedefine: a fresh (non-pooled) definition kills both the taint and the
// released state, so the return is fine.
func cleanRedefine() *buffer {
	b := getBatch()
	putBatch(b)
	b = new(buffer)
	return b
}

// cleanNested: storing one pooled value into another pooled object's field is
// allowed — the container's Put governs both lifetimes.
func cleanNested() {
	b := getBatch()
	c := getBatch()
	b.next = c
	putBatch(c)
	putBatch(b)
}

// cleanConditionalPut: on the branch that releases early it immediately
// re-borrows, so no path reads a released value.
func cleanConditionalPut(use bool) {
	b := getBatch()
	if use {
		putBatch(b)
		b = getBatch()
	}
	putBatch(b)
}
