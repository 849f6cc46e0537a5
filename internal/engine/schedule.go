package engine

import (
	"fmt"
	"sync"
	"time"
)

// This file implements the physical execution layer that decouples logical
// partitioning from hardware parallelism:
//
//   - workerPool: a bounded pool of Options.Workers goroutines executing
//     logical partitions as morsels, so Partitions can rise (default 16)
//     without unbounded goroutine fan-out;
//   - reserveGate: serialises identifier reservation in plan order, so the
//     identifiers an operator assigns are byte-identical no matter how many
//     workers race through the DAG;
//   - runDAG: a topological-wavefront scheduler that executes independent
//     DAG branches (both join/union inputs, disconnected subplans)
//     concurrently with per-operator completion tracking.
//
// Determinism argument: every operator's *content* (row values, row order,
// per-partition layout) is a pure function of its inputs, and every
// operator's *identifiers* depend only on (a) the id-space position reserved
// for it and (b) the deterministic partition-major assignment inside
// finalize. The gate pins (a) to plan order — exactly the order the
// sequential executor reserves in — so results, ids, grouping order, and
// captured provenance are identical for every Workers setting.

// workerPool executes morsels (one logical partition of one operator) on a
// fixed set of goroutines. Submission blocks while all workers are busy,
// bounding both goroutine count and queue growth; morsels never spawn
// sub-morsels, so the pool cannot deadlock.
type workerPool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan func())}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

func (p *workerPool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// forEach runs f for every morsel index and returns the first error (by
// index, for determinism).
func (p *workerPool) forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.tasks <- func() {
			defer wg.Done()
			errs[i] = f(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachPartition runs f for every logical partition index as morsels on
// the worker pool (inline when sequential) and returns the first error. A
// morsel may chunk its rows internally (the filter kernel's column batches,
// the aggregate's accumulation chunks) and draws scratch from pools shared
// across all workers; the morsel is still the unit of scheduling and of
// capture-sink handles.
//
// This is the engine's cancellation checkpoint: a morsel only starts while
// the executor's context is live, so a cancelled job stops scheduling new
// morsels here (in-flight morsels run to completion — they are small by
// construction).
func (e *executor) forEachPartition(n int, f func(part int) error) error {
	g := func(part int) error {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		return f(part)
	}
	if e.pool == nil || n <= 1 {
		for i := 0; i < n; i++ {
			if err := g(i); err != nil {
				return err
			}
		}
		return nil
	}
	return e.pool.forEach(n, g)
}

// reserveGate orders IDGen reservations by operator id (= plan order).
// Operators compute their pending rows fully in parallel and only queue here
// for the brief Reserve call, so the gate costs no meaningful parallelism
// while making the assigned id ranges independent of scheduling order.
type reserveGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	done    []bool // 1-based: done[oid] = this operator has taken its turn; guarded by mu
	next    int    // smallest oid that has not taken its turn; guarded by mu
	aborted bool   // guarded by mu
}

func newReserveGate(nops int) *reserveGate {
	g := &reserveGate{done: make([]bool, nops+1), next: 1}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// reserve blocks until every operator with a smaller id has reserved (or the
// gate is aborted), then reserves n identifiers for oid.
func (g *reserveGate) reserve(gen *IDGen, oid int, n int64) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.aborted && g.next != oid {
		g.cond.Wait()
	}
	base := gen.Reserve(n)
	g.releaseLocked(oid)
	return base
}

// release marks an operator's turn as taken without reserving; the scheduler
// calls it for operators that fail before reaching their Reserve, so
// later operators do not wait forever. Idempotent.
func (g *reserveGate) release(oid int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releaseLocked(oid)
}

func (g *reserveGate) releaseLocked(oid int) {
	if oid < 1 || oid >= len(g.done) || g.done[oid] {
		return
	}
	g.done[oid] = true
	for g.next < len(g.done) && g.done[g.next] {
		g.next++
	}
	g.cond.Broadcast()
}

// abort unblocks every waiter; used once execution is known to fail, when id
// determinism no longer matters.
func (g *reserveGate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// runSequential executes the operators one at a time in plan order — the
// Workers == 1 path, and the canonical order every parallel schedule must
// reproduce byte for byte.
func (e *executor) runSequential(p *Pipeline, res *Result) error {
	for i, o := range p.Ops() {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("engine: operator %s: %w", o, err)
		}
		//pebblevet:ignore determinism -- per-op wall-clock stats; never enters results or identifiers
		start := time.Now()
		out, err := e.exec(o)
		if err != nil {
			return fmt.Errorf("engine: operator %s: %w", o, err)
		}
		e.setOutput(o.id, out)
		e.recordResult(res, i, o, out, time.Since(start))
	}
	return nil
}

// runDAG executes the operator DAG in topological wavefronts: an operator is
// launched as soon as all its inputs completed, so independent branches (the
// two sides of a join or union, disconnected subplans) run concurrently.
// Partition-level work inside each operator is further spread over the
// worker pool.
func (e *executor) runDAG(p *Pipeline, res *Result) error {
	ops := p.Ops()
	planIdx := make(map[int]int, len(ops))
	waiting := make(map[int]int, len(ops))     // oid -> unfinished input edges
	consumers := make(map[int][]*Op, len(ops)) // oid -> ops consuming it
	for i, o := range ops {
		planIdx[o.id] = i
		waiting[o.id] = len(o.inputs)
		for _, in := range o.inputs {
			consumers[in.id] = append(consumers[in.id], o)
		}
	}
	res.Stats = make([]OpStats, len(ops))

	type opDone struct {
		o       *Op
		out     *Dataset
		elapsed time.Duration
		err     error
	}
	done := make(chan opDone)
	launch := func(o *Op) {
		go func() {
			//pebblevet:ignore determinism -- per-op wall-clock stats; never enters results or identifiers
			start := time.Now()
			var out *Dataset
			err := e.ctx.Err()
			if err == nil {
				out, err = o.execBy(e)
			}
			done <- opDone{o: o, out: out, elapsed: time.Since(start), err: err}
		}()
	}

	running := 0
	for _, o := range ops {
		if waiting[o.id] == 0 {
			launch(o)
			running++
		}
	}
	var firstErr error
	firstErrOID := 0
	for running > 0 {
		d := <-done
		running--
		if d.err != nil {
			// Report the failure of the earliest operator in plan order, the
			// one the sequential executor would have surfaced.
			if firstErr == nil || d.o.id < firstErrOID {
				firstErr = fmt.Errorf("engine: operator %s: %w", d.o, d.err)
				firstErrOID = d.o.id
			}
			// Unblock id reservations: this operator may have failed before
			// its turn, and its consumers will never run.
			e.gate.abort()
			continue
		}
		e.setOutput(d.o.id, d.out)
		e.recordResult(res, planIdx[d.o.id], d.o, d.out, d.elapsed)
		if firstErr != nil {
			continue // stop scheduling new work, drain in-flight operators
		}
		for _, c := range consumers[d.o.id] {
			waiting[c.id]--
			if waiting[c.id] == 0 {
				launch(c)
				running++
			}
		}
	}
	return firstErr
}

// execBy runs the operator through the executor (hook point for the
// scheduler goroutine).
func (o *Op) execBy(e *executor) (*Dataset, error) { return e.exec(o) }

// recordResult files an operator's output under the result bookkeeping.
// Stats are indexed by plan position, so their order is deterministic no
// matter which schedule produced them.
func (e *executor) recordResult(res *Result, planPos int, o *Op, out *Dataset, elapsed time.Duration) {
	e.opts.Recorder.AddOpTime(o.id, elapsed)
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if res.Stats == nil || len(res.Stats) <= planPos {
		// Sequential path appends in plan order.
		res.Stats = append(res.Stats, OpStats{OID: o.id, Type: o.typ, Rows: out.Len(), Elapsed: elapsed})
	} else {
		res.Stats[planPos] = OpStats{OID: o.id, Type: o.typ, Rows: out.Len(), Elapsed: elapsed}
	}
	if o.typ == OpSource {
		res.Sources[o.id] = out
	}
	if res.Intermediates != nil {
		res.Intermediates[o.id] = out
	}
}
