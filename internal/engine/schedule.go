package engine

import (
	"fmt"
	"sync"
	"time"
)

// This file implements the physical execution layer that decouples logical
// partitioning from hardware parallelism:
//
//   - workerPool: a bounded pool of Options.Workers goroutines (none at
//     Workers 1) executing logical partitions as morsels, so Partitions can
//     rise (default 16) without unbounded goroutine fan-out;
//   - reserveGate: serialises identifier reservation in plan order, so the
//     identifiers an operator assigns are byte-identical no matter how many
//     workers race through the DAG;
//   - runDAG: a topological-wavefront scheduler that executes independent
//     DAG branches (both join/union inputs, disconnected subplans)
//     concurrently with per-stage completion tracking (stage.go).
//
// Determinism argument: every operator's *content* (row values, row order,
// per-partition layout) is a pure function of its inputs, and every
// operator's *identifiers* depend only on (a) the id-space position reserved
// for it and (b) the deterministic partition-major assignment of
// stage.reserve. The gate pins (a) to plan order — the order in which the
// operator-at-a-time reference executor (runReference, reference_test.go)
// reserves — so results, ids, grouping order, and captured provenance are
// identical for every Workers setting.

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
// the worker pool (inline when there is none) and returns the first error. A
// morsel may chunk its rows internally (the filter kernel's column batches,
// the aggregate's accumulation chunks) and allocates its kernel scratch per
// call; only a stage's inner members draw theirs from the per-worker stage
// scratch pool. The morsel is still the unit of scheduling and of
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
// Stages compute their rows fully in parallel and only queue here for the
// brief Reserve calls of their members, so the gate costs no meaningful
// parallelism while making the assigned id ranges independent of scheduling
// order.
type reserveGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    int  // the oid whose turn it is; guarded by mu
	aborted bool // guarded by mu
}

func newReserveGate() *reserveGate {
	g := &reserveGate{next: 1}
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
	if g.next == oid {
		g.next++
		g.cond.Broadcast()
	}
	return gen.Reserve(n)
}

// abort unblocks every waiter; used once execution is known to fail, when id
// determinism no longer matters.
func (g *reserveGate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// clock reads the wall clock for the per-operator statistics, the one use of
// time the engine has.
func clock() time.Time {
	//pebblevet:ignore determinism -- per-op wall-clock stats; never enters results or identifiers
	return time.Now()
}

// opError names the operator a failure belongs to.
func opError(o *Op, err error) error { return fmt.Errorf("engine: operator %s: %w", o, err) }

// runDAG executes the stage DAG in topological wavefronts: a stage is
// launched as soon as the stages producing its inputs completed, so
// independent branches (the two sides of a join or union, disconnected
// subplans) run concurrently. It is the one scheduler, at every Workers
// value. Partition-level work inside each stage is further spread over the
// worker pool, if there is one; the stage's goroutine computes, takes its
// members' turns at the reserve gate in plan order, and commits.
func (e *executor) runDAG(stages []*stage, res *Result) error {
	producer := make(map[*Op]*stage, len(stages)) // by the stage's last member
	for _, st := range stages {
		producer[st.ops[len(st.ops)-1]] = st
	}
	waiting := make(map[*stage]int, len(stages))        // unfinished input edges
	consumers := make(map[*stage][]*stage, len(stages)) // stages consuming it
	for _, st := range stages {
		for _, in := range st.ops[0].inputs {
			waiting[st]++
			consumers[producer[in]] = append(consumers[producer[in]], st)
		}
	}

	type stageDone struct {
		st  *stage
		out *Dataset
		err error // of operator st.ops[st.failed]
	}
	done := make(chan stageDone)
	launch := func(st *stage) {
		go func() {
			if err := e.ctx.Err(); err != nil {
				done <- stageDone{st: st, err: err}
				return
			}
			if st.compute(e); st.err != nil {
				done <- stageDone{st: st, err: st.err}
				return
			}
			for range st.ops {
				st.reserve(e)
			}
			out, err := st.commit(e)
			done <- stageDone{st, out, err}
		}()
	}

	running := 0
	for _, st := range stages {
		if waiting[st] == 0 {
			launch(st)
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
			// one the reference executor surfaces.
			if failed := d.st.ops[d.st.failed]; firstErr == nil || failed.id < firstErrOID {
				firstErr, firstErrOID = opError(failed, d.err), failed.id
			}
			// Unblock id reservations: this stage may have failed before its
			// members' turns, and its consumers will never run.
			e.gate.abort()
			continue
		}
		e.publish(d.st, d.out, res)
		for _, c := range consumers[d.st] {
			waiting[c]--
			// After a failure only the stages that start before the failing
			// operator in plan order still run — the reference executor
			// reaches them, and one of them may fail too.
			if waiting[c] == 0 && (firstErr == nil || c.ops[0].id < firstErrOID) {
				launch(c)
				running++
			}
		}
	}
	return firstErr
}

// publish hands a committed stage's output to its consumers and files every
// member under the result bookkeeping; only the scheduling goroutine calls
// it. Stats are indexed by plan position (an operator's id is its position
// plus one), so their order is deterministic no matter which schedule
// produced them.
func (e *executor) publish(st *stage, out *Dataset, res *Result) {
	last := st.ops[len(st.ops)-1]
	e.setOutput(last.id, out)
	for k, o := range st.ops {
		s := st.stats(k)
		e.opts.Recorder.AddOpTime(o.id, s.Elapsed)
		res.Stats[o.id-1] = s
	}
	if last.typ == OpSource {
		res.Sources[last.id] = out
	}
}
