package engine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// This file implements the physical execution layer that decouples logical
// partitioning from hardware parallelism:
//
//   - workerPool: a bounded pool of Options.Workers goroutines (none at
//     Workers 1) executing logical partitions as morsels, so Partitions can
//     rise (default 16) without unbounded goroutine fan-out;
//   - runDAG: a topological-wavefront scheduler that computes independent
//     DAG branches (both join/union inputs, disconnected subplans)
//     concurrently, one goroutine per stage (stage.go), while it alone
//     reserves identifiers, in plan order, and commits, so the identifiers
//     an operator assigns are byte-identical no matter how many workers race
//     through the DAG.
//
// Determinism argument: every operator's *content* (row values, row order,
// per-partition layout) is a pure function of its inputs, and every
// operator's *identifiers* depend only on (a) the id-space position reserved
// for it and (b) the deterministic partition-major assignment of
// stage.reserve. runDAG pins (a) to plan order — the order in which the
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

// forEachPartition runs f for every morsel index — a logical partition, or
// a chunk of one join output partition — on the worker pool (inline when there
// is none) and returns the first error by index. A morsel may chunk its rows
// internally (the filter kernel's column batches, the aggregate's
// accumulation chunks) and allocates its kernel scratch per call; only a
// stage's inner members draw theirs from the per-worker stage scratch pool.
// The morsel is the unit of scheduling; a logical partition is the unit of
// capture-sink hand-offs.
//
// This is the engine's cancellation checkpoint: a morsel only starts while
// the executor's context is live, so a cancelled job stops scheduling new
// morsels here (in-flight morsels run to completion). Morsels are small by
// construction: a logical partition of a dataset holds its share of the
// rows, and a join's pass-2 morsel — of a shuffle bucket or a broadcast
// probe partition — stitches fewer than joinChunkMatches matches plus one
// probe row's chain (and, in a left outer bucket's last chunk, its
// unmatched build rows), however hot its key; an aggregate bucket, one
// accumulator per group, is the morsel a key's skew still enlarges. A panic
// in f is the morsel's error (Recover).
func (e *executor) forEachPartition(n int, f func(part int) error) error {
	g := func(part int) (err error) {
		defer Recover(&err)
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

// clock reads the wall clock for the per-operator statistics, the one use of
// time the engine has; it never enters results or identifiers.
func clock() time.Time {
	return time.Now()
}

// opError names the operator a failure belongs to.
func opError(o *Op, err error) error { return fmt.Errorf("engine: operator %s: %w", o, err) }

// PanicError is a panic recovered on a goroutine of a run, which then fails
// with it like with any operator error; Stack is where the panic was raised.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// Recover, deferred, turns a panic of the goroutine that deferred it into a
// *PanicError in *err. Every goroutine a run starts defers it; so does a
// caller that must outlive a failing run.
func Recover(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// runDAG executes the stage DAG in topological wavefronts: a stage is
// launched as soon as the stages producing its inputs committed, so
// independent branches (the two sides of a join or union, disconnected
// subplans) compute concurrently. It is the one scheduler, at every Workers
// value. A stage's goroutine only computes, spreading its partitions over the
// worker pool if there is one; this goroutine owns the identifiers, the
// outputs and the commits. As stages report, it moves a pointer over the
// operator ids in plan order: it reserves for every operator whose stage has
// computed, skips those of a failed stage, and commits and publishes a stage
// once its last member has reserved.
func (e *executor) runDAG(stages []*stage, res *Result) error {
	member := make([]*stage, len(res.Stats)+1) // by operator id
	for _, st := range stages {
		for _, o := range st.ops {
			member[o.id] = st
		}
	}
	done := make(chan *stage, len(stages)) // a stage computes once: no send blocks
	launch := func(st *stage) {
		go func() {
			defer func() { done <- st }()
			defer Recover(&st.err)
			if st.err = e.ctx.Err(); st.err == nil {
				st.compute(e)
			}
		}()
	}
	running := 0
	waiting := make(map[*stage]int, len(stages))        // uncommitted inputs
	consumers := make(map[*stage][]*stage, len(stages)) // stages consuming it
	for _, st := range stages {
		for _, in := range st.ops[0].inputs {
			consumers[member[in.id]] = append(consumers[member[in.id]], st)
		}
		if waiting[st] = len(st.ops[0].inputs); waiting[st] == 0 {
			launch(st)
			running++
		}
	}

	var firstErr error
	firstErrOID := 0
	fail := func(st *stage) {
		// Report the failure of the earliest operator in plan order, the one
		// the reference executor surfaces.
		if o := st.ops[st.failed]; firstErr == nil || o.id < firstErrOID {
			firstErr, firstErrOID = opError(o, st.err), o.id
		}
	}
	computed := make(map[*stage]bool, len(stages))
	for next := 1; running > 0; {
		st := <-done
		running--
		computed[st] = true
		if st.err != nil {
			fail(st)
		}
		for ; next < len(member) && computed[member[next]]; next++ {
			st := member[next]
			if st.err != nil {
				continue
			}
			if st.reserve(e); next < st.ops[len(st.ops)-1].id {
				continue
			}
			if st.commit(e); st.err != nil {
				fail(st)
				continue
			}
			e.publish(st, res)
			for _, c := range consumers[st] {
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
	}
	return firstErr
}

// publish hands a committed stage's output to its consumers and files every
// member under the result bookkeeping. Stats are indexed by plan position (an
// operator's id is its position plus one), so their order is deterministic no
// matter which schedule produced them.
func (e *executor) publish(st *stage, res *Result) {
	last := st.ops[len(st.ops)-1]
	out := e.outputs[last.id]
	for k, o := range st.ops {
		s := st.stats(k)
		e.opts.Recorder.AddOpTime(o.id, s.Elapsed)
		res.Stats[o.id-1] = s
	}
	if last.typ == OpSource {
		res.Sources[last.id] = out
	}
}
