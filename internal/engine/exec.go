package engine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pebble/internal/nested"
	"pebble/internal/obs"
	"pebble/internal/path"
)

// DefaultPartitions is the default logical-partition count. Logical
// partitioning is fixed and seed-deterministic — it decides identifier
// assignment, shuffle layout, and grouping order — while the number of
// goroutines actually executing those partitions is the independent,
// hardware-sized Options.Workers. A constant comfortably above typical core
// counts keeps morsels small enough for the worker pool to balance.
const DefaultPartitions = 16

// Options configures one pipeline execution.
type Options struct {
	// Partitions is the degree of *logical* data parallelism (default
	// DefaultPartitions). It determines partition layout, shuffle bucketing,
	// and identifier assignment, and therefore must be held fixed for
	// reproducible runs.
	Partitions int
	// Workers sizes the morsel pool: the goroutines executing the partition
	// morsels of a stage (default runtime.NumCPU()). At 1 there is no pool
	// and each stage runs its morsels on its own goroutine; independent
	// branches (both sides of a join or union) may still overlap. Any value
	// yields byte-identical results, ids, and captured provenance.
	Workers int
	// Sink receives provenance capture events; nil disables capture.
	Sink CaptureSink
	// BroadcastJoinThreshold is the build-side row count up to which joins
	// broadcast the smaller side instead of shuffling both. 0 uses the
	// default (2000); negative disables broadcast joins.
	BroadcastJoinThreshold int
	// Recorder, when non-nil, collects per-operator execution metrics and
	// phase spans (see internal/obs). nil disables observability; the
	// recording call sites are bulk (per partition morsel), so the disabled
	// path costs only predictable nil checks.
	Recorder *obs.Recorder
}

// OpStats reports per-operator execution metrics.
type OpStats struct {
	OID  int
	Type OpType
	Rows int
	// Elapsed is the operator's own time: the wait for its turn to reserve
	// identifiers is not in it, and inside a stage it is the operator's share
	// (by time summed over its morsels) of the stage's wall time.
	Elapsed time.Duration
	// Stage numbers the stage that ran the operator, from 1 in plan order.
	Stage int
}

// Result is the outcome of a pipeline execution.
type Result struct {
	// Output is the sink operator's dataset.
	Output *Dataset
	// Sources maps source operator ids to their (freshly annotated) output
	// datasets; backtracing resolves provenance identifiers against these.
	Sources map[int]*Dataset
	// Stats lists per-operator metrics in execution order.
	Stats []OpStats
}

// TotalElapsed sums the per-operator execution times.
func (r *Result) TotalElapsed() time.Duration {
	var total time.Duration
	for _, s := range r.Stats {
		total += s.Elapsed
	}
	return total
}

// Run executes the pipeline over the named input datasets and returns the
// sink's output. Each source operator annotates its input with fresh
// top-level identifiers (so a dataset read twice is annotated twice, as in
// the paper's scenario T3). Run never cancels; it is RunContext with a
// background context.
func Run(p *Pipeline, inputs map[string]*Dataset, opts Options) (*Result, error) {
	return RunContext(context.Background(), p, inputs, opts)
}

// RunContext is Run with cooperative cancellation: the scheduler checks
// ctx.Err() at every morsel boundary (before each logical partition of each
// operator) and before launching DAG operators, so a cancelled context stops
// scheduling new work promptly without interrupting a morsel mid-flight.
// The partial execution's datasets and identifiers are discarded; the error
// wraps ctx.Err(). A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, p *Pipeline, inputs map[string]*Dataset, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Partitions < 1 {
		opts.Partitions = DefaultPartitions
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	defer opts.Recorder.StartSpan(obs.SpanSchedule)()
	ex := &executor{ctx: ctx, opts: opts, gen: NewIDGen(1), inputs: inputs, outputs: make([]*Dataset, len(p.Ops())+1)}
	if workers > 1 {
		ex.pool = newWorkerPool(workers)
		defer ex.pool.close()
	}
	res := &Result{Sources: make(map[int]*Dataset), Stats: make([]OpStats, len(p.Ops()))}
	if err := ex.runDAG(planStages(p), res); err != nil {
		return nil, err
	}
	res.Output = ex.outputs[p.Sink().id]
	return res, nil
}

type executor struct {
	// ctx carries cooperative cancellation; checked at morsel boundaries
	// (never nil — RunContext substitutes context.Background).
	ctx    context.Context
	opts   Options
	gen    *IDGen
	inputs map[string]*Dataset

	// pool executes partition morsels when Workers > 1; nil runs a stage's
	// morsels inline on the stage's goroutine.
	pool *workerPool

	// outputs is every committed operator's dataset by operator id. Only
	// runDAG's goroutine writes it, each slot before the stages reading it
	// launch, so no lock guards it.
	outputs []*Dataset
}

// valueHash computes a shuffle key's hash. Indirect so tests can install a
// counting double and assert that grouping/joining reuse the hash cached
// during the shuffle instead of recomputing it per row.
var valueHash = nested.Value.Hash

// exec runs an operator that is a stage of its own — everything but the
// row-wise unary operators, whose bodies run inside stage.compute — and
// returns what it produced for every output partition.
func (e *executor) exec(o *Op) ([]morselOut, error) {
	switch o.typ {
	case OpSource:
		return e.execSource(o)
	case OpJoin:
		return e.execJoin(o)
	case OpUnion:
		return e.execUnion(o)
	case OpAggregate:
		return e.execAggregate(o)
	case OpDistinct:
		return e.execDistinct(o)
	case OpOrderBy:
		return e.execOrderBy(o)
	case OpLimit:
		return e.execLimit(o)
	}
	return nil, fmt.Errorf("unknown operator type %q", o.typ)
}

func (e *executor) in(o *Op, i int) *Dataset { return e.outputs[o.inputs[i].id] }

// morselOut is what an operator produced for one output partition before its
// turn to reserve identifiers. Rows are written once, here, by the operator's
// body; stage.commit fills their ID slot in place. The association columns
// exist only under capture (Options.Sink != nil) and go to the sink as they
// are.
type morselOut struct {
	rows []Row // nil for a member inside a stage: its rows lived in scratch
	n    int   // rows produced; len(rows) unless rows is nil
	Assocs
	busy time.Duration // row-wise members: time spent in the member's body
}

// newBinaryOut returns a morsel of n join rows, which setBinary fills in.
func newBinaryOut(n int, capture bool) morselOut {
	m := morselOut{rows: make([]Row, n), n: n}
	if capture {
		m.In, m.Right = make([]int64, n), make([]int64, n)
	}
	return m
}

// setBinary writes row i: the result item of the input rows l and r (-1:
// none).
func (m *morselOut) setBinary(i int, item nested.Value, l, r int64) {
	m.rows[i].Value = item
	if m.In != nil {
		m.In[i], m.Right[i] = l, r
	}
}

// commitMorsel gives one partition of operator o its identifiers, base
// onwards in row order, and hands its association columns to the sink. inBase
// turns the partition-local input indexes of a member inside a stage into
// identifiers; it is 0 where In holds identifiers already.
func (e *executor) commitMorsel(o *Op, part int, m *morselOut, base, inBase int64) {
	for i := range m.rows {
		m.rows[i].ID = base + int64(i)
	}
	if rec := e.opts.Recorder; rec != nil {
		rec.Add(o.id, part, obs.RowsOut, int64(m.n))
		if e.opts.Sink != nil {
			assocs := int64(m.n)
			if o.typ == OpDistinct {
				// One association per collapsed duplicate: every witness
				// contributes to the output item.
				assocs = 0
				for _, ids := range m.Lists {
					assocs += int64(len(ids))
				}
			}
			rec.Add(o.id, part, obs.AssocRows, assocs)
		}
	}
	if e.opts.Sink != nil && m.n > 0 {
		if inBase != 0 {
			for i := range m.In {
				m.In[i] += inBase
			}
		}
		e.opts.Sink.Morsel(o.id, part, base, m.n, m.Assocs)
		m.Assocs = Assocs{} // the sink has them now
	}
}

// startOperator announces o, with its output partition count, to the
// recorder and, when capturing, its static provenance to the sink, read
// from types (opInfo): a union's or join's row types, or an aggregation's
// types at its group keys.
func (e *executor) startOperator(o *Op, parts int, types ...nested.Type) {
	e.opts.Recorder.StartOp(o.id, string(o.typ), parts)
	if e.opts.Sink != nil {
		e.opts.Sink.StartOperator(opInfo(o, types), parts)
	}
}

// joinTypes returns the row types of a join's inputs when the capture or a
// left outer join (its all-null right item) reads them, and nil otherwise.
func (e *executor) joinTypes(o *Op, left, right *Dataset) []nested.Type {
	if e.opts.Sink == nil && !o.leftOuter {
		return nil
	}
	lt, _ := datasetType(left, nil)
	rt, _ := datasetType(right, nil)
	return []nested.Type{lt, rt}
}

// execSource deals the named input round-robin over the logical partitions,
// one copy per row; reading annotates every top-level item with a fresh
// identifier (stage.commit fills it in, offsets[part] + i).
func (e *executor) execSource(o *Op) ([]morselOut, error) {
	src, ok := e.inputs[o.sourceName]
	if !ok {
		return nil, fmt.Errorf("no input dataset named %q", o.sourceName)
	}
	parts := e.opts.Partitions
	e.startOperator(o, parts)
	total := src.Len()
	outs := make([]morselOut, parts)
	for part := range outs {
		m := &outs[part]
		m.n = (total + parts - 1 - part) / parts
		m.rows = make([]Row, m.n)
		if e.opts.Sink != nil {
			m.In = make([]int64, m.n)
		}
		e.opts.Recorder.Add(o.id, part, obs.RowsIn, int64(m.n))
	}
	i := 0
	for _, p := range src.Partitions {
		for ri := range p {
			m, at := &outs[i%parts], i/parts
			m.rows[at].Value = p[ri].Value
			if m.In != nil {
				m.In[at] = p[ri].ID
			}
			i++
		}
	}
	return outs, nil
}

// selectEvalOps is the static per-row expression cost of a select: one node
// per column read, the full node count of computed expressions, recursing
// into nested struct fields.
func selectEvalOps(fields []SelectField) int {
	n := 0
	for _, f := range fields {
		switch {
		case len(f.Col) > 0:
			n++
		case len(f.Struct) > 0:
			n += selectEvalOps(f.Struct)
		case f.Expr != nil:
			n += EvalOps(f.Expr)
		}
	}
	return n
}

// selectShape is what a select computes once from its fields: the shape of
// its output items, that of the item nested under every struct field, and
// where each item's values and each column leaf sit among the slots one
// output row holds over all of them.
type selectShape struct {
	shape  *nested.Shape
	sub    []*selectShape // per field; nil unless the field is a struct
	at     int            // the first slot of this item's values
	slots  int            // slots of this item and the items nested in it
	leaves []selectLeaf   // the outermost item only: every column leaf
}

// selectLeaf is a column of a select, at any depth, and its slot.
type selectLeaf struct {
	col path.Path
	at  int
}

func newSelectShape(fields []SelectField) *selectShape {
	ss := new(selectShape)
	ss.layout(fields, 0, &ss.leaves)
	return ss
}

// layout places the values of fields at slot at, then those of each struct
// field's item in field order, and lists the column leaves.
func (ss *selectShape) layout(fields []SelectField, at int, leaves *[]selectLeaf) {
	ss.sub, ss.at, ss.slots = make([]*selectShape, len(fields)), at, len(fields)
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
		switch {
		case len(f.Col) > 0:
			*leaves = append(*leaves, selectLeaf{col: f.Col, at: at + i})
		case len(f.Struct) > 0:
			ss.sub[i] = new(selectShape)
			ss.sub[i].layout(f.Struct, at+ss.slots, leaves)
			ss.slots += ss.sub[i].slots
		}
	}
	ss.shape = nested.NewShape(names...)
}

// item builds the output item of row d in row, the slots of one output row,
// where the columns are already gathered: it evaluates the computed fields
// and builds the items of the struct fields.
func (ss *selectShape) item(fields []SelectField, row []nested.Value, d nested.Value) (nested.Value, error) {
	out := row[ss.at : ss.at+len(fields) : ss.at+len(fields)]
	for i, f := range fields {
		var err error
		switch {
		case len(f.Col) > 0:
			continue // gathered
		case len(f.Struct) > 0:
			out[i], err = ss.sub[i].item(f.Struct, row, d)
		case f.Expr != nil:
			out[i], err = f.Expr.Eval(d)
		default:
			err = fmt.Errorf("select field %q has no column, struct, or expression", f.Name)
		}
		if err != nil {
			return nested.Value{}, err
		}
	}
	return ss.shape.Item(out...), nil
}

func (e *executor) execUnion(o *Op) ([]morselOut, error) {
	left, right := e.in(o, 0), e.in(o, 1)
	lt, lok := datasetType(left, nil)
	rt, rok := datasetType(right, nil)
	if lok && rok && !nested.Compatible(lt, rt) {
		return nil, fmt.Errorf("union: incompatible input types %s and %s", lt, rt)
	}
	nl := len(left.Partitions)
	outs := make([]morselOut, nl+len(right.Partitions))
	e.startOperator(o, len(outs), lt, rt)
	err := e.forEachPartition(len(outs), func(part int) error {
		var src []Row
		isLeft := part < nl
		if isLeft {
			src = left.Partitions[part]
		} else {
			src = right.Partitions[part-nl]
		}
		m := morselOut{rows: make([]Row, len(src)), n: len(src)}
		for i := range src {
			m.rows[i].Value = src[i].Value
		}
		if e.opts.Sink != nil {
			// The side a row did not come from is recorded as -1.
			ids, absent := make([]int64, m.n), make([]int64, m.n)
			for i := range src {
				ids[i], absent[i] = src[i].ID, -1
			}
			m.In, m.Right = ids, absent
			if !isLeft {
				m.In, m.Right = absent, ids
			}
		}
		outs[part] = m
		e.opts.Recorder.Add(o.id, part, obs.RowsIn, int64(m.n))
		return nil
	})
	return outs, err
}

// keyedRow is a row shuffled to a bucket with its evaluated key, the key's
// cached hash (computed once during the shuffle, reused by join probing and
// group clustering), and a global sequence number that keeps grouping
// deterministic.
type keyedRow struct {
	row  Row
	key  nested.Value
	hash uint64
	seq  int
}

// shuffleMap is what the shuffle's map phase keeps of one input partition
// for the merge: every row's key and the key's hash, and the indexes of the
// kept rows sorted by bucket, bucket b's at order[start[b]:start[b+1]].
type shuffleMap struct {
	keys   []nested.Value
	hashes []uint64
	order  []int32
	start  []int32
}

// shuffle hash-partitions the dataset's rows into buckets by shuffle key and
// writes each row to its bucket once. The map phase, per input partition,
// evaluates the keys (evalMorsel), hashes each kept key once, marks every row
// with its bucket and sorts the row indexes by bucket with a stable counting
// sort. The merge phase fills each output bucket, sized exactly from those
// counts, one bucket per morsel: partition by partition, in row order, so a
// bucket's rows are in sequence order whatever the worker count.
//
// Rows with null keys are dropped (they can never match an equi-join and
// SQL group-by treats them as their own group — callers that need null
// groups pass keepNull). Beside the buckets, shuffle returns every input
// partition's bucket marks, -1 where a row was dropped.
//
// oid feeds the recorder: rows in, keys hashed, and the static per-row
// expression cost of the key.
func (e *executor) shuffle(d *Dataset, oid int, sk shuffleKey, buckets int, keepNull bool) ([][]keyedRow, [][]int32, error) {
	keyOps := sk.evalOps()
	maps := make([]shuffleMap, len(d.Partitions))
	marks := make([][]int32, len(d.Partitions))
	// Global sequence numbers: partition-major.
	starts := make([]int, len(d.Partitions))
	n := 0
	for i, p := range d.Partitions {
		starts[i] = n
		n += len(p)
	}
	err := e.forEachPartition(len(d.Partitions), func(part int) error {
		rows := d.Partitions[part]
		keys, err := sk.evalMorsel(rows)
		if err != nil {
			return err
		}
		m := shuffleMap{keys: keys, hashes: make([]uint64, len(rows)), start: make([]int32, buckets+1)}
		mark := make([]int32, len(rows))
		hashed := 0
		for i := range keys {
			if keys[i].IsNull() && !keepNull {
				mark[i] = -1
				continue
			}
			h := valueHash(keys[i])
			b := int32(h % uint64(buckets))
			m.hashes[i], mark[i] = h, b
			m.start[b+1]++
			hashed++
		}
		for b := 1; b <= buckets; b++ {
			m.start[b] += m.start[b-1]
		}
		m.order = make([]int32, hashed)
		next := make([]int32, buckets)
		copy(next, m.start)
		for i, b := range mark {
			if b >= 0 {
				m.order[next[b]] = int32(i)
				next[b]++
			}
		}
		maps[part], marks[part] = m, mark
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(rows))
			rec.Add(oid, part, obs.RowsIn, n)
			rec.Add(oid, part, obs.KeysHashed, int64(hashed))
			rec.Add(oid, part, obs.ExprEvals, n*int64(keyOps))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([][]keyedRow, buckets)
	err = e.forEachPartition(buckets, func(b int) error {
		total := 0
		for p := range maps {
			total += int(maps[p].start[b+1] - maps[p].start[b])
		}
		if total == 0 {
			return nil
		}
		bucket := make([]keyedRow, total)
		at := 0
		for p := range maps {
			m, rows := &maps[p], d.Partitions[p]
			for _, i := range m.order[m.start[b]:m.start[b+1]] {
				kr := &bucket[at]
				kr.row, kr.key, kr.hash, kr.seq = rows[i], m.keys[i], m.hashes[i], starts[p]+int(i)
				at++
			}
		}
		out[b] = bucket
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, marks, nil
}

// defaultBroadcastThreshold is the build-side row count up to which the
// join broadcasts the small side instead of shuffling both (Spark's
// broadcast hash join heuristic).
const defaultBroadcastThreshold = 2000

func (e *executor) execJoin(o *Op) ([]morselOut, error) {
	left, right := e.in(o, 0), e.in(o, 1)
	threshold := e.opts.BroadcastJoinThreshold
	if threshold == 0 {
		threshold = defaultBroadcastThreshold
	}
	// Left outer joins always take the shuffle path (a broadcast probe
	// partition cannot tell which build rows no other partition matched).
	plan := e.planShuffle
	if !o.leftOuter && threshold > 0 && (left.Len() <= threshold || right.Len() <= threshold) {
		plan = e.planBroadcast
	}
	plans, err := plan(o, left, right)
	// Pass 2 of every partition pass 1 planned, writing its output in place:
	// one morsel list over every partition's chunks, partition-major, so the
	// first error by morsel index is the first partition's first, and an
	// error that ended pass 1's list comes after all of theirs.
	outs := make([]morselOut, len(plans))
	var tasks [][2]int32 // (partition, chunk)
	for part := range plans {
		outs[part] = plans[part].out
		for c := range plans[part].chunks() {
			tasks = append(tasks, [2]int32{int32(part), int32(c)})
		}
	}
	err = cmp.Or(e.forEachPartition(len(tasks), func(i int) error {
		return plans[tasks[i][0]].emit(int(tasks[i][1]))
	}), err)
	return outs, err
}

// planShuffle is pass 1 of a shuffle hash join: both inputs are shuffled on
// their keys and every bucket is planned, built on the left. A left outer
// join adds one partition per left input partition for its rows with null
// keys, which the shuffle dropped (marked -1) but which must survive.
func (e *executor) planShuffle(o *Op, left, right *Dataset) ([]bucketJoin, error) {
	nParts := e.opts.Partitions
	if o.leftOuter {
		nParts += len(left.Partitions)
	}
	types := e.joinTypes(o, left, right)
	e.startOperator(o, nParts, types...)
	lb, leftMarks, err := e.shuffle(left, o.id, exprShuffleKey(o.leftKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	rb, _, err := e.shuffle(right, o.id, exprShuffleKey(o.rightKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	var rightSchema *nested.Shape
	if o.leftOuter {
		rightSchema = nested.NewShape(fieldNames(types[1])...)
	}
	capture := e.opts.Sink != nil
	plans := make([]bucketJoin, nParts)
	err = e.forEachPartition(nParts, func(part int) error {
		if part < e.opts.Partitions {
			plans[part] = planJoinBucket(lb[part], rb[part], o.leftOuter, rightSchema, capture, joinChunkMatches)
			return nil
		}
		var nulls []keyedRow
		for i, b := range leftMarks[part-e.opts.Partitions] {
			if b < 0 {
				nulls = append(nulls, keyedRow{row: left.Partitions[part-e.opts.Partitions][i], key: nested.Null()})
			}
		}
		plans[part] = planJoinBucket(nulls, nil, true, rightSchema, capture, joinChunkMatches)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return plans, nil
}

func (e *executor) execAggregate(o *Op) ([]morselOut, error) {
	in := e.in(o, 0)
	var keyTypes []nested.Type // the capture's, for the leaves of its keys
	if e.opts.Sink != nil {
		for _, g := range o.groupBy {
			t, _ := datasetType(in, g.Path.SchemaLevel())
			keyTypes = append(keyTypes, t)
		}
	}
	e.startOperator(o, e.opts.Partitions, keyTypes...)
	buckets, _, err := e.shuffle(in, o.id, groupShuffleKey(o.groupBy), e.opts.Partitions, true)
	if err != nil {
		return nil, err
	}
	outs := make([]morselOut, e.opts.Partitions)
	shape := groupShape(o.groupBy, o.aggs)
	// Each aggregation spec with an input path evaluates it once per grouped
	// row.
	nIns := 0
	for _, spec := range o.aggs {
		if len(spec.In) > 0 {
			nIns++
		}
	}
	err = e.forEachPartition(e.opts.Partitions, func(part int) error {
		out, err := aggBucket(o, shape, buckets[part], e.opts.Sink != nil)
		outs[part] = out
		e.opts.Recorder.Add(o.id, part, obs.ExprEvals, int64(len(buckets[part]))*int64(nIns))
		return err
	})
	return outs, err
}

// Explain renders the execution statistics as a table: one line per
// operator with the stage that ran it, its output row count and its own time
// (operators sharing a stage number ran morsel-at-a-time as one unit).
func (r *Result) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-10s %5s %10s %14s\n", "op", "type", "stage", "rows", "elapsed")
	for _, s := range r.Stats {
		fmt.Fprintf(&sb, "%-4d %-10s %5d %10d %14s\n", s.OID, s.Type, s.Stage, s.Rows, s.Elapsed)
	}
	fmt.Fprintf(&sb, "total: %d rows, %s\n", r.Output.Len(), r.TotalElapsed())
	return sb.String()
}
