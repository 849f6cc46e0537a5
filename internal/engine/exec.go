package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
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
	ex := &executor{ctx: ctx, opts: opts, gen: NewIDGen(1), gate: newReserveGate(), inputs: inputs, outputs: make(map[int]*Dataset, len(p.Ops()))}
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
	// morsels inline on the stage's goroutine. gate serialises id reservation
	// in plan order, whatever order the stages finish in.
	pool *workerPool
	gate *reserveGate

	outMu   sync.RWMutex     // guards outputs under concurrent DAG branches
	outputs map[int]*Dataset // guarded by outMu; access via in/setOutput
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

func (e *executor) in(o *Op, i int) *Dataset {
	e.outMu.RLock()
	defer e.outMu.RUnlock()
	return e.outputs[o.inputs[i].id]
}

func (e *executor) setOutput(oid int, d *Dataset) {
	e.outMu.Lock()
	e.outputs[oid] = d
	e.outMu.Unlock()
}

// reserve hands out n consecutive identifiers for operator oid. The
// reservation is serialised in plan order (see reserveGate), so ids are
// independent of the physical schedule.
func (e *executor) reserve(oid int, n int64) int64 {
	return e.gate.reserve(e.gen, oid, n)
}

// morselOut is what an operator produced for one output partition before its
// turn at the reserve gate. Rows are written once, here, by the operator's
// body; stage.commit fills their ID slot in place. The association ids are
// plain columns parallel to the rows and exist only under capture
// (Options.Sink != nil); which of them an operator fills follows its type.
type morselOut struct {
	rows  []Row         // nil for a member inside a stage: its rows lived in scratch
	n     int           // rows produced; len(rows) unless rows is nil
	in1   []int64       // the input id (source: the id in the raw dataset; binary: the left id)
	in2   []int64       // binary: the right id; -1 marks an absent side
	pos   []int         // flatten: 1-based position of the exploded element
	lists [][]int64     // aggregate, distinct: the contributing input ids of every row
	busy  time.Duration // row-wise members: time spent in the member's body
}

// newBinaryOut returns an empty morsel with room for n rows of a join.
func newBinaryOut(n int, capture bool) morselOut {
	m := morselOut{rows: make([]Row, 0, n)}
	if capture {
		m.in1, m.in2 = make([]int64, 0, n), make([]int64, 0, n)
	}
	return m
}

// addBinary appends the result item of the input rows l and r (-1: none).
func (m *morselOut) addBinary(item nested.Value, l, r int64) {
	m.rows = append(m.rows, Row{Value: item})
	m.n++
	if m.in1 != nil {
		m.in1, m.in2 = append(m.in1, l), append(m.in2, r)
	}
}

// commitMorsel gives one partition of operator o its identifiers, base
// onwards in row order, and hands its associations to the sink: the
// fixed-width layouts as one id-range call over the morsel's columns (the
// sink copies out of them), the variable-length ones row by row. inBase
// turns the partition-local input indexes of a member inside a stage into
// identifiers; it is 0 where in1 holds identifiers already.
func (e *executor) commitMorsel(o *Op, part int, m *morselOut, base, inBase int64) {
	for i := range m.rows {
		m.rows[i].ID = base + int64(i)
	}
	assocs := int64(m.n)
	if e.opts.Sink != nil && m.n > 0 {
		// One registry lookup per morsel: the handle appends lock-free.
		ps := e.opts.Sink.Partition(o.id, part)
		if inBase != 0 {
			for i := range m.in1 {
				m.in1[i] += inBase
			}
		}
		switch o.typ {
		case OpSource:
			ps.SourceRows(base, m.in1)
		case OpJoin, OpUnion:
			ps.BinaryRange(m.in1, m.in2, base)
		case OpFlatten:
			ps.FlattenRange(m.in1, m.pos, base)
		case OpAggregate:
			id := base
			for _, ids := range m.lists {
				// The list was built for the sink (see aggBucket); ownership
				// transfers, no copy.
				ps.Agg(ids, id)
				id++
			}
		case OpDistinct:
			// One unary association per collapsed duplicate: every witness
			// contributes to the output item.
			assocs = 0
			id := base
			for _, ids := range m.lists {
				for _, in := range ids {
					ps.Unary(in, id)
				}
				assocs += int64(len(ids))
				id++
			}
		default:
			ps.UnaryRange(m.in1, base)
		}
		m.in1, m.in2, m.pos, m.lists = nil, nil, nil, nil // the sink has them now
	}
	if rec := e.opts.Recorder; rec != nil {
		rec.Add(o.id, part, obs.RowsOut, int64(m.n))
		if e.opts.Sink != nil {
			rec.Add(o.id, part, obs.AssocRows, assocs)
		}
	}
}

func (e *executor) startOperator(o *Op, parts int, leftSchema, rightSchema []string, sample nested.Value) {
	e.opts.Recorder.StartOp(o.id, string(o.typ), parts)
	if e.opts.Sink != nil {
		e.opts.Sink.StartOperator(opInfo(o, leftSchema, rightSchema, sample), parts)
	}
}

// sampleRow returns the first row value of a dataset, or null when empty.
func sampleRow(d *Dataset) nested.Value {
	for _, p := range d.Partitions {
		if len(p) > 0 {
			return p[0].Value
		}
	}
	return nested.Null()
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
	e.startOperator(o, parts, nil, nil, nested.Null())
	total := src.Len()
	outs := make([]morselOut, parts)
	for part := range outs {
		m := &outs[part]
		m.n = (total + parts - 1 - part) / parts
		m.rows = make([]Row, m.n)
		if e.opts.Sink != nil {
			m.in1 = make([]int64, m.n)
		}
		e.opts.Recorder.Add(o.id, part, obs.RowsIn, int64(m.n))
	}
	i := 0
	for _, p := range src.Partitions {
		for ri := range p {
			m, at := &outs[i%parts], i/parts
			m.rows[at].Value = p[ri].Value
			if m.in1 != nil {
				m.in1[at] = p[ri].ID
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
	lt, lok := schemaType(left)
	rt, rok := schemaType(right)
	if lok && rok && !nested.Compatible(lt, rt) {
		return nil, fmt.Errorf("union: incompatible input types %s and %s", lt, rt)
	}
	nl := len(left.Partitions)
	outs := make([]morselOut, nl+len(right.Partitions))
	e.startOperator(o, len(outs), topLevelSchema(left), topLevelSchema(right), nested.Null())
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
			m.in1, m.in2 = ids, absent
			if !isLeft {
				m.in1, m.in2 = absent, ids
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
	// Left outer joins always take the shuffle path (the broadcast probe
	// cannot track unmatched build rows without cross-partition state).
	if !o.leftOuter && threshold > 0 && (left.Len() <= threshold || right.Len() <= threshold) {
		return e.execBroadcastJoin(o, left, right)
	}
	nParts := e.opts.Partitions
	if o.leftOuter {
		// Null-key left rows are emitted in extra per-left-partition chunks.
		nParts += len(left.Partitions)
	}
	e.startOperator(o, nParts, topLevelSchema(left), topLevelSchema(right), nested.Null())
	lb, leftMarks, err := e.shuffle(left, o.id, exprShuffleKey(o.leftKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	rb, _, err := e.shuffle(right, o.id, exprShuffleKey(o.rightKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	rightSchema := nested.NewShape(topLevelSchema(right)...)
	capture := e.opts.Sink != nil
	outs := make([]morselOut, nParts)
	err = e.forEachPartition(e.opts.Partitions, func(part int) error {
		out, err := joinBucket(lb[part], rb[part], o.leftOuter, rightSchema, capture)
		outs[part] = out
		return err
	})
	if err != nil || !o.leftOuter {
		return outs, err
	}
	// Left rows with null join keys were dropped by the shuffle, which
	// marked them -1, but must survive a left outer join.
	err = e.forEachPartition(len(left.Partitions), func(part int) error {
		out := newBinaryOut(0, capture) // null-key rows are rare
		var memo shapeMemo
		for i, b := range leftMarks[part] {
			if b >= 0 {
				continue
			}
			r := &left.Partitions[part][i]
			item, err := concatWithNulls(&memo, r.Value, rightSchema)
			if err != nil {
				return err
			}
			out.addBinary(item, r.ID, -1)
		}
		outs[e.opts.Partitions+part] = out
		return nil
	})
	return outs, err
}

// concatWithNulls extends a left item with null values for the right side's
// top-level attributes (the unmatched row of a left outer join).
func concatWithNulls(memo *shapeMemo, l nested.Value, rightSchema *nested.Shape) (nested.Value, error) {
	if l.Kind() != nested.KindItem {
		return nested.Value{}, fmt.Errorf("join: inputs must be data items, got %s", l.Kind())
	}
	d := memo.joined(l.Shape(), rightSchema)
	if d.err != nil {
		return nested.Value{}, d.err
	}
	vals := make([]nested.Value, d.shape.Len())
	for i := copy(vals, l.FieldValues()); i < len(vals); i++ {
		vals[i] = nested.Null()
	}
	return d.shape.Item(vals...), nil
}

func (e *executor) execAggregate(o *Op) ([]morselOut, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions, nil, nil, sampleRow(in))
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
