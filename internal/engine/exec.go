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
	// Workers bounds the *physical* parallelism: the number of goroutines
	// executing partition morsels and DAG branches (default
	// runtime.NumCPU()). Any value yields byte-identical results, ids, and
	// captured provenance; 1 disables goroutine parallelism.
	Workers int
	// Sink receives provenance capture events; nil disables capture.
	Sink CaptureSink
	// IDGen supplies top-level identifiers. When nil a fresh generator
	// starting at 1 is used.
	IDGen *IDGen
	// KeepIntermediates retains every operator's output dataset in the
	// result (source outputs are always retained).
	KeepIntermediates bool
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
	OID     int
	Type    OpType
	Rows    int
	Elapsed time.Duration
}

// Result is the outcome of a pipeline execution.
type Result struct {
	// Output is the sink operator's dataset.
	Output *Dataset
	// Sources maps source operator ids to their (freshly annotated) output
	// datasets; backtracing resolves provenance identifiers against these.
	Sources map[int]*Dataset
	// Intermediates maps every operator id to its output when
	// Options.KeepIntermediates is set.
	Intermediates map[int]*Dataset
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
	gen := opts.IDGen
	if gen == nil {
		gen = NewIDGen(1)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	defer opts.Recorder.StartSpan(obs.SpanSchedule)()
	ex := &executor{ctx: ctx, opts: opts, gen: gen, inputs: inputs, outputs: make(map[int]*Dataset, len(p.Ops()))}
	res := &Result{Sources: make(map[int]*Dataset)}
	if opts.KeepIntermediates {
		res.Intermediates = make(map[int]*Dataset)
	}
	if workers <= 1 {
		if err := ex.runSequential(p, res); err != nil {
			return nil, err
		}
	} else {
		ex.pool = newWorkerPool(workers)
		defer ex.pool.close()
		ex.gate = newReserveGate(len(p.Ops()))
		if err := ex.runDAG(p, res); err != nil {
			return nil, err
		}
	}
	res.Output = ex.outputs[p.Sink().id]
	// Free non-sink intermediates unless requested (sources stay reachable
	// through res.Sources).
	return res, nil
}

type executor struct {
	// ctx carries cooperative cancellation; checked at morsel boundaries
	// (never nil — RunContext substitutes context.Background).
	ctx    context.Context
	opts   Options
	gen    *IDGen
	inputs map[string]*Dataset

	// pool executes partition morsels when physical parallelism is on; nil
	// means fully sequential execution. gate serialises id reservation in
	// plan order under the DAG scheduler (nil when sequential — the plan
	// loop already reserves in that order).
	pool *workerPool
	gate *reserveGate

	outMu   sync.RWMutex     // guards outputs under concurrent DAG branches
	outputs map[int]*Dataset // guarded by outMu; access via in/setOutput
	resMu   sync.Mutex       // guards Result bookkeeping in recordResult
}

// valueHash computes a shuffle key's hash. Indirect so tests can install a
// counting double and assert that grouping/joining reuse the hash cached
// during the shuffle instead of recomputing it per row.
var valueHash = nested.Value.Hash

func (e *executor) exec(o *Op) (*Dataset, error) {
	switch o.typ {
	case OpSource:
		return e.execSource(o)
	case OpFilter:
		return e.execFilter(o)
	case OpSelect:
		return e.execSelect(o)
	case OpMap:
		return e.execMap(o)
	case OpJoin:
		return e.execJoin(o)
	case OpUnion:
		return e.execUnion(o)
	case OpFlatten:
		return e.execFlatten(o)
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
	if e.pool == nil {
		return e.outputs[o.inputs[i].id]
	}
	e.outMu.RLock()
	defer e.outMu.RUnlock()
	return e.outputs[o.inputs[i].id]
}

func (e *executor) setOutput(oid int, d *Dataset) {
	if e.pool == nil {
		e.outputs[oid] = d
		return
	}
	e.outMu.Lock()
	e.outputs[oid] = d
	e.outMu.Unlock()
}

// reserve hands out n consecutive identifiers for operator oid. Under the
// DAG scheduler the reservation is serialised in plan order (see
// reserveGate), so ids are independent of the physical schedule.
func (e *executor) reserve(oid int, n int64) int64 {
	if e.gate == nil {
		return e.gen.Reserve(n)
	}
	return e.gate.reserve(e.gen, oid, n)
}

// pending is a produced row awaiting its identifier, carrying the
// association data the capture sink needs.
type pending struct {
	value nested.Value
	in1   int64
	in2   int64
	pos   int
	inIDs []int64
}

type assocKind uint8

const (
	assocNone assocKind = iota
	assocUnary
	assocBinary
	assocFlatten
	assocAgg
	// assocMultiUnary emits one unary association per id in inIDs (distinct:
	// every collapsed duplicate contributes to the output item).
	assocMultiUnary
)

// finalize assigns identifiers to the pending rows of every partition
// (deterministically: partition-major order) and emits the associations to
// the sink.
func (e *executor) finalize(oid int, parts [][]pending, kind assocKind) (*Dataset, error) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	base := e.reserve(oid, int64(total))
	offsets := make([]int64, len(parts))
	off := base
	for i, p := range parts {
		offsets[i] = off
		off += int64(len(p))
	}
	partitions := make([][]Row, len(parts))
	err := e.forEachPartition(len(parts), func(part int) error {
		rows := make([]Row, len(parts[part]))
		// One registry lookup per morsel: the handle appends lock-free.
		var ps PartitionSink
		if e.opts.Sink != nil && len(parts[part]) > 0 {
			ps = e.opts.Sink.Partition(oid, part)
		}
		id := offsets[part]
		for i, pr := range parts[part] {
			rows[i] = Row{ID: id, Value: pr.value}
			id++
		}
		if ps != nil {
			emitAssocs(ps, parts[part], kind, offsets[part])
		}
		partitions[part] = rows
		if rec := e.opts.Recorder; rec != nil {
			rec.Add(oid, part, obs.RowsOut, int64(len(parts[part])))
			if e.opts.Sink != nil {
				rec.Add(oid, part, obs.AssocRows, assocRowCount(parts[part], kind))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Partitions: partitions}, nil
}

// emitAssocs appends one partition morsel's associations to its sink
// handle. The fixed-width layouts go out as one contiguous id-range call per
// morsel (the output ids are base..base+len-1 by construction of finalize),
// gathering the input ids into pooled scratch that the sink copies out of;
// the variable-length layouts (aggregate's id lists, distinct's multi-unary
// fan-out) append row by row.
func emitAssocs(ps PartitionSink, prs []pending, kind assocKind, base int64) {
	switch kind {
	case assocUnary:
		ids := getIDScratch(len(prs))
		for i := range prs {
			ids[i] = prs[i].in1
		}
		ps.UnaryRange(ids, base)
		putIDScratch(ids)
	case assocBinary:
		l, r := getIDScratch(len(prs)), getIDScratch(len(prs))
		for i := range prs {
			l[i], r[i] = prs[i].in1, prs[i].in2
		}
		ps.BinaryRange(l, r, base)
		putIDScratch(l)
		putIDScratch(r)
	case assocFlatten:
		ids, pos := getIDScratch(len(prs)), getPosScratch(len(prs))
		for i := range prs {
			ids[i], pos[i] = prs[i].in1, prs[i].pos
		}
		ps.FlattenRange(ids, pos, base)
		putIDScratch(ids)
		putPosScratch(pos)
	case assocAgg:
		id := base
		for _, pr := range prs {
			// The pending slice was built for the sink (see aggBucket);
			// ownership transfers, no copy.
			ps.Agg(pr.inIDs, id)
			id++
		}
	case assocMultiUnary:
		id := base
		for _, pr := range prs {
			for _, in := range pr.inIDs {
				ps.Unary(in, id)
			}
			id++
		}
	}
}

// assocRowCount counts the association rows finalize emits for one
// partition: one per pending row, except the multi-unary layout (distinct),
// which emits one unary association per collapsed input id.
func assocRowCount(rows []pending, kind assocKind) int64 {
	if kind != assocMultiUnary {
		return int64(len(rows))
	}
	var n int64
	for _, pr := range rows {
		n += int64(len(pr.inIDs))
	}
	return n
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

func (e *executor) execSource(o *Op) (*Dataset, error) {
	src, ok := e.inputs[o.sourceName]
	if !ok {
		return nil, fmt.Errorf("no input dataset named %q", o.sourceName)
	}
	in := src.Repartition(e.opts.Partitions)
	e.startOperator(o, len(in.Partitions), nil, nil, nested.Null())
	// Reading annotates every top-level item with a fresh identifier.
	total := in.Len()
	base := e.reserve(o.id, int64(total))
	offsets := make([]int64, len(in.Partitions))
	off := base
	for i, p := range in.Partitions {
		offsets[i] = off
		off += int64(len(p))
	}
	partitions := make([][]Row, len(in.Partitions))
	err := e.forEachPartition(len(in.Partitions), func(part int) error {
		rows := make([]Row, len(in.Partitions[part]))
		var ps PartitionSink
		if e.opts.Sink != nil && len(in.Partitions[part]) > 0 {
			ps = e.opts.Sink.Partition(o.id, part)
		}
		id := offsets[part]
		for i, r := range in.Partitions[part] {
			rows[i] = Row{ID: id, Value: r.Value}
			id++
		}
		if ps != nil {
			orig := getIDScratch(len(in.Partitions[part]))
			for i, r := range in.Partitions[part] {
				orig[i] = r.ID
			}
			ps.SourceRows(offsets[part], orig)
			putIDScratch(orig)
		}
		partitions[part] = rows
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(in.Partitions[part]))
			rec.Add(o.id, part, obs.RowsIn, n)
			rec.Add(o.id, part, obs.RowsOut, n)
			if e.opts.Sink != nil {
				rec.Add(o.id, part, obs.AssocRows, n)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: o.sourceName, Partitions: partitions}, nil
}

func (e *executor) execFilter(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, len(in.Partitions), nil, nil, nested.Null())
	parts := make([][]pending, len(in.Partitions))
	err := e.forEachPartition(len(in.Partitions), func(part int) error {
		out, err := filterMorsel(o.pred, in.Partitions[part])
		if err != nil {
			return err
		}
		parts[part] = out
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(in.Partitions[part]))
			rec.Add(o.id, part, obs.RowsIn, n)
			rec.Add(o.id, part, obs.ExprEvals, n*int64(EvalOps(o.pred)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.finalize(o.id, parts, assocUnary)
}

func (e *executor) execSelect(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, len(in.Partitions), nil, nil, nested.Null())
	parts := make([][]pending, len(in.Partitions))
	ss := newSelectShape(o.fields)
	err := e.forEachPartition(len(in.Partitions), func(part int) error {
		out, err := selectMorsel(o.fields, ss, in.Partitions[part])
		if err != nil {
			return err
		}
		parts[part] = out
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(in.Partitions[part]))
			rec.Add(o.id, part, obs.RowsIn, n)
			rec.Add(o.id, part, obs.ExprEvals, n*int64(selectEvalOps(o.fields)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.finalize(o.id, parts, assocUnary)
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
// the number of values one output row holds over all of them.
type selectShape struct {
	shape *nested.Shape
	sub   []*selectShape // per field; nil unless the field is a struct
	slots int
}

func newSelectShape(fields []SelectField) *selectShape {
	ss := &selectShape{sub: make([]*selectShape, len(fields)), slots: len(fields)}
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
		if len(f.Col) == 0 && len(f.Struct) > 0 {
			ss.sub[i] = newSelectShape(f.Struct)
			ss.slots += ss.sub[i].slots
		}
	}
	ss.shape = nested.NewShape(names...)
	return ss
}

// selectMorsel projects one partition morsel; the output items share ss's
// shapes and one value arena.
func selectMorsel(fields []SelectField, ss *selectShape, rows []Row) ([]pending, error) {
	out := make([]pending, 0, len(rows))
	arena := make([]nested.Value, len(rows)*ss.slots) // retained by the output items
	for _, r := range rows {
		item, err := evalSelect(fields, ss, r.Value, &arena)
		if err != nil {
			return nil, err
		}
		out = append(out, pending{value: item, in1: r.ID})
	}
	return out, nil
}

// evalSelect builds the output item of row d in the first ss.slots values of
// arena, which it cuts off.
func evalSelect(fields []SelectField, ss *selectShape, d nested.Value, arena *[]nested.Value) (nested.Value, error) {
	out := (*arena)[:len(fields):len(fields)]
	*arena = (*arena)[len(fields):]
	for i, f := range fields {
		var err error
		switch {
		case len(f.Col) > 0:
			v, ok := f.Col.Eval(d)
			if !ok {
				v = nested.Null()
			}
			out[i] = v
		case len(f.Struct) > 0:
			out[i], err = evalSelect(f.Struct, ss.sub[i], d, arena)
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

func (e *executor) execMap(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, len(in.Partitions), nil, nil, nested.Null())
	parts := make([][]pending, len(in.Partitions))
	err := e.forEachPartition(len(in.Partitions), func(part int) error {
		out := make([]pending, 0, len(in.Partitions[part]))
		for _, r := range in.Partitions[part] {
			v, err := o.mapFn.Fn(r.Value)
			if err != nil {
				return fmt.Errorf("map %s: %w", o.mapFn.Name, err)
			}
			if v.Kind() != nested.KindItem {
				return fmt.Errorf("map %s returned %s, want a data item (τ(λ(i)) ⇒ ⟨...⟩)", o.mapFn.Name, v.Kind())
			}
			out = append(out, pending{value: v, in1: r.ID})
		}
		parts[part] = out
		if rec := e.opts.Recorder; rec != nil {
			rec.Add(o.id, part, obs.RowsIn, int64(len(in.Partitions[part])))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.finalize(o.id, parts, assocUnary)
}

func (e *executor) execFlatten(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, len(in.Partitions), nil, nil, nested.Null())
	parts := make([][]pending, len(in.Partitions))
	err := e.forEachPartition(len(in.Partitions), func(part int) error {
		out, err := flattenMorsel(o.flattenCol, o.flattenNew, in.Partitions[part])
		if err != nil {
			return err
		}
		parts[part] = out
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(in.Partitions[part]))
			rec.Add(o.id, part, obs.RowsIn, n)
			rec.Add(o.id, part, obs.ExprEvals, n) // one path eval per row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.finalize(o.id, parts, assocFlatten)
}

// flattenMorsel explodes the collection at col of every row of one morsel
// into one output row per element, the element under attribute name. Pass 1
// reads the collections and sizes the output exactly; pass 2 writes every
// item into one value arena, under its input row's shape with name set.
func flattenMorsel(col path.Path, name string, rows []Row) ([]pending, error) {
	cols := make([]nested.Value, len(rows))
	var memo shapeMemo
	nOut, slots := 0, 0
	for i, r := range rows {
		c, ok := col.Eval(r.Value)
		if !ok || c.IsNull() {
			continue // no collection to explode
		}
		if !c.Kind().IsCollection() {
			return nil, fmt.Errorf("flatten: %s is %s, want bag or set", col, c.Kind())
		}
		cols[i] = c
		nOut += c.Len()
		slots += c.Len() * memo.withAttr(r.Value.Shape(), name).shape.Len()
	}
	out := make([]pending, 0, nOut)
	arena := make([]nested.Value, slots) // retained by the output items
	for i, r := range rows {
		elems := cols[i].Elems()
		if len(elems) == 0 {
			continue
		}
		d := memo.withAttr(r.Value.Shape(), name)
		width := d.shape.Len()
		for idx, elem := range elems {
			vals := arena[:width:width]
			arena = arena[width:]
			copy(vals, r.Value.FieldValues())
			vals[d.at] = elem
			out = append(out, pending{value: d.shape.Item(vals...), in1: r.ID, pos: idx + 1})
		}
	}
	return out, nil
}

func (e *executor) execUnion(o *Op) (*Dataset, error) {
	left, right := e.in(o, 0), e.in(o, 1)
	lt, lok := schemaType(left)
	rt, rok := schemaType(right)
	if lok && rok && !nested.Compatible(lt, rt) {
		return nil, fmt.Errorf("union: incompatible input types %s and %s", lt, rt)
	}
	e.startOperator(o, len(left.Partitions)+len(right.Partitions), topLevelSchema(left), topLevelSchema(right), nested.Null())
	parts := make([][]pending, len(left.Partitions)+len(right.Partitions))
	nl := len(left.Partitions)
	err := e.forEachPartition(len(parts), func(part int) error {
		var src []Row
		isLeft := part < nl
		if isLeft {
			src = left.Partitions[part]
		} else {
			src = right.Partitions[part-nl]
		}
		out := make([]pending, 0, len(src))
		for _, r := range src {
			p := pending{value: r.Value, in1: -1, in2: -1}
			if isLeft {
				p.in1 = r.ID
			} else {
				p.in2 = r.ID
			}
			out = append(out, p)
		}
		parts[part] = out
		if rec := e.opts.Recorder; rec != nil {
			rec.Add(o.id, part, obs.RowsIn, int64(len(src)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.finalize(o.id, parts, assocBinary)
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

// shuffle hash-partitions the dataset's rows into buckets by shuffle key,
// in two phases: a map phase evaluating and hashing keys per input
// partition, and a merge phase concatenating the per-partition bucket runs
// in parallel, one exactly-sized output bucket per morsel. The merge keeps
// partition-major order inside every bucket, so the bucket contents are
// byte-identical to a sequential merge.
//
// Rows with null keys are dropped (they can never match an equi-join and
// SQL group-by treats them as their own group — callers that need null
// groups pass keepNull).
//
// oid feeds the recorder: rows in, keys hashed, and the static per-row
// expression cost of the key.
func (e *executor) shuffle(d *Dataset, oid int, sk shuffleKey, buckets int, keepNull bool) ([][]keyedRow, error) {
	keyOps := sk.evalOps()
	perPart := make([][][]keyedRow, len(d.Partitions))
	// Global sequence numbers: partition-major.
	starts := make([]int, len(d.Partitions))
	n := 0
	for i, p := range d.Partitions {
		starts[i] = n
		n += len(p)
	}
	err := e.forEachPartition(len(d.Partitions), func(part int) error {
		local := make([][]keyedRow, buckets)
		hashed := 0
		rows := d.Partitions[part]
		keys, err := sk.evalMorsel(rows)
		if err != nil {
			return err
		}
		for i, r := range rows {
			k := keys[i]
			if k.IsNull() && !keepNull {
				continue
			}
			h := valueHash(k)
			hashed++
			b := int(h % uint64(buckets))
			local[b] = append(local[b], keyedRow{row: r, key: k, hash: h, seq: starts[part] + i})
		}
		perPart[part] = local
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(rows))
			rec.Add(oid, part, obs.RowsIn, n)
			rec.Add(oid, part, obs.KeysHashed, int64(hashed))
			rec.Add(oid, part, obs.ExprEvals, n*int64(keyOps))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Merge phase: size every output bucket exactly from the per-partition
	// counts and concatenate the runs, one bucket per morsel.
	out := make([][]keyedRow, buckets)
	err = e.forEachPartition(buckets, func(b int) error {
		total := 0
		for _, local := range perPart {
			total += len(local[b])
		}
		if total == 0 {
			return nil
		}
		merged := make([]keyedRow, 0, total)
		for _, local := range perPart {
			merged = append(merged, local[b]...)
		}
		out[b] = merged
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// defaultBroadcastThreshold is the build-side row count up to which the
// join broadcasts the small side instead of shuffling both (Spark's
// broadcast hash join heuristic).
const defaultBroadcastThreshold = 2000

func (e *executor) execJoin(o *Op) (*Dataset, error) {
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
	lb, err := e.shuffle(left, o.id, exprShuffleKey(o.leftKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	rb, err := e.shuffle(right, o.id, exprShuffleKey(o.rightKey), e.opts.Partitions, false)
	if err != nil {
		return nil, err
	}
	rightSchema := nested.NewShape(topLevelSchema(right)...)
	parts := make([][]pending, e.opts.Partitions)
	err = e.forEachPartition(e.opts.Partitions, func(part int) error {
		out, err := joinBucket(lb[part], rb[part], o.leftOuter, rightSchema)
		if err != nil {
			return err
		}
		parts[part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	if o.leftOuter {
		// Left rows with null join keys were dropped by the shuffle but must
		// survive a left outer join.
		nullParts := make([][]pending, len(left.Partitions))
		err = e.forEachPartition(len(left.Partitions), func(part int) error {
			var out []pending
			var memo shapeMemo
			for _, r := range left.Partitions[part] {
				k, err := o.leftKey.Eval(r.Value)
				if err != nil {
					return err
				}
				if !k.IsNull() {
					continue
				}
				item, err := concatWithNulls(&memo, r.Value, rightSchema)
				if err != nil {
					return err
				}
				out = append(out, pending{value: item, in1: r.ID, in2: -1}) //pebblevet:ignore hotalloc -- null-key rows are rare; pre-sizing to the partition length would waste the common case
			}
			nullParts[part] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		parts = append(parts, nullParts...)
	}
	return e.finalize(o.id, parts, assocBinary)
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

func (e *executor) execAggregate(o *Op) (*Dataset, error) {
	in := e.in(o, 0)
	e.startOperator(o, e.opts.Partitions, nil, nil, sampleRow(in))
	buckets, err := e.shuffle(in, o.id, groupShuffleKey(o.groupBy), e.opts.Partitions, true)
	if err != nil {
		return nil, err
	}
	parts := make([][]pending, e.opts.Partitions)
	shape := groupShape(o.groupBy, o.aggs)
	err = e.forEachPartition(e.opts.Partitions, func(part int) error {
		out, err := aggBucket(o, shape, buckets[part], e.opts.Sink != nil)
		if err != nil {
			return err
		}
		parts[part] = out
		if rec := e.opts.Recorder; rec != nil {
			// Each aggregation spec with an input path evaluates it once per
			// grouped row.
			nIns := 0
			for _, spec := range o.aggs {
				if len(spec.In) > 0 {
					nIns++
				}
			}
			rec.Add(o.id, part, obs.ExprEvals, int64(len(buckets[part]))*int64(nIns))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.finalize(o.id, parts, assocAgg)
}

// Explain renders the execution statistics as a table: one line per
// operator with its output row count and wall time.
func (r *Result) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-10s %10s %14s\n", "op", "type", "rows", "elapsed")
	for _, s := range r.Stats {
		fmt.Fprintf(&sb, "%-4d %-10s %10d %14s\n", s.OID, s.Type, s.Rows, s.Elapsed)
	}
	fmt.Fprintf(&sb, "total: %d rows, %s\n", r.Output.Len(), r.TotalElapsed())
	return sb.String()
}
