package engine

import (
	"fmt"

	"pebble/internal/nested"
	"pebble/internal/obs"
)

// Hash-join build/probe (DESIGN.md §13). Every output partition of a join,
// shuffled or broadcast, is a bucketJoin. Its build side fills a keyTable —
// flat open addressing on (cached shuffle hash, normalized key bytes) — and
// probing runs in two passes: pass 1 resolves each probe row's group once
// and sizes the output exactly (match count and total stitched fields, from
// the per-group row and field sums maintained at build time); pass 2 emits
// matches in probe-major, chain-insertion order, stitching left/right
// attribute values into one flat value arena instead of one allocation per
// match. The arena is allocated once per pass-2 morsel and retained by the
// output items (Shape.Item keeps the slice); each match takes a
// capacity-limited subslice.
//
// Pass 1 cuts a partition's probe rows into chunks of about
// joinChunkMatches matches, and every chunk is a pass-2 morsel of its own: a
// hot key's partition runs on every worker rather than on one. The chunks
// write disjoint, precomputed ranges of the partition's one output, so the
// rows, their order and the ids are those of one morsel; where the cuts fall
// depends on the partition alone, never on Options.Workers.
//
// Error contract: the join's shape rules — both inputs data items, attribute
// names disjoint — are looked at per match in emission order (the second
// answered from the chunk's shapeMemo, once per pair of shapes), so the
// first error of a partition — that of its first failing chunk — is the one
// a row-at-a-time nested-loop join over the same rows reports (pinned by
// reference_test.go).

// stitch writes the attribute values of the join result r = ⟨i, j⟩ — those
// of both items concatenated — to the front of arena and returns the result
// item. The caller sized the arena from the field counts of the matching
// rows. It runs once per match: the items come by pointer, which keeps the
// call off the copy budget.
func stitch(memo *shapeMemo, arena []nested.Value, l, r *nested.Value) (nested.Value, error) {
	if l.Kind() != nested.KindItem || r.Kind() != nested.KindItem {
		return nested.Value{}, fmt.Errorf("join: inputs must be data items, got %s and %s", l.Kind(), r.Kind())
	}
	d := memo.joined(l.Shape(), r.Shape())
	if d.err != nil {
		return nested.Value{}, d.err
	}
	n := copy(arena, l.FieldValues())
	n += copy(arena[n:], r.FieldValues())
	return d.shape.Item(arena[:n:n]...), nil
}

// joinChunkMatches is the match count at which pass 1 cuts a partition's
// probe rows into the next chunk. A probe row is never split, so a chunk
// holds at least this many matches unless it is the partition's last, and at
// most this many plus one probe row's chain.
const joinChunkMatches = 1 << 14

// bucketJoin is one join output partition after pass 1: the build rows
// chained in a key table, the probe rows and each one's group, the chunks
// pass 2 runs and the partition's output, sized for all of them. Rows arrive
// in sequence order (the shuffle merge is partition-major, a broadcast probe
// partition is an input partition), so outputs are ordered by (probe seq,
// build seq) and chain order equals build sequence order by construction.
// A shuffle bucket builds on the left and probes with the right; a broadcast
// probe partition probes the table shared by every partition, built over
// the smaller input, which may be the right one; a left partition's null-key
// rows are built and never probed.
type bucketJoin struct {
	build, probe []keyedRow
	t            *keyTable
	probeLeft    bool         // the probe rows are the left input's: the broadcast built the right one
	groupOf      []int32      // each probe row's group, or -1
	unmatched    []int32      // left outer: the build rows of groups no probe row resolved to
	nullRight    nested.Value // left outer: the right item of an unmatched row, every attribute null
	memo         shapeMemo    // what every chunk's memo starts from
	cut          []joinChunk  // the chunks before the last: nil unless pass 1 cut
	last         joinChunk
	out          morselOut
}

// joinChunk is a run of a partition's probe rows that pass 2 stitches as one
// morsel.
type joinChunk struct {
	lo, hi int // probe rows [lo, hi)
	at     int // the output row of its first match
	fields int // the values its matches stitch: its arena's length
}

// planJoinBucket is pass 1 of a shuffle bucket, or of one left partition's
// null-key rows (lrows, with no rrows): it builds the table over lrows and
// plans the probe with rrows. A left outer join lists, in build order, the
// build rows of the groups no probe row resolved to, which get the
// attributes of rightSchema, null.
func planJoinBucket(lrows, rrows []keyedRow, leftOuter bool, rightSchema *nested.Shape, capture bool, maxMatches int) bucketJoin {
	b := bucketJoin{build: lrows, probe: rrows, t: newKeyTable(len(lrows))}
	for i, kr := range lrows {
		b.t.insert(kr.hash, kr.key, int32(i), int32(kr.row.Value.NumFields()))
	}
	if leftOuter {
		nulls := make([]nested.Value, rightSchema.Len())
		for i := range nulls {
			nulls[i] = nested.Null()
		}
		b.nullRight = rightSchema.Item(nulls...)
	}
	b.plan(leftOuter, capture, maxMatches)
	return b
}

// planBroadcastProbe is pass 1 of one broadcast probe partition: its rows
// with non-null keys are keyed once and plan the probe of t, the table
// broadcastBuild filled over buildRows.
func planBroadcastProbe(t *keyTable, buildRows []keyedRow, rows []Row, keys []nested.Value, buildLeft, capture bool, maxMatches int) bucketJoin {
	probe := keyRows(make([]keyedRow, 0, len(rows)), rows, keys)
	b := bucketJoin{build: buildRows, probe: probe, t: t, probeLeft: !buildLeft}
	b.plan(false, capture, maxMatches)
	return b
}

// plan resolves the probe rows, cuts them into chunks of maxMatches matches
// and sizes the output. A left outer join marks the build rows of the groups
// a probe row resolved to and lists the others; the last chunk emits them
// after its matches, so their errors come after those of every match, as in
// the nested loop.
func (b *bucketJoin) plan(leftOuter, capture bool, maxMatches int) {
	var matched []bool // left outer: per build row, whether a probe row resolved to its group
	if leftOuter {
		matched = make([]bool, len(b.build))
	}
	b.groupOf = make([]int32, len(b.probe))
	var keyBuf []byte
	lo, at, n, fields := 0, 0, 0, 0 // the open chunk: first probe row, first output row, matches, fields
	for i, kr := range b.probe {
		keyBuf = kr.key.AppendNorm(keyBuf[:0])
		g := b.t.lookup(kr.hash, keyBuf)
		b.groupOf[i] = g
		if g < 0 {
			continue
		}
		for bi := b.t.head[g]; matched != nil && bi >= 0 && !matched[bi]; bi = b.t.next[bi] {
			matched[bi] = true
		}
		n += int(b.t.count[g])
		fields += int(b.t.fields[g]) + int(b.t.count[g])*kr.row.Value.NumFields()
		if n >= maxMatches {
			b.cut = append(b.cut, joinChunk{lo: lo, hi: i + 1, at: at, fields: fields})
			lo, at, n, fields = i+1, at+n, 0, 0
		}
	}
	b.last = joinChunk{lo: lo, hi: len(b.probe), at: at, fields: fields}
	if n == 0 && len(b.cut) > 0 {
		// No match after the last cut: its chunk takes the remaining rows.
		b.cut, b.last = b.cut[:len(b.cut)-1], b.cut[len(b.cut)-1]
		b.last.hi = len(b.probe)
	}
	if len(b.cut) > 0 {
		// Every chunk's memo starts from the shape of one match — the probe
		// row that closed the first chunk — so that the partition's rows
		// share it, as one morsel's would.
		i := b.cut[0].hi - 1
		l, r := b.pair(b.t.head[b.groupOf[i]], i)
		if l.Value.Kind() == nested.KindItem && r.Value.Kind() == nested.KindItem {
			b.memo.joined(l.Value.Shape(), r.Value.Shape())
		}
	}
	for bi, ok := range matched {
		if !ok {
			b.unmatched = append(b.unmatched, int32(bi))
			b.last.fields += b.build[bi].row.Value.NumFields() + b.nullRight.NumFields()
		}
	}
	b.out = newBinaryOut(at+n+len(b.unmatched), capture)
}

// pair returns the left and right input rows of the match of build row bi
// and probe row i.
func (b *bucketJoin) pair(bi int32, i int) (l, r *Row) {
	if b.probeLeft {
		return &b.probe[i].row, &b.build[bi].row
	}
	return &b.build[bi].row, &b.probe[i].row
}

// chunks returns the number of chunks pass 1 cut the probe rows into.
func (b *bucketJoin) chunks() int { return len(b.cut) + 1 }

// emit is pass 2 of chunk c: it stitches the chunk's matches into an arena
// of its own, with a copy of the partition's shapeMemo, and writes them to
// the chunk's range of the partition's output; the last chunk then writes
// the unmatched build rows of a left outer join. Beside their disjoint
// output ranges, chunks only read what pass 1 built, so a partition's chunks
// run concurrently, and so do broadcast partitions sharing one table.
func (b *bucketJoin) emit(c int) error {
	ch := b.last
	if c < len(b.cut) {
		ch = b.cut[c]
	}
	arena := make([]nested.Value, ch.fields) // retained by the output items
	memo := b.memo
	at := ch.at
	for i := ch.lo; i < ch.hi; i++ {
		g := b.groupOf[i]
		if g < 0 {
			continue
		}
		for bi := b.t.head[g]; bi >= 0; bi = b.t.next[bi] {
			l, r := b.pair(bi, i)
			item, err := stitch(&memo, arena, &l.Value, &r.Value)
			if err != nil {
				return err
			}
			arena = arena[item.NumFields():]
			b.out.setBinary(at, item, l.ID, r.ID)
			at++
		}
	}
	if c < len(b.cut) {
		return nil
	}
	// Unmatched left rows survive with null right attributes.
	for _, bi := range b.unmatched {
		l := &b.build[bi].row
		if l.Value.Kind() != nested.KindItem {
			return fmt.Errorf("join: inputs must be data items, got %s", l.Value.Kind())
		}
		item, err := stitch(&memo, arena, &l.Value, &b.nullRight)
		if err != nil {
			return err
		}
		arena = arena[item.NumFields():]
		b.out.setBinary(at, item, l.ID, -1)
		at++
	}
	return nil
}

// ---- broadcast join ----

// planBroadcast is pass 1 of a broadcast hash join: it builds the smaller
// side once and probes the larger side within its existing partitions,
// avoiding the shuffle of the probe side entirely — the broadcast hash join
// of distributed engines. One shared keyTable is built sequentially (the
// build side is small by construction) and probed by every probe partition:
// the table is read-only after the build. Results are identical to the
// shuffle join up to row order. The first probe partition that fails (its
// key does not evaluate) ends the list it returns, with its error.
func (e *executor) planBroadcast(o *Op, left, right *Dataset) ([]bucketJoin, error) {
	buildLeft := left.Len() <= right.Len()
	buildDS, probeDS := left, right
	buildKey, probeKey := o.leftKey, o.rightKey
	if !buildLeft {
		buildDS, probeDS = right, left
		buildKey, probeKey = o.rightKey, o.leftKey
	}
	e.startOperator(o, len(probeDS.Partitions), e.joinTypes(o, left, right)...)
	t := newKeyTable(buildDS.Len())
	bk, pk := exprShuffleKey(buildKey), exprShuffleKey(probeKey)
	buildRows, err := broadcastBuild(t, bk, buildDS)
	if err != nil {
		return nil, err
	}
	if rec := e.opts.Recorder; rec != nil {
		n := int64(buildDS.Len())
		rec.Add(o.id, 0, obs.RowsIn, n)
		rec.Add(o.id, 0, obs.KeysHashed, int64(len(buildRows)))
		rec.Add(o.id, 0, obs.ExprEvals, n*int64(bk.evalOps()))
	}
	plans := make([]bucketJoin, len(probeDS.Partitions))
	err = e.forEachPartition(len(plans), func(part int) error {
		rows := probeDS.Partitions[part]
		keys, err := pk.evalMorsel(rows)
		if err != nil {
			return err
		}
		plans[part] = planBroadcastProbe(t, buildRows, rows, keys, buildLeft, e.opts.Sink != nil, joinChunkMatches)
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(rows))
			rec.Add(o.id, part, obs.RowsIn, n)
			rec.Add(o.id, part, obs.KeysHashed, int64(len(plans[part].probe)))
			rec.Add(o.id, part, obs.ExprEvals, n*int64(pk.evalOps()))
		}
		return nil
	})
	// forEachPartition reports the error of the first partition it left
	// unplanned.
	for part := range plans {
		if plans[part].t == nil {
			return plans[:part], err
		}
	}
	return plans, err
}

// broadcastBuild keys and hashes the build side into t, sequentially (the
// build side is small by construction), and returns the keyed rows in table
// index order; rows with null keys are dropped.
func broadcastBuild(t *keyTable, bk shuffleKey, buildDS *Dataset) ([]keyedRow, error) {
	buildRows := make([]keyedRow, 0, buildDS.Len())
	for _, p := range buildDS.Partitions {
		keys, err := bk.evalMorsel(p)
		if err != nil {
			return nil, err
		}
		buildRows = keyRows(buildRows, p, keys)
	}
	for i, kr := range buildRows {
		t.insert(kr.hash, kr.key, int32(i), int32(kr.row.Value.NumFields()))
	}
	return buildRows, nil
}

// keyRows appends to dst the rows whose key is not null, each with its key
// and the key's hash.
func keyRows(dst []keyedRow, rows []Row, keys []nested.Value) []keyedRow {
	for i, k := range keys {
		if !k.IsNull() {
			dst = append(dst, keyedRow{row: rows[i], key: k, hash: valueHash(k)})
		}
	}
	return dst
}
