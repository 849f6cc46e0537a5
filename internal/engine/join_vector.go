package engine

import (
	"fmt"

	"pebble/internal/nested"
	"pebble/internal/obs"
)

// Hash-join build/probe (DESIGN.md §13). The build side fills a keyTable —
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
// A shuffle bucket's probe rows are cut in pass 1 into chunks of about
// joinChunkMatches matches, and every chunk is a pass-2 morsel of its own: a
// hot key's bucket runs on every worker rather than on one. The chunks write
// disjoint, precomputed ranges of the bucket's one output, so the rows, their
// order and the ids are those of one morsel; where the cuts fall depends on
// the bucket alone, never on Options.Workers.
//
// Error contract: the join's shape rules — both inputs data items, attribute
// names disjoint — are looked at per match in emission order (the second
// answered from the chunk's shapeMemo, once per pair of shapes), so the
// first error of a bucket — that of its first failing chunk — is the one a
// row-at-a-time nested-loop join over the same bucket reports (pinned by
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

// joinChunkMatches is the match count at which pass 1 cuts a shuffle
// bucket's probe rows into the next chunk. A probe row is never split, so a
// chunk holds at least this many matches unless it is the bucket's last, and
// at most this many plus one probe row's chain.
const joinChunkMatches = 1 << 14

// bucketJoin is one shuffle bucket after pass 1, building on the left and
// probing with the right: the build table, every probe row's group, the
// chunks pass 2 runs and the bucket's output, sized for all of them. Bucket
// contents arrive in sequence order (the shuffle merge is partition-major),
// so outputs are ordered by (right seq, left seq) and chain order equals
// left sequence order by construction.
type bucketJoin struct {
	lrows, rrows []keyedRow
	t            keyTable
	groupOf      []int32 // each probe row's group, or -1
	unmatched    []int32 // left outer: the build rows of groups no probe row resolved to
	rightSchema  *nested.Shape
	memo         shapeMemo   // what every chunk's memo starts from
	cut          []joinChunk // the chunks before the last: nil unless pass 1 cut
	last         joinChunk
	out          morselOut
}

// joinChunk is a run of a bucket's probe rows that pass 2 stitches as one
// morsel.
type joinChunk struct {
	lo, hi int // probe rows [lo, hi)
	at     int // the output row of its first match
	fields int // the values its matches stitch: its arena's length
}

// planJoinBucket is pass 1 of one shuffle bucket: it builds the table,
// resolves the probe rows, cuts them into chunks of maxMatches matches and
// sizes the output. A left outer join marks the groups that a probe row
// resolved to and lists the build rows of the others, in build order; the
// bucket's last chunk emits them after its matches, so their errors come
// after those of every match, as in the nested loop.
func planJoinBucket(lrows, rrows []keyedRow, leftOuter bool, rightSchema *nested.Shape, capture bool, maxMatches int) bucketJoin {
	b := bucketJoin{lrows: lrows, rrows: rrows, t: *newKeyTable(len(lrows)), groupOf: make([]int32, len(rrows)), rightSchema: rightSchema}
	var leftGroup []int32 // left outer: each build row's group
	var matched []bool    // left outer: per group, whether a probe row resolved to it
	if leftOuter {
		leftGroup, matched = make([]int32, len(lrows)), make([]bool, len(lrows))
	}
	for i, kr := range lrows {
		g := b.t.insert(kr.hash, kr.key, int32(i), int32(kr.row.Value.NumFields()))
		if leftGroup != nil {
			leftGroup[i] = g
		}
	}
	var keyBuf []byte
	lo, at, n, fields := 0, 0, 0, 0 // the open chunk: first probe row, first output row, matches, fields
	for i, kr := range rrows {
		keyBuf = kr.key.AppendNorm(keyBuf[:0])
		g := b.t.lookup(kr.hash, keyBuf)
		b.groupOf[i] = g
		if g < 0 {
			continue
		}
		if matched != nil {
			matched[g] = true
		}
		n += int(b.t.count[g])
		fields += int(b.t.fields[g]) + int(b.t.count[g])*kr.row.Value.NumFields()
		if n >= maxMatches {
			b.cut = append(b.cut, joinChunk{lo: lo, hi: i + 1, at: at, fields: fields})
			lo, at, n, fields = i+1, at+n, 0, 0
		}
	}
	b.last = joinChunk{lo: lo, hi: len(rrows), at: at, fields: fields}
	if n == 0 && len(b.cut) > 0 {
		// No match after the last cut: its chunk takes the remaining rows.
		b.cut, b.last = b.cut[:len(b.cut)-1], b.cut[len(b.cut)-1]
		b.last.hi = len(rrows)
	}
	if len(b.cut) > 0 {
		// Every chunk's memo starts from the shape of one match — the probe
		// row that closed the first chunk — so that the bucket's rows share
		// it, as one morsel's would.
		i := b.cut[0].hi - 1
		l, r := b.lrows[b.t.head[b.groupOf[i]]].row.Value, rrows[i].row.Value
		if l.Kind() == nested.KindItem && r.Kind() == nested.KindItem {
			b.memo.joined(l.Shape(), r.Shape())
		}
	}
	for bi, g := range leftGroup {
		if !matched[g] {
			b.unmatched = append(b.unmatched, int32(bi))
		}
	}
	b.out = newBinaryOut(at+n+len(b.unmatched), capture)
	return b
}

// chunks returns the number of chunks pass 1 cut the probe rows into.
func (b *bucketJoin) chunks() int { return len(b.cut) + 1 }

// emit is pass 2 of chunk c: it stitches the chunk's matches into an arena
// of its own, with a copy of the bucket's shapeMemo, and writes them to the chunk's
// range of the bucket's output; the last chunk then writes the unmatched
// build rows of a left outer join. Beside their disjoint output ranges,
// chunks only read what pass 1 built, so a bucket's chunks run concurrently.
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
		r := &b.rrows[i].row
		for bi := b.t.head[g]; bi >= 0; bi = b.t.next[bi] {
			l := &b.lrows[bi].row
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
	// Unmatched left rows survive with null right attributes; rows whose key
	// is null never reached this bucket (execJoin handles them per left
	// partition).
	for _, bi := range b.unmatched {
		l := &b.lrows[bi].row
		item, err := concatWithNulls(&memo, l.Value, b.rightSchema)
		if err != nil {
			return err
		}
		b.out.setBinary(at, item, l.ID, -1)
		at++
	}
	return nil
}

// ---- broadcast join ----

// execBroadcastJoin hash-joins by building the smaller side once and probing
// the larger side within its existing partitions, avoiding the shuffle of
// the probe side entirely — the broadcast hash join of distributed engines.
// One shared keyTable is built sequentially (the build side is small by
// construction) and probed concurrently by every probe partition: the table
// is read-only after the build. Results are identical to the shuffle join up
// to row order.
func (e *executor) execBroadcastJoin(o *Op, left, right *Dataset) ([]morselOut, error) {
	buildLeft := left.Len() <= right.Len()
	buildDS, probeDS := left, right
	buildKey, probeKey := o.leftKey, o.rightKey
	if !buildLeft {
		buildDS, probeDS = right, left
		buildKey, probeKey = o.rightKey, o.leftKey
	}
	e.startOperator(o, len(probeDS.Partitions), topLevelSchema(left), topLevelSchema(right), nested.Null())
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
	outs := make([]morselOut, len(probeDS.Partitions))
	err = e.forEachPartition(len(probeDS.Partitions), func(part int) error {
		rows := probeDS.Partitions[part]
		keys, err := pk.evalMorsel(rows)
		if err != nil {
			return err
		}
		out, probeHashed, err := broadcastProbe(t, buildRows, rows, keys, buildLeft, e.opts.Sink != nil)
		if err != nil {
			return err
		}
		outs[part] = out
		if rec := e.opts.Recorder; rec != nil {
			n := int64(len(rows))
			rec.Add(o.id, part, obs.RowsIn, n)
			rec.Add(o.id, part, obs.KeysHashed, int64(probeHashed))
			rec.Add(o.id, part, obs.ExprEvals, n*int64(pk.evalOps()))
		}
		return nil
	})
	return outs, err
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
		for ri, r := range p {
			k := keys[ri]
			if k.IsNull() {
				continue
			}
			h := valueHash(k)
			t.insert(h, k, int32(len(buildRows)), int32(r.Value.NumFields()))
			buildRows = append(buildRows, keyedRow{row: r, key: k, hash: h})
		}
	}
	return buildRows, nil
}

// broadcastProbe probes the shared build table with one probe partition.
// Same two passes as a shuffle bucket's join, in one morsel (the probe side
// is an input partition, not a key's bucket), with the left/right orientation of
// output rows decided by which side was built. valueHash is called exactly
// once per non-null probe key; the count is returned for the recorder.
func broadcastProbe(t *keyTable, buildRows []keyedRow, rows []Row, keys []nested.Value, buildLeft, capture bool) (morselOut, int, error) {
	groupOf := make([]int32, len(rows)) // pass 1: each probe row's group, or -1
	var keyBuf []byte
	hashed := 0
	matches, totalFields := 0, 0
	for i := range rows {
		k := keys[i]
		if k.IsNull() {
			groupOf[i] = -1
			continue
		}
		hashed++
		keyBuf = k.AppendNorm(keyBuf[:0])
		g := t.lookup(valueHash(k), keyBuf)
		groupOf[i] = g
		if g < 0 {
			continue
		}
		matches += int(t.count[g])
		totalFields += int(t.fields[g]) + int(t.count[g])*rows[i].Value.NumFields()
	}
	out := newBinaryOut(matches, capture)
	arena := make([]nested.Value, totalFields) // retained by the output items
	var memo shapeMemo
	at := 0
	for i := range rows {
		g := groupOf[i]
		if g < 0 {
			continue
		}
		for bi := t.head[g]; bi >= 0; bi = t.next[bi] {
			l, r := &buildRows[bi].row, &rows[i]
			if !buildLeft {
				l, r = r, l
			}
			item, err := stitch(&memo, arena, &l.Value, &r.Value)
			if err != nil {
				return morselOut{}, 0, err
			}
			arena = arena[item.NumFields():]
			out.setBinary(at, item, l.ID, r.ID)
			at++
		}
	}
	return out, hashed, nil
}
