package engine

import (
	"fmt"

	"pebble/internal/nested"
	"pebble/internal/obs"
)

// Hash-join build/probe (DESIGN.md §13). The build side fills a keyTable —
// flat open addressing on (cached shuffle hash, normalized key bytes) — and
// probing runs in two passes per morsel: pass 1 resolves each probe row's
// group once and sizes the output exactly (match count and total stitched
// fields, from the per-group row and field sums maintained at build time);
// pass 2 emits matches in probe-major, chain-insertion order, stitching
// left/right attribute values into one flat value arena instead of one
// allocation per match. The arena is allocated exactly once per morsel and
// retained by the output items (Shape.Item keeps the slice); each match
// takes a capacity-limited subslice.
//
// Error contract: the join's shape rules — both inputs data items, attribute
// names disjoint — are looked at per match in emission order (the second
// answered from the morsel's shapeMemo, once per pair of shapes), so the
// first error of a bucket is the one a row-at-a-time nested-loop join over
// the same bucket reports (pinned by reference_test.go).

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

// joinBucket joins one shuffle bucket, building on the left and probing with
// the right. Bucket contents arrive in sequence order (the shuffle merge is
// partition-major), so outputs are ordered by (right seq, left seq) and chain
// order equals left sequence order by construction.
func joinBucket(lrows, rrows []keyedRow, leftOuter bool, rightSchema *nested.Shape, capture bool) (morselOut, error) {
	t := newKeyTable(len(lrows))
	for i, kr := range lrows {
		t.insert(kr.hash, kr.key, int32(i), int32(kr.row.Value.NumFields()))
	}
	groupOf := make([]int32, len(rrows)) // pass 1: each probe row's group, or -1
	var matched []bool                   // left outer: build rows that matched
	if leftOuter {
		matched = make([]bool, len(lrows))
	}
	var keyBuf []byte
	matches, totalFields := 0, 0
	for i, kr := range rrows {
		keyBuf = kr.key.AppendNorm(keyBuf[:0])
		g := t.lookup(kr.hash, keyBuf)
		groupOf[i] = g
		if g < 0 {
			continue
		}
		matches += int(t.count[g])
		totalFields += int(t.fields[g]) + int(t.count[g])*kr.row.Value.NumFields()
	}
	out := newBinaryOut(matches, capture)
	arena := make([]nested.Value, totalFields) // retained by the output items
	var memo shapeMemo
	for i := range rrows {
		g := groupOf[i]
		if g < 0 {
			continue
		}
		r := &rrows[i].row
		for bi := t.head[g]; bi >= 0; bi = t.next[bi] {
			l := &lrows[bi].row
			item, err := stitch(&memo, arena, &l.Value, &r.Value)
			if err != nil {
				return morselOut{}, err
			}
			arena = arena[item.NumFields():]
			if matched != nil {
				matched[bi] = true
			}
			out.addBinary(item, l.ID, r.ID)
		}
	}
	if leftOuter {
		// Unmatched left rows survive with null right attributes; rows whose
		// key is null never reached this bucket (execJoin handles them per
		// left partition).
		for bi, kr := range lrows {
			if matched[bi] {
				continue
			}
			item, err := concatWithNulls(&memo, kr.row.Value, rightSchema)
			if err != nil {
				return morselOut{}, err
			}
			out.addBinary(item, kr.row.ID, -1)
		}
	}
	return out, nil
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
// Same two-pass shape as joinBucket, with the left/right orientation of
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
			out.addBinary(item, l.ID, r.ID)
		}
	}
	return out, hashed, nil
}
