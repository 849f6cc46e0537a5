package backtrace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pebble/internal/obs"
	"pebble/internal/provenance"
)

// Index sidecar: the file next to a persisted run that says, per operator,
// where the tracer finds its index. For every operator whose Out column is
// non-decreasing — all of a run the engine wrote — that is the run's own
// columns, and the sidecar holds a flag; only an operator whose Out column is
// out of order gets its sorted index serialized here, so a reloaded session
// skips the sort. The sidecar is validated against the run it was built from
// via the run's content hash (provenance.HashStream over the encoded stream)
// plus its own payload checksum; a stale or corrupt sidecar is rejected with
// an error and the caller falls back to the ordinary lazy rebuild — never
// wrong answers.
//
// Wire format (DESIGN.md §9.2 says why it is this small):
//
//	magic "PBLI" | u16 version=2 | u64 runHash | u64 payloadHash
//	payload:
//	  uvarint #ops
//	  per op (run order): uvarint oid | u8 kind | u8 inRun
//	    inRun 1, or kind 0 (none), 1 (source): nothing more
//	    inRun 0, kind 2 (unary), 5 (agg):
//	      uvarint #keys | #keys×Δ(key) | uvarint #vals |
//	      #keys×uvarint runLen | #vals×Δ(val)
//	    inRun 0, kind 3 (binary):
//	      uvarint #keys | #keys×Δ(key) | uvarint #vals |
//	      #keys×uvarint runLen | #vals×Δ(left) | #vals×Δ(right)
//	    inRun 0, kind 4 (flatten):
//	      uvarint #keys | #keys×Δ(key) | #keys×Δ(in) | #keys×uvarint pos
//
// Δ columns are zigzag(v − prev) uvarints with prev starting at 0 per
// column. Key columns are sorted, so their deltas are non-negative and tiny;
// the whole sidecar is a pure function of the run and byte-identical across
// worker counts. Version 1 serialized every operator's index, which
// duplicated the run's columns; it is rejected by the version check.
const (
	sidecarMagic   = "PBLI"
	sidecarVersion = 2
	// sidecarHeaderLen is magic + version + runHash + payloadHash.
	sidecarHeaderLen = 4 + 2 + 8 + 8
)

// Sentinel errors callers can test with errors.Is to distinguish "this
// sidecar belongs to a different run" from "this sidecar is damaged"; both
// mean: rebuild the indexes from the run.
var (
	// ErrSidecarStale marks a sidecar whose recorded run hash does not match
	// the loaded run.
	ErrSidecarStale = errors.New("backtrace: index sidecar does not match run")
	// ErrSidecarCorrupt marks a structurally damaged sidecar.
	ErrSidecarCorrupt = errors.New("backtrace: index sidecar corrupt")
)

// WriteIndexes serializes the sidecar: a flag for every operator whose index
// is the run's columns, and the sorted index of any other — the only case in
// which it builds anything. The run's content hash is what pairs the sidecar
// with its run at load time.
func (t *Tracer) WriteIndexes(w io.Writer) (int64, error) {
	runHash := t.run.ContentHash()
	ops := t.run.Operators()
	buf := append(make([]byte, 0, sidecarHeaderLen+1+4*len(ops)), sidecarMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, sidecarVersion)
	buf = binary.LittleEndian.AppendUint64(buf, runHash)
	buf = append(buf, make([]byte, 8)...) // payloadHash, below
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = binary.AppendUvarint(buf, uint64(op.OID))
		kind := op.AssocKind()
		if op.OutOrdered() {
			buf = append(buf, byte(kind), 1)
			continue
		}
		buf = append(buf, byte(kind), 0)
		ix := t.indexFor(op)
		switch kind {
		case provenance.AssocUnary:
			buf = appendPairIdx(buf, &ix.unary)
		case provenance.AssocAgg:
			buf = appendPairIdx(buf, &ix.agg)
		case provenance.AssocBinary:
			buf = binary.AppendUvarint(buf, uint64(len(ix.binary.keys)))
			buf = provenance.AppendDeltaColumn(buf, ix.binary.keys)
			buf = binary.AppendUvarint(buf, uint64(len(ix.binary.lefts)))
			buf = appendRunLens(buf, ix.binary.offs)
			buf = provenance.AppendDeltaColumn(buf, ix.binary.lefts)
			buf = provenance.AppendDeltaColumn(buf, ix.binary.rights)
		case provenance.AssocFlatten:
			buf = binary.AppendUvarint(buf, uint64(len(ix.flatten.keys)))
			buf = provenance.AppendDeltaColumn(buf, ix.flatten.keys)
			buf = provenance.AppendDeltaColumn(buf, ix.flatten.ins)
			for _, p := range ix.flatten.poss {
				buf = binary.AppendUvarint(buf, uint64(p))
			}
		}
	}
	binary.LittleEndian.PutUint64(buf[14:], provenance.HashStream(buf[sidecarHeaderLen:]))
	n, err := w.Write(buf)
	if err != nil {
		return int64(n), fmt.Errorf("backtrace: writing index sidecar: %w", err)
	}
	return int64(n), nil
}

// appendPairIdx serializes a pairIdx: keys, value count, per-key run
// lengths, values.
func appendPairIdx(buf []byte, x *pairIdx) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(x.keys)))
	buf = provenance.AppendDeltaColumn(buf, x.keys)
	buf = binary.AppendUvarint(buf, uint64(len(x.vals)))
	buf = appendRunLens(buf, x.offs)
	return provenance.AppendDeltaColumn(buf, x.vals)
}

// appendRunLens appends the per-key run lengths derived from an offset
// column.
func appendRunLens(buf []byte, offs []int32) []byte {
	for i := 0; i+1 < len(offs); i++ {
		buf = binary.AppendUvarint(buf, uint64(offs[i+1]-offs[i]))
	}
	return buf
}

// LoadIndexes validates a sidecar written by WriteIndexes and installs the
// regions it keeps for operators whose Out column is out of order, so queries
// skip the sort. Validation is all-or-nothing and happens before anything is
// installed: magic, version, run hash, payload checksum, and a structural
// skip-scan pinning each operator's identity, association kind, in-run flag
// (it must be what the run's own Out column says) and region boundaries. A
// region decodes on first index use; one that then proves internally
// inconsistent — unreachable for a sidecar WriteIndexes produced, since the
// checksum covers every payload byte — is discarded and the index is rebuilt
// from the operator, so a sidecar can accelerate answers but never change
// them. On error the tracer is left unchanged and the caller should fall back
// to the ordinary rebuild. Operators whose index was already built keep the
// built one. The tracer retains data; callers must not mutate it afterwards.
func (t *Tracer) LoadIndexes(data []byte) error {
	defer t.rec.StartSpan(obs.SpanIndexBuild)()
	runHash := t.run.ContentHash()
	if len(data) < sidecarHeaderLen {
		return fmt.Errorf("backtrace: sidecar truncated at %d bytes: %w", len(data), ErrSidecarCorrupt)
	}
	if string(data[:4]) != sidecarMagic {
		return fmt.Errorf("backtrace: bad sidecar magic %q: %w", data[:4], ErrSidecarCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != sidecarVersion {
		return fmt.Errorf("backtrace: unsupported sidecar version %d: %w", v, ErrSidecarCorrupt)
	}
	if got := binary.LittleEndian.Uint64(data[6:14]); got != runHash {
		return fmt.Errorf("backtrace: sidecar was built for run %016x, this run is %016x: %w", got, runHash, ErrSidecarStale)
	}
	payload := data[sidecarHeaderLen:]
	if got := binary.LittleEndian.Uint64(data[14:22]); got != provenance.HashStream(payload) {
		return fmt.Errorf("backtrace: sidecar payload checksum mismatch: %w", ErrSidecarCorrupt)
	}
	// The payload is read through the run stream's cursor, so varint,
	// truncation and count rules are the run codec's own.
	ops := t.run.Operators()
	d := provenance.NewCursor(payload)
	nOps := d.Count("sidecar operator")
	if d.Err() == nil && nOps != len(ops) {
		return fmt.Errorf("backtrace: sidecar covers %d operators, run has %d: %w", nOps, len(ops), ErrSidecarStale)
	}
	// Skip-scan: pin operator identities and column region boundaries without
	// decoding the columns.
	regions := make([][]byte, len(ops))
	for i, op := range ops {
		oid := int(d.Uvarint())
		kind := provenance.AssocKind(d.Byte())
		inRun := d.Byte()
		if inRun > 1 {
			d.Fail(fmt.Errorf("in-run flag %d of operator %d is neither 0 nor 1", inRun, oid))
		}
		if d.Err() != nil {
			break
		}
		if oid != op.OID || kind != op.AssocKind() || (inRun == 1) != op.OutOrdered() {
			return fmt.Errorf("backtrace: sidecar operator %d kind %d in-run %d does not match run operator %d kind %d: %w",
				oid, kind, inRun, op.OID, op.AssocKind(), ErrSidecarStale)
		}
		if inRun == 1 {
			continue
		}
		start := d.Pos()
		switch kind {
		case provenance.AssocUnary, provenance.AssocAgg:
			nKeys := d.Count("sidecar key")
			d.SkipVarints(nKeys) // Δkeys
			nVals := d.Count("sidecar value")
			d.SkipVarints(nKeys) // run lengths
			d.SkipVarints(nVals) // Δvals
		case provenance.AssocBinary:
			nKeys := d.Count("sidecar key")
			d.SkipVarints(nKeys) // Δkeys
			nVals := d.Count("sidecar value")
			d.SkipVarints(nKeys)     // run lengths
			d.SkipVarints(2 * nVals) // Δlefts, Δrights
		case provenance.AssocFlatten:
			nKeys := d.Count("sidecar key")
			d.SkipVarints(3 * nKeys) // Δkeys, Δins, positions
		}
		if d.Err() != nil {
			break
		}
		regions[i] = payload[start:d.Pos():d.Pos()]
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("backtrace: parsing sidecar: %v: %w", err, ErrSidecarCorrupt)
	}
	if d.Rest() != 0 {
		return fmt.Errorf("backtrace: %d trailing bytes after sidecar payload: %w", d.Rest(), ErrSidecarCorrupt)
	}
	for i, op := range ops {
		if regions[i] != nil {
			t.idx.LoadOrStore(op.OID, &opIndex{side: regions[i]})
		}
	}
	return nil
}

// decodeSide materialises an index from the sidecar region LoadIndexes
// recorded, returning false when the region is internally inconsistent
// (non-ascending keys, run lengths that do not sum to the value count). The
// payload checksum makes that unreachable for a genuine sidecar, but a
// fabricated checksum-colliding one must still never yield wrong answers —
// the caller falls back to building from the operator.
func (ix *opIndex) decodeSide(kind provenance.AssocKind) bool {
	d := provenance.NewCursor(ix.side)
	switch kind {
	case provenance.AssocUnary:
		ix.unary = readPairIdx(d)
	case provenance.AssocAgg:
		ix.agg = readPairIdx(d)
	case provenance.AssocBinary:
		nKeys := d.Count("sidecar key")
		keys := d.DeltaColumn(nKeys)
		nVals := d.Count("sidecar value")
		offs := runOffs(d, nKeys, nVals)
		lefts := d.DeltaColumn(nVals)
		rights := d.DeltaColumn(nVals)
		checkSorted(d, keys)
		ix.binary = binIdx{keyCol{keys: keys}, offs, lefts, rights}
	case provenance.AssocFlatten:
		nKeys := d.Count("sidecar key")
		keys := d.DeltaColumn(nKeys)
		ins := d.DeltaColumn(nKeys)
		poss := make([]int64, 0, d.Clamp(nKeys))
		for i := 0; i < nKeys && d.Err() == nil; i++ {
			poss = append(poss, int64(d.Uvarint()))
		}
		checkSorted(d, keys)
		ix.flatten = flatIdx{keyCol{keys: keys}, ins, poss}
	}
	if d.Err() != nil || d.Rest() != 0 {
		ix.unary, ix.binary, ix.flatten, ix.agg = pairIdx{}, binIdx{}, flatIdx{}, pairIdx{}
		return false
	}
	return true
}

// readPairIdx parses one pairIdx and validates its structure.
func readPairIdx(d *provenance.Cursor) pairIdx {
	nKeys := d.Count("sidecar key")
	keys := d.DeltaColumn(nKeys)
	nVals := d.Count("sidecar value")
	offs := runOffs(d, nKeys, nVals)
	vals := d.DeltaColumn(nVals)
	checkSorted(d, keys)
	return pairIdx{keyCol{keys: keys}, offs, vals}
}

// runOffs reads nKeys run lengths and folds them into the offset column,
// requiring the lengths to sum exactly to nVals.
func runOffs(d *provenance.Cursor, nKeys, nVals int) []int32 {
	offs := make([]int32, 0, d.Clamp(nKeys)+1)
	offs = append(offs, 0)
	total := 0
	for i := 0; i < nKeys && d.Err() == nil; i++ {
		l := d.Uvarint()
		if l > uint64(nVals) || total+int(l) > nVals {
			d.Fail(fmt.Errorf("run length %d exceeds the %d values", l, nVals))
			return offs
		}
		total += int(l)
		offs = append(offs, int32(total))
	}
	if total != nVals {
		d.Fail(fmt.Errorf("run lengths sum to %d, want %d values", total, nVals))
	}
	return offs
}

// checkSorted rejects key columns that are not strictly ascending — lookups
// binary-search them.
func checkSorted(d *provenance.Cursor, keys []int64) {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			d.Fail(fmt.Errorf("key column not strictly ascending at %d", i))
			return
		}
	}
}
