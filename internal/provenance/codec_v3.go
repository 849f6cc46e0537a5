package provenance

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"pebble/internal/obs"
)

// Codec version 4, what Collector.Finish encodes: a columnar layout.
// Association bags dominate the stream (millions of monotonically growing
// int64 identifiers per operator), so every association field is its own
// column, and an identifier column is stored the shorter way: as zigzag
// deltas, one or two bytes each instead of the fixed eight of v1, or — where
// deltas repeat, as in a dense Out column (base, 1, 1, …) — as runs of equal
// deltas, a few bytes whatever the length. The schema-level strings repeat
// heavily across operators, so the stream opens with a string dictionary and
// every string position holds a varint dictionary reference.
//
// Layout after the shared magic "PBLP" | u16 version=4 prefix:
//
//	dict:  uvarint #strings | per string: uvarint len | bytes
//	uvarint #ops
//	per op:
//	  uvarint oid | uvarint typeRef | u8 manipUndefined
//	  uvarint #inputs | per input:
//	    uvarint pred | uvarint sourceNameRef | u8 accessUndefined
//	    uvarint #accessed | #accessed × uvarint pathRef
//	    uvarint #schema   | #schema   × uvarint strRef
//	  uvarint #mappings | per mapping:
//	    uvarint inRef ("" encodes a nil In) | uvarint outRef | u8 groupKey
//	  u8 runs<<3 | assocTag (0 none, 1 source, 2 unary, 3 binary, 4 flatten, 5 agg)
//	  tag 1: uvarint n | C(Out)   | C(In)
//	  tag 2: uvarint n | C(In)    | C(Out)
//	  tag 3: uvarint n | C(In)    | C(Right)      | C(Out)
//	  tag 4: uvarint n | n×Δ(In)  | C(Pos − e)    | C(Out)
//	  tag 5: uvarint n | C(Out)   | n×uvarint len(Ins) | ΣΔ(Ins) chain
//
// A column C is n×Δ — zigzag(v − prev) uvarints, prev starting at 0 — unless
// bit k of runs is set, k its place in the row above; then it is uvarint
// #runs, then per run uvarint len ≥ 1 | zigzag Δ (len values, each Δ past the
// one before), Σ len = n. The agg Ins chain is one delta column spanning all
// groups. A flatten stores each position as its residual r_j = Pos_j − e_j
// against the position its input id implies: e_j = Pos_{j−1} + 1 where
// In_j = In_{j−1}, else 1. The engine numbers the elements of each input row
// 1, 2, …, so every residual of a capture is 0 and the column one run; the
// arithmetic wraps (int64), so every position round-trips. A bag keeps one
// column of n entries not run-coded (chooseRuns) — a flatten its In — so
// every row it declares is backed by a byte of its region, which bounds what
// a loader allocates. The bytes are a pure function of the run — the
// dictionary is in first-occurrence order over the operators — so they are
// identical whatever the worker count (the oracle asserts this
// byte-for-byte).
//
// Version 3, decoded forever and written only by the test reference that
// froze its goldens, is this layout with a flatten's positions stored as
// they are, n×uvarint Pos, never run-coded. Version 2 is version 3 with
// runs = 0.

// runColumns are the columns of each layout that may be run-coded, and
// rowColumns those with one entry per association row (bit k: k-th column).
// Version 3 cannot run-code a flatten's Pos column (runnable).
var (
	runColumns = [...]uint8{AssocSource: 0b011, AssocUnary: 0b011, AssocBinary: 0b111, AssocFlatten: 0b110, AssocAgg: 0b001}
	rowColumns = [...]uint8{AssocSource: 0b011, AssocUnary: 0b011, AssocBinary: 0b111, AssocFlatten: 0b111, AssocAgg: 0b011}
)

// runnable returns the columns a layout-kind bag of the given version may
// run-code.
func runnable(kind AssocKind, version uint16) uint8 {
	if kind == AssocFlatten && version < codecVersionV4 {
		return runColumns[kind] &^ 0b010
	}
	return runColumns[kind]
}

// WriteTo writes the run's encoded stream verbatim in a single Write, so the
// returned count reflects bytes the destination genuinely accepted. A
// captured run's stream is the v4 encoding Collector.Finish produced; a
// loaded run's is the bytes it was loaded from, whatever their version.
func (r *Run) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r.stream)
	if err != nil {
		err = fmt.Errorf("provenance: writing encoded run: %w", err)
	}
	return int64(n), err
}

// encode returns the v4 stream of ops. bag returns an operator's association
// columns; it is called once per operator, in order, and its result is not
// kept past the call, so a caller may hand out one reused buffer. Every
// operator's encoded byte count, header and bag, goes to rec as
// obs.ProvBytes.
func encode(ops []*Operator, bag func(*Operator) Columns, rec *obs.Recorder) []byte {
	buf := append(make([]byte, 0, 4096), codecMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersionV4)

	dict, refs := dictionary(ops)
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	var resid []int64 // a flatten's Pos residuals, one array for every bag
	for _, op := range ops {
		start := len(buf)
		buf = appendOp(buf, op, bag(op), refs, &resid)
		rec.Add(op.OID, 0, obs.ProvBytes, int64(len(buf)-start))
	}
	return buf
}

// dictionary collects every string of ops in deterministic first-occurrence
// order (the same walk the encoder performs) and returns the dictionary plus
// the string→index mapping.
func dictionary(ops []*Operator) ([]string, map[string]uint64) {
	var dict []string
	refs := make(map[string]uint64)
	add := func(s string) {
		if _, ok := refs[s]; !ok {
			refs[s] = uint64(len(dict))
			dict = append(dict, s)
		}
	}
	for _, op := range ops {
		add(string(op.typ))
		for _, in := range op.inputs {
			add(in.SourceName)
			for _, p := range in.Accessed {
				add(p.String())
			}
			for _, s := range in.Schema {
				add(s)
			}
		}
		for _, m := range op.manip {
			add(m.In.String())
			add(m.Out.String())
		}
	}
	return dict, refs
}

// appendOp appends op's header and bag c; a flatten's residuals are written
// into *resid first.
func appendOp(buf []byte, op *Operator, c Columns, refs map[string]uint64, resid *[]int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(op.OID))
	buf = binary.AppendUvarint(buf, refs[string(op.typ)])
	buf = appendBool(buf, op.manipUndefined)
	buf = binary.AppendUvarint(buf, uint64(len(op.inputs)))
	for _, in := range op.inputs {
		buf = binary.AppendUvarint(buf, uint64(in.Pred))
		buf = binary.AppendUvarint(buf, refs[in.SourceName])
		buf = appendBool(buf, in.AccessUndefined)
		buf = binary.AppendUvarint(buf, uint64(len(in.Accessed)))
		for _, p := range in.Accessed {
			buf = binary.AppendUvarint(buf, refs[p.String()])
		}
		buf = binary.AppendUvarint(buf, uint64(len(in.Schema)))
		for _, s := range in.Schema {
			buf = binary.AppendUvarint(buf, refs[s])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(op.manip)))
	for _, m := range op.manip {
		buf = binary.AppendUvarint(buf, refs[m.In.String()])
		buf = binary.AppendUvarint(buf, refs[m.Out.String()])
		buf = appendBool(buf, m.GroupKey)
	}
	var wire [3][]int64 // the columns in wire order; an aggregate's lens are written below
	switch c.Kind {
	case AssocSource:
		wire = [3][]int64{c.Out, c.In}
	case AssocUnary:
		wire = [3][]int64{c.In, c.Out}
	case AssocBinary:
		wire = [3][]int64{c.In, c.Right, c.Out}
	case AssocFlatten:
		*resid = posResiduals(*resid, c.In, c.Pos)
		wire = [3][]int64{c.In, *resid, c.Out}
	case AssocAgg:
		wire = [3][]int64{c.Out, nil, c.In}
	}
	runs, nRuns := chooseRuns(c.Kind, &wire)
	buf = append(buf, runs<<3|byte(c.Kind))
	if c.Kind == AssocNone {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Out)))
	for k, col := range wire {
		switch {
		case runs>>k&1 != 0:
			buf = appendRunColumn(buf, col, nRuns[k])
		case k == 1 && c.Kind == AssocAgg:
			for j := range c.Out {
				buf = binary.AppendUvarint(buf, uint64(c.Offs[j+1]-c.Offs[j]))
			}
		default:
			buf = appendDeltaColumn(buf, col)
		}
	}
	return buf
}

// posResiduals returns, in r's array grown to fit, each position of pos less
// the one its input id implies (codec layout above), wrapping.
func posResiduals(r, in, pos []int64) []int64 {
	r = slices.Grow(r[:0], len(pos))
	for j, p := range pos {
		r = append(r, p-impliedPos(in, pos, j))
	}
	return r
}

// addImpliedPos turns the residuals in pos back into positions, in place: the
// inverse of posResiduals.
func addImpliedPos(in, pos []int64) {
	for j := range pos {
		pos[j] += impliedPos(in, pos, j)
	}
}

// impliedPos is e_j: the position after the row before's where both rows
// have the same input id, else 1.
func impliedPos(in, pos []int64, j int) int64 {
	if j > 0 && in[j] == in[j-1] {
		return pos[j-1] + 1
	}
	return 1
}

// chooseRuns returns the runs bits of a bag and the run count of every
// column it run-codes: a column is run-coded iff that is strictly shorter,
// but when that would leave no column of n entries Δ-coded, the one of
// shortest Δ form stays. One counting pass per eligible column, nothing
// allocated.
func chooseRuns(kind AssocKind, wire *[3][]int64) (runs uint8, nRuns [3]int) {
	keep, keepBytes := 0, -1 // the row column of shortest Δ form, the first of equals
	for k, col := range wire {
		if runColumns[kind]>>k&1 == 0 {
			continue
		}
		delta, run, n := columnCost(col)
		if run < delta {
			runs, nRuns[k] = runs|1<<k, n
		}
		if keepBytes < 0 || delta < keepBytes {
			keep, keepBytes = k, delta
		}
	}
	if runs&rowColumns[kind] == rowColumns[kind] {
		runs &^= 1 << keep
	}
	return runs, nRuns
}

// columnCost returns the bytes col takes Δ-coded and run-coded, and its
// number of runs.
func columnCost(col []int64) (delta, run, runs int) {
	for i, prev := 0, int64(0); i < len(col); runs++ {
		j, d := deltaRun(col, i, prev)
		l := uvarintLen(zigzag(d))
		delta += (j - i) * l
		run += uvarintLen(uint64(j-i)) + l
		i, prev = j, col[j-1]
	}
	return delta, run + uvarintLen(uint64(runs)), runs
}

// appendRunColumn appends col run-coded; runs is its run count.
func appendRunColumn(buf []byte, col []int64, runs int) []byte {
	buf = binary.AppendUvarint(buf, uint64(runs))
	for i, prev := 0, int64(0); i < len(col); {
		j, d := deltaRun(col, i, prev)
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(j-i)), zigzag(d))
		i, prev = j, col[j-1]
	}
	return buf
}

// deltaRun returns the end of the run that starts at col[i] — the maximal
// stretch whose values each lie the same delta past the one before, prev
// being the value before col[i] — and that delta.
func deltaRun(col []int64, i int, prev int64) (int, int64) {
	d := col[i] - prev
	j := i + 1
	for j < len(col) && col[j]-col[j-1] == d {
		j++
	}
	return j, d
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// appendDeltaColumn appends col as zigzag(v − prev) uvarints, prev starting
// at 0: the writer of what cursor.DeltaColumn reads.
func appendDeltaColumn(buf []byte, col []int64) []byte {
	prev := int64(0)
	for _, v := range col {
		buf = binary.AppendUvarint(buf, zigzag(v-prev))
		prev = v
	}
	return buf
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}
