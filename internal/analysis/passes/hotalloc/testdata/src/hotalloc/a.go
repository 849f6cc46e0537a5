// Fixture for the hotalloc analyzer: per-row allocations inside morsel
// loops. The test points -hotalloc.pkgs at this package; the hot element
// types are the defaults (Row, keyedRow), declared in types.go.
package hotalloc

func flagged(rows []Row) []keyedRow {
	var out []keyedRow
	for _, r := range rows {
		tmp := []int64{r.ID}     // want `slice literal allocated in a per-row loop`
		m := map[string]int{}    // want `map literal allocated in a per-row loop`
		p := &keyedRow{id: r.ID} // want `heap allocation in a per-row loop`
		buf := make([]byte, 0)   // want `make in a per-row loop`
		q := new(keyedRow)       // want `new in a per-row loop`
		_, _, _, _, _ = tmp, m, p, buf, q
		out = append(out, keyedRow{id: r.ID}) // want `append to out grows an unsized buffer in a per-row loop`
	}
	return out
}

func boxing(rows []Row) {
	for _, r := range rows {
		x := boxer(val(r.Value)) // want `conversion to interface type in a per-row loop`
		_ = x
	}
}

func nestedLoop(rows []Row, parts []int) {
	for range rows {
		for range parts {
			s := make([]int, 0) // want `make in a per-row loop`
			_ = s
		}
	}
}

// clean is flagged's pre-sized twin: the output has a capacity floor, the
// scratch buffer is hoisted and reused with [:0], and the struct *value*
// literal in the append argument is not an allocation.
func clean(rows []Row) []keyedRow {
	out := make([]keyedRow, 0, len(rows))
	scratch := make([]byte, 0, 64)
	for _, r := range rows {
		scratch = scratch[:0]
		scratch = append(scratch, byte(r.Value))
		out = append(out, keyedRow{id: r.ID})
	}
	return out
}

// cleanParamAppend: the target is caller-owned; its sizing is the caller's
// responsibility (entry definitions count as pre-sized).
func cleanParamAppend(rows []Row, out []keyedRow) []keyedRow {
	for _, r := range rows {
		out = append(out, keyedRow{id: r.ID})
	}
	return out
}

// cleanFlatBacking: the hoisted-backing-array idiom — one allocation per
// morsel, a distinct full-capacity subslice per row.
func cleanFlatBacking(rows []Row) [][]int64 {
	keys := make([][]int64, len(rows))
	flat := make([]int64, len(rows))
	for i, r := range rows {
		ks := flat[i : i+1 : i+1]
		ks[0] = r.ID
		keys[i] = ks
	}
	return keys
}

// cleanIgnored: the escape hatch — a justified per-row allocation.
func cleanIgnored(rows []Row) {
	for _, r := range rows {
		buf := make([]byte, r.Value) //pebblevet:ignore hotalloc -- fixture: size is data-dependent by design
		_ = buf
	}
}

// cleanOutsideLoop: allocations before or after the hot loop are fine.
func cleanOutsideLoop(rows []Row) map[int64]int {
	seen := make(map[int64]int, len(rows))
	for _, r := range rows {
		seen[r.ID]++
	}
	return seen
}

// sliceBuilders: Fields and AttrNames build their result per call; once per
// morsel, outside the loop, is clean.
func sliceBuilders(rows []Row) int {
	n := len(rows[0].Item.AttrNames())
	for _, r := range rows {
		n += len(r.Item.Fields()) // want `Value.Fields\(\) builds a slice per call`
		p := &r.Item
		n += len(p.AttrNames()) // want `Value.AttrNames\(\) builds a slice per call`
	}
	return n
}
