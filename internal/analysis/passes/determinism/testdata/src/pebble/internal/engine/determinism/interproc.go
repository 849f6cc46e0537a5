// One-hop interprocedural cases: the loop body parks the helper's result in
// a per-iteration local, but a helper handed a slice can leak iteration
// order by writing into it.
package determinism

import "sort"

// badHelperWrite: record stores v at a computed slot of the shared slice;
// colliding slots resolve by call order, i.e. by map iteration order.
func badHelperWrite(m map[int]int, dst []int) {
	for k, v := range m { // want `map iteration order is nondeterministic`
		ok := record(dst, k, v)
		if ok {
			continue
		}
	}
}

func record(dst []int, k, v int) bool {
	h := k % len(dst)
	dst[h] = v
	return true
}

// badHelperRead: lookup only reads the shared slice, but the rule does not
// look inside the helper, so any slice argument is reported. Hoist the call
// out of the range or justify an ignore.
func badHelperRead(m map[int]int, table []int) int {
	total := 0
	for k := range m { // want `map iteration order is nondeterministic`
		v := lookup(table, k)
		total += v
	}
	return total
}

func lookup(table []int, k int) int { return table[k%len(table)] }

// goodHelperPure: the helper only computes; the collect-then-sort idiom
// still applies, so the range is clean.
func goodHelperPure(m map[int]int) []int {
	var ks []int
	for k := range m {
		kk := double(k)
		ks = append(ks, kk)
	}
	sort.Ints(ks)
	return ks
}

func double(v int) int { return v * 2 }

// goodHelperLocalWrite: the helper writes only into storage it allocated
// itself — nothing shared across iterations, so order cannot leak.
func goodHelperLocalWrite(m map[int]int) int {
	total := 0
	for _, v := range m {
		s := scratchSum(v)
		total += s
	}
	return total
}

func scratchSum(v int) int {
	buf := make([]int, 4)
	buf[0] = v
	return buf[0]
}
