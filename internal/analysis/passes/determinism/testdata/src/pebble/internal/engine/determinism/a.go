// Fixture for the determinism analyzer: flagged map ranges, the clean
// collect-then-sort idiom, order-insensitive bodies, and clock/rand use.
package determinism

import (
	"math/rand"
	"slices"
	"sort"
	"time"
)

// badConcat folds iteration order into a string: flagged.
func badConcat(m map[string]int) string {
	s := ""
	for k := range m { // want `map iteration order is nondeterministic`
		s += k
	}
	return s
}

// badCollect gathers keys but never sorts them, so callers see map order.
func badCollect(m map[string]int) []string {
	var keys []string
	for k := range m { // want `collected here but never sorted`
		keys = append(keys, k)
	}
	return keys
}

// goodSorted is the repo's sorted-key idiom: allowed.
func goodSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodSortFunc sorts through a slices-style helper named sortStrings.
func goodSortFunc(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func sortStrings(s []string) { sort.Strings(s) }

// badSearchIsNotSort searches the collected keys without sorting them: the
// keys leave in map order, and the search itself reads an unsorted slice.
func badSearchIsNotSort(m map[string]int) ([]string, bool) {
	var keys []string
	for k := range m { // want `collected here but never sorted`
		keys = append(keys, k)
	}
	return keys, sort.SearchStrings(keys, "m") < len(keys) || slices.Contains(keys, "m")
}

// goodSlicesSort sorts through package slices: allowed.
func goodSlicesSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// goodSum accumulates integers: order-insensitive, allowed.
func goodSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// goodInvert writes into another map: order-insensitive, allowed.
func goodInvert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// goodConditional collects behind a filter, then sorts: allowed.
func goodConditional(m map[string]int) []string {
	var keys []string
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// goodPerKeySort sorts a per-iteration local inside the body: allowed.
func goodPerKeySort(m map[string][]int) map[string][]int {
	out := make(map[string][]int, len(m))
	for k, vs := range m {
		c := append([]int(nil), vs...)
		sort.Ints(c)
		out[k] = c
	}
	return out
}

// badFloatSum: float addition does not commute under rounding.
func badFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is nondeterministic`
		sum += v
	}
	return sum
}

// ignored demonstrates the audited escape hatch.
func ignored(m map[string]int) string {
	s := ""
	//pebblevet:ignore determinism -- fixture: deliberate suppression example
	for k := range m {
		s += k
	}
	return s
}

// column is a stand-in for a decoded batch column (internal/engine/batch.go).
type column struct {
	valid []uint64
	vals  []int64
}

// badBatchDrain drains a column cache into a slice the caller will iterate:
// cache order leaks into downstream work.
func badBatchDrain(cache map[string]*column, out []*column) []*column {
	for k, c := range cache { // want `collected here but never sorted`
		delete(cache, k)
		out = append(out, c)
	}
	return out
}

// goodValidityCount ranges a cached-column map but only folds validity
// bitmaps into an integer population count: order-insensitive, allowed.
func goodValidityCount(cache map[string]*column) int {
	n := 0
	for _, c := range cache {
		for _, w := range c.valid {
			for ; w != 0; w &= w - 1 {
				n++
			}
		}
	}
	return n
}

// badFirstColumn publishes whichever column the map yields first.
func badFirstColumn(cache map[string]*column) *column {
	for _, c := range cache { // want `map iteration order is nondeterministic`
		return c
	}
	return nil
}

// badTime leaks the wall clock into an "identifier".
func badTime() int64 {
	return time.Now().UnixNano() // want `time.Now in an identifier/provenance-producing package`
}

// badRand draws from the shared global source.
func badRand() int {
	return rand.Intn(10) // want `global math/rand.Intn`
}

// goodRand threads an explicitly seeded generator.
func goodRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}
