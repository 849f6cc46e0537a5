// Package usage implements the use-case analyses of Sec. 7.3.5: data-usage
// patterns (the hot/cold heatmap of Fig. 10, driving horizontal and vertical
// partitioning decisions) and GDPR-style auditing (which items and which of
// their attributes are leaked by a query workload, and which attributes
// merely influenced results — the reconstruction-attack signal).
//
// Both analyses merge the structural provenance of full-result queries over
// a workload (the paper merges scenarios D1–D5) and aggregate contribution
// and influence counts per input item and per top-level attribute.
package usage

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/provenance"
)

// AttrStats counts how often a top-level attribute contributed to and how
// often it merely influenced query results across the analysed workload.
type AttrStats struct {
	Contributing int
	Influencing  int
}

// Analysis accumulates merged provenance over a workload. Items are keyed by
// their identifier in the raw input dataset, so multiple reads of the same
// input aggregate onto the same item.
type Analysis struct {
	// ItemContrib counts, per input item, the traced result items it
	// contributed to (the leftmost column of Fig. 10).
	ItemContrib map[int64]int
	// ItemInflu counts pure influence occurrences (accessed but not needed).
	ItemInflu map[int64]int
	// Attr aggregates per top-level attribute name.
	Attr map[string]*AttrStats
	// AttrPerItem aggregates per (item, attribute): the cells of Fig. 10.
	AttrPerItem map[int64]map[string]*AttrStats
	// Pairs counts attribute pairs that contributed together to the same
	// traced item ("author and title are frequently processed together").
	Pairs map[string]int
	// Queries is the number of merged queries.
	Queries int
}

// NewAnalysis returns an empty analysis.
func NewAnalysis() *Analysis {
	return &Analysis{
		ItemContrib: make(map[int64]int),
		ItemInflu:   make(map[int64]int),
		Attr:        make(map[string]*AttrStats),
		AttrPerItem: make(map[int64]map[string]*AttrStats),
		Pairs:       make(map[string]int),
	}
}

func (a *Analysis) attr(name string) *AttrStats {
	s, ok := a.Attr[name]
	if !ok {
		s = &AttrStats{}
		a.Attr[name] = s
	}
	return s
}

func (a *Analysis) attrPerItem(item int64, name string) *AttrStats {
	m, ok := a.AttrPerItem[item]
	if !ok {
		m = make(map[string]*AttrStats)
		a.AttrPerItem[item] = m
	}
	s, ok := m[name]
	if !ok {
		s = &AttrStats{}
		m[name] = s
	}
	return s
}

// AddQuery merges one query result into the analysis. The provenance run is
// needed to map the per-read source identifiers back to the raw input items.
func (a *Analysis) AddQuery(q *core.QueryResult, run *provenance.Run) {
	a.Queries++
	oids := make([]int, 0, len(q.Traced.BySource))
	for oid := range q.Traced.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	for _, oid := range oids {
		s := q.Traced.BySource[oid]
		op, ok := run.Op(oid)
		if !ok {
			continue
		}
		toOrig := op.OrigIDs()
		for _, it := range s.Items {
			orig, ok := toOrig[it.ID]
			if !ok {
				continue
			}
			a.addItem(orig, it.Tree)
		}
	}
}

func (a *Analysis) addItem(orig int64, tree *backtrace.Tree) {
	contributed := false
	var contribAttrs []string
	for _, c := range tree.Root.Children {
		st := a.attr(c.Name)
		pi := a.attrPerItem(orig, c.Name)
		if subtreeContributes(c) {
			st.Contributing++
			pi.Contributing++
			contributed = true
			contribAttrs = append(contribAttrs, c.Name)
		} else {
			st.Influencing++
			pi.Influencing++
		}
	}
	if contributed {
		a.ItemContrib[orig]++
	} else {
		a.ItemInflu[orig]++
	}
	sort.Strings(contribAttrs)
	for i := 0; i < len(contribAttrs); i++ {
		for j := i + 1; j < len(contribAttrs); j++ {
			a.Pairs[contribAttrs[i]+"+"+contribAttrs[j]]++
		}
	}
}

// subtreeContributes reports whether the node or any descendant contributes.
func subtreeContributes(n *backtrace.Node) bool {
	if n.Contributing {
		return true
	}
	for _, c := range n.Children {
		if subtreeContributes(c) {
			return true
		}
	}
	return false
}

// SampleItems picks n items from the universe deterministically (Fig. 10
// shows 25 randomly selected items).
func SampleItems(universe []int64, n int, seed int64) []int64 {
	ids := append([]int64(nil), universe...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if n > len(ids) {
		n = len(ids)
	}
	out := ids[:n]
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Heatmap renders the Fig. 10 view: one row per item, the leftmost column
// holding the item (tuple) contribution count, the remaining columns per
// top-level attribute. Cells show the contribution count; influence-only
// cells show ~n; untouched cells show a dot (cold).
func (a *Analysis) Heatmap(items []int64, attrs []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %6s", "item", "tuple")
	for _, attr := range attrs {
		fmt.Fprintf(&sb, " %10s", truncate(attr, 10))
	}
	sb.WriteByte('\n')
	for _, id := range items {
		fmt.Fprintf(&sb, "%-8d %6s", id, cell(a.ItemContrib[id], a.ItemInflu[id]))
		for _, attr := range attrs {
			var c, i int
			if m, ok := a.AttrPerItem[id]; ok {
				if s, ok := m[attr]; ok {
					c, i = s.Contributing, s.Influencing
				}
			}
			fmt.Fprintf(&sb, " %10s", cell(c, i))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func cell(contrib, influ int) string {
	switch {
	case contrib > 0:
		return fmt.Sprintf("%d", contrib)
	case influ > 0:
		return fmt.Sprintf("~%d", influ)
	default:
		return "."
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// AuditReport classifies items and attributes for the auditing use-case.
type AuditReport struct {
	// LeakedItems contributed to at least one result (count > 0 in Fig. 10).
	LeakedItems []int64
	// InfluencedItems were accessed but never contributed.
	InfluencedItems []int64
	// ColdItems never influenced any result (blue in Fig. 10).
	ColdItems []int64
	// LeakedAttrs contributed to at least one result.
	LeakedAttrs []string
	// InfluencingAttrs were accessed but never contributed — exposed to
	// reconstruction attacks (the year attribute in the paper's example)
	// although their values are not in any result.
	InfluencingAttrs []string
	// ColdAttrs were never touched (no new credit cards needed).
	ColdAttrs []string
}

// Audit classifies the given item universe and attribute schema. Attribute
// classification is restricted to the universe's items, so datasets sharing
// a source (e.g. DBLP record types split out of one file) are analysed
// independently, as Fig. 10 does for the inproceedings records.
func (a *Analysis) Audit(universe []int64, schema []string) AuditReport {
	var rep AuditReport
	attrTotals := make(map[string]AttrStats, len(schema))
	for _, id := range universe {
		switch {
		case a.ItemContrib[id] > 0:
			rep.LeakedItems = append(rep.LeakedItems, id)
		case a.ItemInflu[id] > 0:
			rep.InfluencedItems = append(rep.InfluencedItems, id)
		default:
			rep.ColdItems = append(rep.ColdItems, id)
		}
		for attr, s := range a.AttrPerItem[id] {
			t := attrTotals[attr]
			t.Contributing += s.Contributing
			t.Influencing += s.Influencing
			attrTotals[attr] = t
		}
	}
	for _, attr := range schema {
		s := attrTotals[attr]
		switch {
		case s.Contributing > 0:
			rep.LeakedAttrs = append(rep.LeakedAttrs, attr)
		case s.Influencing > 0:
			rep.InfluencingAttrs = append(rep.InfluencingAttrs, attr)
		default:
			rep.ColdAttrs = append(rep.ColdAttrs, attr)
		}
	}
	return rep
}

// TopPairs returns the most frequent contributing attribute pairs, for data
// layout decisions ("store author and title next to each other").
func (a *Analysis) TopPairs(n int) []string {
	type pc struct {
		pair  string
		count int
	}
	var pairs []pc
	for p, c := range a.Pairs {
		pairs = append(pairs, pc{p, c})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		return pairs[i].pair < pairs[j].pair
	})
	if n > len(pairs) {
		n = len(pairs)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = fmt.Sprintf("%s (%d)", pairs[i].pair, pairs[i].count)
	}
	return out
}

// ColumnGroup is one suggested vertical partition: attributes that should be
// stored together.
type ColumnGroup struct {
	Attrs []string
	// Hot groups carry contributing attributes; the cold group collects
	// attributes no query in the workload touched.
	Hot bool
}

// SuggestColumnGroups turns the merged provenance into a vertical
// partitioning proposal (the data-layout optimization of Sec. 7.3.5): hot
// attributes are greedily clustered by how often they contribute together
// (union-find over the pair counts, strongest pairs first), influencing-only
// attributes join the hot section as their own group (they are read by
// queries), and untouched attributes form the cold partition.
func (a *Analysis) SuggestColumnGroups(universe []int64, schema []string) []ColumnGroup {
	rep := a.Audit(universe, schema)
	hot := map[string]bool{}
	for _, attr := range rep.LeakedAttrs {
		hot[attr] = true
	}
	// Union-find over hot attributes.
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for attr := range hot {
		parent[attr] = attr
	}
	type pc struct {
		a, b  string
		count int
	}
	var pairs []pc
	for p, c := range a.Pairs {
		parts := strings.SplitN(p, "+", 2)
		if len(parts) != 2 || !hot[parts[0]] || !hot[parts[1]] {
			continue
		}
		pairs = append(pairs, pc{a: parts[0], b: parts[1], count: c})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		return pairs[i].a+pairs[i].b < pairs[j].a+pairs[j].b
	})
	// Merge pairs that co-occur at least half as often as the strongest pair.
	if len(pairs) > 0 {
		threshold := pairs[0].count / 2
		if threshold < 1 {
			threshold = 1
		}
		for _, p := range pairs {
			if p.count < threshold {
				break
			}
			parent[find(p.a)] = find(p.b)
		}
	}
	groupsByRoot := map[string][]string{}
	for attr := range hot {
		root := find(attr)
		groupsByRoot[root] = append(groupsByRoot[root], attr)
	}
	var out []ColumnGroup
	var roots []string
	for root := range groupsByRoot {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		attrs := groupsByRoot[root]
		sort.Strings(attrs)
		out = append(out, ColumnGroup{Attrs: attrs, Hot: true})
	}
	if len(rep.InfluencingAttrs) > 0 {
		influ := append([]string(nil), rep.InfluencingAttrs...)
		sort.Strings(influ)
		out = append(out, ColumnGroup{Attrs: influ, Hot: true})
	}
	if len(rep.ColdAttrs) > 0 {
		cold := append([]string(nil), rep.ColdAttrs...)
		sort.Strings(cold)
		out = append(out, ColumnGroup{Attrs: cold, Hot: false})
	}
	return out
}
