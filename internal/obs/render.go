package obs

import (
	"fmt"
	"strings"
)

// Render formats the snapshot as the paper-style per-operator table. With
// withTimings the wall-clock columns (per-operator elapsed, span totals)
// are included; without, the output contains only deterministic counters
// and is byte-identical for every Workers setting — the form golden and
// determinism tests pin.
func (s *Stats) Render(withTimings bool) string {
	var sb strings.Builder
	sb.WriteString("per-operator execution metrics\n")
	fmt.Fprintf(&sb, "%-4s %-10s %12s %12s %12s %12s %12s %12s %12s",
		"op", "type",
		RowsIn, RowsOut, ExprEvals, KeysHashed, AssocRows, ProvBytes, BytesEncoded)
	if withTimings {
		fmt.Fprintf(&sb, " %14s", "elapsed")
	}
	sb.WriteByte('\n')
	for _, op := range s.Ops {
		typ := op.Type
		if typ == "" {
			typ = "?"
		}
		fmt.Fprintf(&sb, "%-4d %-10s", op.OID, typ)
		for c := Counter(0); c < NumCounters; c++ {
			fmt.Fprintf(&sb, " %12d", op.Counters[c])
		}
		if withTimings {
			fmt.Fprintf(&sb, " %14s", op.Elapsed)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "totals: rows_out=%d assoc_rows=%d prov_bytes=%d\n",
		s.Total(RowsOut), s.Total(AssocRows), s.Total(ProvBytes))
	if withTimings && len(s.Spans) > 0 {
		parts := make([]string, 0, len(s.Spans))
		for _, sp := range s.Spans {
			parts = append(parts, fmt.Sprintf("%s=%s/%d", sp.Span, sp.Total, sp.Count))
		}
		sb.WriteString("spans: " + strings.Join(parts, " ") + "\n")
		match, bt := s.SpanTotal(SpanPatternMatch), s.SpanTotal(SpanBacktrace)
		if q := match + bt; q > 0 {
			fmt.Fprintf(&sb, "query time: match %s (%.1f%%) + backtrace %s (%.1f%%)\n",
				match, 100*float64(match)/float64(q), bt, 100*float64(bt)/float64(q))
		}
		// Reload-path phases (lazy run load, index build,
		// pattern compilation) — the query-side split of the PR 6 fast path.
		load, idx, comp := s.SpanTotal(SpanRunLoad), s.SpanTotal(SpanIndexBuild), s.SpanTotal(SpanPatternCompile)
		if load+idx+comp > 0 {
			fmt.Fprintf(&sb, "query phases: run_load %s + index_build %s + pattern_compile %s\n",
				load, idx, comp)
		}
	}
	return sb.String()
}
