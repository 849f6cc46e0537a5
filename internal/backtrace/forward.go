package backtrace

import (
	"fmt"
	"sort"

	"pebble/internal/engine"
	"pebble/internal/provenance"
)

// ForwardResult maps each terminal operator (usually the pipeline sink) to
// the identifiers of result items affected by the traced input items.
type ForwardResult struct {
	ByOperator map[int][]int64
}

// AffectedIDs returns the affected result identifiers of the given operator.
func (r *ForwardResult) AffectedIDs(oid int) []int64 { return r.ByOperator[oid] }

// TraceForward follows the captured associations forward: given input items
// of a source operator, it computes which items of every downstream operator
// — in particular the pipeline result — are derived from them. This is the
// impact-analysis complement to backtracing: an auditor asks "which query
// results contain customer X's data?" before tracing those results back at
// attribute level. Identifiers are the source operator's output ids (the Out
// column of its bag).
func TraceForward(run *provenance.Run, sourceOID int, ids []int64) (*ForwardResult, error) {
	op, ok := run.Op(sourceOID)
	if !ok {
		return nil, fmt.Errorf("backtrace: no captured provenance for operator %d", sourceOID)
	}
	if op.Type() != engine.OpSource {
		return nil, fmt.Errorf("backtrace: operator %d is %s, want a source", sourceOID, op.Type())
	}
	// successors[oid] lists (consumer, inputIdx) pairs.
	type edge struct {
		consumer *provenance.Operator
		inputIdx int
	}
	successors := make(map[int][]edge)
	for _, o := range run.Operators() {
		for idx, in := range o.Inputs() {
			if in.Pred != 0 {
				successors[in.Pred] = append(successors[in.Pred], edge{consumer: o, inputIdx: idx})
			}
		}
	}
	current := map[int]map[int64]bool{sourceOID: toSet(ids)}
	result := &ForwardResult{ByOperator: make(map[int][]int64)}
	// The captured operator order is topological (execution order), so one
	// pass suffices.
	for _, o := range run.Operators() {
		inIDs := current[o.OID]
		if len(inIDs) == 0 {
			continue
		}
		edges := successors[o.OID]
		if len(edges) == 0 {
			// Terminal operator: report its affected items.
			result.ByOperator[o.OID] = setToSorted(inIDs)
			continue
		}
		for _, e := range edges {
			out := forwardThrough(e.consumer, e.inputIdx, inIDs)
			dst := current[e.consumer.OID]
			if dst == nil {
				dst = make(map[int64]bool)
				current[e.consumer.OID] = dst
			}
			for id := range out {
				dst[id] = true
			}
		}
	}
	return result, nil
}

// forwardThrough maps input ids arriving at the consumer's inputIdx to the
// consumer's output ids, using the operator's association layout.
func forwardThrough(op *provenance.Operator, inputIdx int, in map[int64]bool) map[int64]bool {
	out := make(map[int64]bool)
	c := op.Columns()
	switch c.Kind {
	case provenance.AssocUnary, provenance.AssocFlatten:
		for i, id := range c.In {
			if in[id] {
				out[c.Out[i]] = true
			}
		}
	case provenance.AssocBinary:
		side := c.In
		if inputIdx == 1 {
			side = c.Right
		}
		for i, id := range side {
			if id != -1 && in[id] {
				out[c.Out[i]] = true
			}
		}
	case provenance.AssocAgg:
		for i, o := range c.Out {
			for _, id := range c.In[c.Offs[i]:c.Offs[i+1]] {
				if in[id] {
					out[o] = true
					break
				}
			}
		}
	}
	return out
}

func toSet(ids []int64) map[int64]bool {
	s := make(map[int64]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

func setToSorted(s map[int64]bool) []int64 {
	out := make([]int64, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
