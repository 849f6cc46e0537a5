package engine

import (
	"fmt"

	"pebble/internal/nested"
)

// derivedShape is what an operator computes from the shapes of its input
// rows: flatten the shape with its new attribute set and where that sits, a
// join the concatenation of both sides' shapes or the reason there is none.
type derivedShape struct {
	shape *nested.Shape
	at    int
	err   error
}

// shapeMemo remembers the derivedShapes of one partition, so that they are
// computed once per input shape (or pair of them) and not once per row: a
// partition's rows share a handful of shapes. Shapes are told apart by
// pointer — equal shapes under two pointers just derive twice — and the memo
// is small and overwrites its oldest entry, so rows that all differ cost
// what deriving per row costs.
type shapeMemo struct {
	keys [8][2]*nested.Shape
	vals [8]derivedShape
	n    int // entries handed out so far
}

// entry returns the memo's entry for (l, r) and whether it is filled in.
func (m *shapeMemo) entry(l, r *nested.Shape) (*derivedShape, bool) {
	key := [2]*nested.Shape{l, r}
	for i := range m.keys[:min(m.n, len(m.keys))] {
		if m.keys[i] == key {
			return &m.vals[i], true
		}
	}
	i := m.n % len(m.keys)
	m.n++
	m.keys[i] = key
	return &m.vals[i], false
}

// withAttr returns the shape of in.WithField(name, _) and the position of
// name in it; in is nil for a row that is no item, which has no attributes.
func (m *shapeMemo) withAttr(in *nested.Shape, name string) *derivedShape {
	d, ok := m.entry(in, nil)
	if !ok {
		if *d = (derivedShape{shape: in}); in == nil {
			d.shape = nested.NewShape()
		}
		if d.at = d.shape.Index(name); d.at < 0 {
			d.at = d.shape.Len()
			d.shape = nested.NewShape(append(d.shape.Names(), name)...)
		}
	}
	return d
}

// joined returns the shape of a join result ⟨i, j⟩, the attributes of both
// sides concatenated, or the error that they are not disjoint.
func (m *shapeMemo) joined(l, r *nested.Shape) *derivedShape {
	d, ok := m.entry(l, r)
	if !ok {
		*d = derivedShape{shape: nested.NewShape(append(l.Names(), r.Names()...)...)}
		for _, name := range r.Names() {
			if l.Index(name) >= 0 && d.err == nil {
				d.err = fmt.Errorf("join: attribute %q exists on both sides; project inputs to disjoint names", name)
			}
		}
	}
	return d
}
