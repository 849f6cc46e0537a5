package engine

import (
	"pebble/internal/nested"
	"pebble/internal/path"
)

// gather reads the access path p off every row of a morsel and writes row i's
// value to dst[first+i*stride]: what p.Eval gives, or nested.Null() where the
// path is absent. An explicit null already is nested.Null(), the only null
// value there is, so gather's output is normalised as the shuffle keys need
// it. It is the one path read in the operators' loops (DESIGN.md §10.1);
// expressions evaluate through Path.Eval.
//
// The first step reads the rows; every later step rewrites dst in place, one
// pass over the morsel per step. A step remembers the last shape it met and
// the slot of its attribute there, so it looks the attribute up once per run
// of rows that share a shape — a morsel's rows share a handful — and not once
// per row. gather allocates nothing, and writes nothing when rows is empty.
func gather(p path.Path, rows []Row, dst []nested.Value, first, stride int) {
	if p.HasPlaceholder() {
		for i := range rows {
			dst[first+i*stride] = nested.Null() // [pos] is not evaluable
		}
		return
	}
	if len(p) == 0 || p[0].Attr == "" {
		for i := range rows {
			dst[first+i*stride] = rows[i].Value
		}
	} else {
		m := slotMemo{slot: -1}
		for i := range rows {
			m.read(&dst[first+i*stride], &rows[i].Value, p[0].Attr)
		}
	}
	for k, s := range p {
		if k > 0 && s.Attr != "" {
			m := slotMemo{slot: -1}
			for i := range rows {
				v := &dst[first+i*stride]
				m.read(v, v, s.Attr)
			}
		}
		if s.Index >= 1 {
			for i := range rows {
				v := &dst[first+i*stride]
				if e, ok := v.At(s.Index - 1); ok {
					*v = e
				} else {
					*v = nested.Null()
				}
			}
		}
	}
}

// slotMemo is one attribute step's memo: the last shape it resolved and the
// slot of the step's attribute in it, -1 when the shape lacks it. Only items
// have a shape, so the nil shape — every other kind — has no slot.
type slotMemo struct {
	shape *nested.Shape
	slot  int
}

// read sets *dst to attribute name of v, or to nested.Null() when v is no
// item or lacks the attribute; dst may be v.
func (m *slotMemo) read(dst, v *nested.Value, name string) {
	if sh := v.Shape(); sh != m.shape {
		m.shape, m.slot = sh, -1
		if sh != nil {
			m.slot = sh.Index(name)
		}
	}
	if m.slot < 0 {
		*dst = nested.Null()
	} else {
		*dst = v.FieldValue(m.slot)
	}
}
