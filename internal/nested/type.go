package nested

import (
	"slices"
	"strings"
	"unsafe"
)

// Type describes the recursive type τ(·) of a value (Tab. 4): constants have
// scalar types, items have an ordered attribute/type list, and collections
// have a homogeneous element type.
//
// An empty collection has Elem == nil ("unknown element type"); it is
// compatible with any collection of the same kind. KindNull is the type of
// nulls and the unknown type of values of conflicting kinds; both are
// compatible with anything.
type Type struct {
	Kind   Kind
	Fields []FieldType // for KindItem, and the items' attributes behind a conflict
	Elem   *Type       // for KindBag / KindSet
	// mixed marks a KindNull that Merge made of conflicting kinds, as against
	// one that has only met nulls: no later value makes it known again.
	mixed bool
}

// FieldType is the declared type of one item attribute.
type FieldType struct {
	Name string
	Type Type
}

// TypeOf returns the type of a value: v merged into the zero Type, so a
// collection's element type is the merge of all its elements.
func TypeOf(v Value) Type {
	var t Type
	t.Merge(v)
	return t
}

// Merge folds v into t in place, so that t describes every value merged into
// it since the zero Type: a null leaves a known type as it is; int and double
// widen to double; any other kind conflict makes t unknown (KindNull) for
// good; an item's attribute names are kept in first-seen order, through a
// conflict too, each with the merge of its values; a collection's element
// type merges all its elements. So only the order of the attribute names
// depends on the order of the values. Merge allocates only for an attribute
// or element type it meets first.
func (t *Type) Merge(v Value) { t.merge(&v) }

func (t *Type) merge(v *Value) {
	k := v.kind
	if k != t.Kind || t.mixed {
		switch {
		case k == KindNull || k == KindInvalid:
			if t.Kind == KindInvalid {
				t.Kind = k
			}
			return
		case t.Kind == KindInvalid || t.Kind == KindNull && !t.mixed:
			t.Kind = k
		case t.mixed:
		case (k == KindInt || k == KindDouble) && (t.Kind == KindInt || t.Kind == KindDouble):
			t.Kind = KindDouble
		default:
			t.Kind, t.Elem, t.mixed = KindNull, nil, true
		}
	}
	if k < KindItem { // the kinds from KindItem on hold values
		return
	}
	vals := v.vs()
	if k == KindItem {
		names, j := v.shape.names[:len(vals)], 0
		for i := range vals {
			// Items of one shape, and often of shapes alike, meet their
			// attributes in the same order, with names that share their bytes.
			if j >= len(t.Fields) || !sameString(t.Fields[j].Name, names[i]) {
				if j = slices.IndexFunc(t.Fields, func(f FieldType) bool { return f.Name == names[i] }); j < 0 {
					j = len(t.Fields)
					t.Fields = append(t.Fields, FieldType{Name: names[i]})
				}
			}
			// A constant of the kind the type has changes nothing: no call.
			if e, ft := &vals[i], &t.Fields[j].Type; e.kind != ft.Kind || e.kind >= KindItem {
				ft.merge(e)
			}
			j++
		}
	} else if k == t.Kind && len(vals) > 0 { // a collection that did not conflict
		if t.Elem == nil {
			t.Elem = new(Type)
		}
		for i := range vals {
			if e := &vals[i]; e.kind != t.Elem.Kind || e.kind >= KindItem {
				t.Elem.merge(e)
			}
		}
	}
}

// sameString is a == b, decided without reading the bytes when both share
// them, as the names of one shape's items do.
func sameString(a, b string) bool {
	return len(a) == len(b) && (unsafe.StringData(a) == unsafe.StringData(b) || a == b)
}

// Get returns the type of the named attribute of an item type.
func (t Type) Get(name string) (Type, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Type, true
		}
	}
	return Type{}, false
}

// Compatible reports whether two types are compatible in the sense of the
// union precondition τ(I1) = τ(I2): equal up to unknown (nil) collection
// element types, up to null and unknown types, which are compatible with
// anything, and up to the order of item attributes, which it matches by name.
func Compatible(a, b Type) bool {
	if a.Kind == KindNull || b.Kind == KindNull {
		return true
	}
	// Int and double unify to double, mirroring numeric widening in DISC
	// systems' schema merge.
	if (a.Kind == KindInt || a.Kind == KindDouble) && (b.Kind == KindInt || b.Kind == KindDouble) {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindItem:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for _, f := range a.Fields {
			if g, ok := b.Get(f.Name); !ok || !Compatible(f.Type, g) {
				return false
			}
		}
		return true
	case KindBag, KindSet:
		if a.Elem == nil || b.Elem == nil {
			return true
		}
		return Compatible(*a.Elem, *b.Elem)
	default:
		return true
	}
}

// String renders the type in the paper's notation: scalars by name, items as
// ⟨a:T, ...⟩ written as <a:T, ...>, bags as {{T}} and sets as {T}.
func (t Type) String() string {
	var sb strings.Builder
	t.writeString(&sb)
	return sb.String()
}

func (t Type) writeString(sb *strings.Builder) {
	switch t.Kind {
	case KindItem:
		sb.WriteByte('<')
		for i, f := range t.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteByte(':')
			f.Type.writeString(sb)
		}
		sb.WriteByte('>')
	case KindBag:
		sb.WriteString("{{")
		if t.Elem != nil {
			t.Elem.writeString(sb)
		} else {
			sb.WriteByte('?')
		}
		sb.WriteString("}}")
	case KindSet:
		sb.WriteByte('{')
		if t.Elem != nil {
			t.Elem.writeString(sb)
		} else {
			sb.WriteByte('?')
		}
		sb.WriteByte('}')
	default:
		sb.WriteString(t.Kind.String())
	}
}
