package nested

import (
	"fmt"
	"strings"
)

// Type describes the recursive type τ(·) of a value (Tab. 4): constants have
// scalar types, items have an ordered attribute/type list, and collections
// have a homogeneous element type.
//
// An empty collection has Elem == nil ("unknown element type"); it is
// compatible with any collection of the same kind.
type Type struct {
	Kind   Kind
	Fields []FieldType // for KindItem
	Elem   *Type       // for KindBag / KindSet
}

// FieldType is the declared type of one item attribute.
type FieldType struct {
	Name string
	Type Type
}

// TypeOf infers the type of a value. For collections the element type is the
// type of the first element; the data model requires homogeneous collections
// (CheckHomogeneous verifies this).
func TypeOf(v Value) Type {
	switch v.kind {
	case KindItem:
		vals := v.vs()
		fields := make([]FieldType, len(vals))
		for i := range vals {
			fields[i] = FieldType{Name: v.shape.names[i], Type: TypeOf(vals[i])}
		}
		return Type{Kind: KindItem, Fields: fields}
	case KindBag, KindSet:
		t := Type{Kind: v.kind}
		if vals := v.vs(); len(vals) > 0 {
			elem := TypeOf(vals[0])
			t.Elem = &elem
		}
		return t
	default:
		return Type{Kind: v.kind}
	}
}

// Type returns the inferred type of the value.
func (v Value) Type() Type { return TypeOf(v) }

// Get returns the type of the named attribute of an item type.
func (t Type) Get(name string) (Type, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Type, true
		}
	}
	return Type{}, false
}

// EqualType reports deep equality of two types. A nil collection element
// type only equals another nil element type; use Compatible for the laxer
// check used by union.
func EqualType(a, b Type) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindItem:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Name != b.Fields[i].Name || !EqualType(a.Fields[i].Type, b.Fields[i].Type) {
				return false
			}
		}
		return true
	case KindBag, KindSet:
		if (a.Elem == nil) != (b.Elem == nil) {
			return false
		}
		if a.Elem == nil {
			return true
		}
		return EqualType(*a.Elem, *b.Elem)
	default:
		return true
	}
}

// Compatible reports whether two types are compatible in the sense of the
// union precondition τ(I1) = τ(I2): equal up to unknown (nil) collection
// element types and up to null values, which are compatible with anything.
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
		for i := range a.Fields {
			if a.Fields[i].Name != b.Fields[i].Name || !Compatible(a.Fields[i].Type, b.Fields[i].Type) {
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

// CheckHomogeneous verifies the data-model restriction that all elements of
// every (transitively) contained collection have compatible types.
func CheckHomogeneous(v Value) error {
	switch v.kind {
	case KindItem:
		for i, e := range v.vs() {
			if err := CheckHomogeneous(e); err != nil {
				return fmt.Errorf("attribute %s: %w", v.shape.names[i], err)
			}
		}
	case KindBag, KindSet:
		vals := v.vs()
		if len(vals) == 0 {
			return nil
		}
		first := TypeOf(vals[0])
		for i, e := range vals {
			if !Compatible(first, TypeOf(e)) {
				return fmt.Errorf("nested: heterogeneous collection: element %d has type %s, want %s",
					i, TypeOf(e), first)
			}
			if err := CheckHomogeneous(e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	}
	return nil
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
