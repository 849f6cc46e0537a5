// Package nested implements the nested data model of Diestelkämper &
// Herschel (EDBT 2020), Sec. 4.1: datasets are ordered collections of typed
// nested data items built from constants, items (ordered attribute/value
// lists), bags (ordered lists with duplicates), and sets (ordered lists
// without duplicates).
//
// A Value is a small variant record rather than an interface hierarchy so
// that constants do not allocate and values copy cheaply. Values are treated
// as immutable once shared: operators build new values instead of mutating
// inputs. Compare values with Equal, never with ==, which compares where
// their strings and values are stored, not what they hold.
package nested

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"
)

// Kind enumerates the building blocks of the data model (Tab. 4 in the
// paper): constants (Int, Double, String, Bool), data items, bags, and sets.
// Null represents an absent value (e.g. the undefined side of a union).
type Kind uint8

// The kinds of a Value.
const (
	KindInvalid Kind = iota
	KindNull
	KindInt
	KindDouble
	KindString
	KindBool
	KindItem
	KindBag
	KindSet
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindItem:
		return "item"
	case KindBag:
		return "bag"
	case KindSet:
		return "set"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsConstant reports whether the kind is one of the constant kinds.
func (k Kind) IsConstant() bool {
	switch k {
	case KindInt, KindDouble, KindString, KindBool:
		return true
	}
	return false
}

// IsCollection reports whether the kind is a bag or a set.
func (k Kind) IsCollection() bool { return k == KindBag || k == KindSet }

// Field is one attribute/value pair of a data item: the argument type of the
// convenience constructors Item and NewItem and the element type of Fields.
// Items do not store fields; they store a Shape and one value per attribute.
type Field struct {
	Name  string
	Value Value
}

// Shape is the ordered attribute-name table of a data item. Attribute names
// are unique within an item and their order is significant (Def. 4.1), so two
// shapes are equal when they list the same names in the same order. A shape
// is immutable and shared: every producer (the JSON reader, the generators,
// each engine operator) computes the shape of its items once and hands the
// same pointer to all of them, and WithField / WithoutField derive theirs
// once per parent shape. Pointer equality is only ever a fast path; shapes
// live as long as the values, or the parent shape, that point to them.
type Shape struct {
	names []string
	// toggled caches the shapes WithField and WithoutField derive from this
	// one (see toggle), so that rows derived alike share one shape.
	toggled atomic.Pointer[[]toggledShape]
}

// toggledShape is one entry of a shape's derivation cache: the shape with
// name added, or removed if the parent has it.
type toggledShape struct {
	name  string
	shape *Shape
}

// maxToggled bounds a shape's derivation cache; past it a derivation builds
// a fresh shape on every call.
const maxToggled = 8

// toggle returns the shape with name appended if s lacks it, or with every
// attribute called name removed if s has it: the one shape WithField or
// WithoutField derives from s for name, so name alone keys the cache. The
// cache is copied on write: readers load it without a lock, and a writer that
// loses a race rereads it and retries.
func (s *Shape) toggle(name string) *Shape {
	cached := s.toggled.Load()
	if d := findToggled(cached, name); d != nil {
		return d
	}
	var d *Shape
	if s.Index(name) < 0 {
		d = &Shape{names: append(s.Names(), name)}
	} else {
		d = &Shape{names: slices.DeleteFunc(s.Names(), func(n string) bool { return n == name })}
	}
	for cached == nil || len(*cached) < maxToggled {
		var next []toggledShape
		if cached != nil {
			next = append(next, *cached...)
		}
		next = append(next, toggledShape{name: name, shape: d})
		if s.toggled.CompareAndSwap(cached, &next) {
			return d
		}
		cached = s.toggled.Load()
		if won := findToggled(cached, name); won != nil {
			return won
		}
	}
	return d
}

// findToggled returns the cached shape for name, or nil.
func findToggled(cached *[]toggledShape, name string) *Shape {
	if cached == nil {
		return nil
	}
	for _, t := range *cached {
		if t.name == name {
			return t.shape
		}
	}
	return nil
}

// noAttrs is the shape of the item without attributes.
var noAttrs = &Shape{names: []string{}}

// NewShape returns the shape with the given attribute names, in order.
// Duplicate names are not checked, as in Item.
func NewShape(names ...string) *Shape {
	if len(names) == 0 {
		return noAttrs
	}
	return &Shape{names: slices.Clone(names)}
}

// Len returns the number of attributes.
func (s *Shape) Len() int { return len(s.names) }

// Names returns a copy of the attribute names, in order.
func (s *Shape) Names() []string { return slices.Clone(s.names) }

// Index returns the position of the named attribute, or -1.
func (s *Shape) Index(name string) int { return slices.Index(s.names, name) }

// Equal reports whether both shapes list the same names in the same order.
func (s *Shape) Equal(o *Shape) bool { return s == o || slices.Equal(s.names, o.names) }

// Item returns the data item of this shape with vals as its attribute
// values, one per name. The item keeps vals; the caller must not modify it
// afterwards.
func (s *Shape) Item(vals ...Value) Value {
	if len(vals) != len(s.names) {
		panic(fmt.Sprintf("nested: %d values for a shape of %d attributes", len(vals), len(s.names)))
	}
	return seq(KindItem, s, vals)
}

// Value is one nested value: a constant, a data item, a bag, or a set.
// The zero Value has KindInvalid; use Null() for an explicit null.
//
// num holds an int, the bits of a double or a bool, or a count: the bytes
// of a string, or the values of an item (named by shape, which only items
// have) or of a collection. ref points to the first of those bytes or
// values and is nil when there are none; no capacity is kept. A value is
// only ever one of these, so they share two words where a string and a
// slice header of their own took five: 32 bytes, which the compiler keeps
// in four registers and every operator moves at half the cost.
//
// ref is written only from a Go string or slice (StringVal and seq) and read
// back only as one (str and vs), through the unsafe.String, StringData,
// Slice and SliceData conversions; it is never arithmetic.
type Value struct {
	ref   unsafe.Pointer
	num   uint64
	shape *Shape
	kind  Kind
}

// seq returns the item (shape non-nil) or collection of kind with vals as
// its values. It keeps vals; an empty vals leaves ref nil.
func seq(kind Kind, shape *Shape, vals []Value) Value {
	v := Value{kind: kind, shape: shape}
	if len(vals) > 0 {
		v.ref, v.num = unsafe.Pointer(unsafe.SliceData(vals)), uint64(len(vals))
	}
	return v
}

// vs returns the attribute values of an item or the elements of a bag or
// set, and nil for any other kind. The slice's capacity is its length, so
// an append to it copies.
func (v *Value) vs() []Value {
	if v.kind < KindItem { // the kinds from KindItem on hold values
		return nil
	}
	return unsafe.Slice((*Value)(v.ref), v.num)
}

// str returns the bytes of a string constant, and "" for any other kind.
func (v *Value) str() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ref), v.num)
}

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Int returns an integer constant.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Double returns a floating-point constant.
func Double(v float64) Value { return Value{kind: KindDouble, num: math.Float64bits(v)} }

// String returns a string constant.
func StringVal(v string) Value {
	if len(v) == 0 {
		return Value{kind: KindString} // StringData of "" may or may not be nil
	}
	return Value{kind: KindString, ref: unsafe.Pointer(unsafe.StringData(v)), num: uint64(len(v))}
}

// Bool returns a boolean constant.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Item returns a data item with the given fields, in order. Duplicate
// attribute names are not checked here; use NewItem for checked construction.
// It builds a shape of its own: code that makes many items of one schema
// builds the Shape once and calls its Item method.
func Item(fields ...Field) Value {
	if len(fields) == 0 {
		return noAttrs.Item()
	}
	names, vals := make([]string, len(fields)), make([]Value, len(fields))
	for i := range fields {
		names[i], vals[i] = fields[i].Name, fields[i].Value
	}
	return (&Shape{names: names}).Item(vals...)
}

// NewItem returns a data item and verifies that attribute names are unique.
func NewItem(fields ...Field) (Value, error) {
	seen := make(map[string]struct{}, len(fields))
	for _, f := range fields {
		if _, dup := seen[f.Name]; dup {
			return Value{}, fmt.Errorf("nested: duplicate attribute %q in item", f.Name)
		}
		seen[f.Name] = struct{}{}
	}
	return Item(fields...), nil
}

// F is shorthand for constructing a Field.
func F(name string, v Value) Field { return Field{Name: name, Value: v} }

// Bag returns an ordered collection that may contain duplicates.
func Bag(elems ...Value) Value {
	return seq(KindBag, nil, elems)
}

// smallSet is the element count up to which Set compares every pair; above
// it a hash table finds the candidates.
const smallSet = 8

// Set returns an ordered collection without duplicates. Duplicates in elems
// are dropped, keeping the first occurrence.
func Set(elems ...Value) Value {
	out := make([]Value, 0, len(elems))
	if len(elems) <= smallSet {
		for i := range elems {
			if !contains(out, &elems[i]) {
				out = append(out, elems[i])
			}
		}
		return seq(KindSet, nil, out)
	}
	newest := make(map[uint64]int32, len(elems)) // hash → 1 + position in out of the newest element with it
	older := make([]int32, 0, len(elems))        // per element of out: the one before it with the same hash, likewise
	for i := range elems {
		h := elems[i].hash(fnvOffset)
		j := newest[h]
		for j > 0 && !equal(&out[j-1], &elems[i]) {
			j = older[j-1]
		}
		if j == 0 {
			older = append(older, newest[h])
			out = append(out, elems[i])
			newest[h] = int32(len(out))
		}
	}
	return seq(KindSet, nil, out)
}

// contains reports whether one of vals equals e.
func contains(vals []Value, e *Value) bool {
	for i := range vals {
		if equal(&vals[i], e) {
			return true
		}
	}
	return false
}

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null or invalid.
func (v Value) IsNull() bool { return v.kind == KindNull || v.kind == KindInvalid }

// AsInt returns the integer constant and whether the value is an int.
func (v Value) AsInt() (int64, bool) { return int64(v.num), v.kind == KindInt }

// AsDouble returns the numeric value as float64 for int and double kinds.
func (v Value) AsDouble() (float64, bool) {
	switch v.kind {
	case KindDouble:
		return math.Float64frombits(v.num), true
	case KindInt:
		return float64(int64(v.num)), true
	}
	return 0, false
}

// AsString returns the string constant and whether the value is a string.
func (v Value) AsString() (string, bool) { return v.str(), v.kind == KindString }

// AsBool returns the boolean constant and whether the value is a bool.
func (v Value) AsBool() (bool, bool) { return v.num != 0, v.kind == KindBool }

// Shape returns the attribute-name table of an item, or nil otherwise.
func (v Value) Shape() *Shape { return v.shape }

// NumFields returns the number of attributes of an item, or 0 otherwise.
func (v Value) NumFields() int { return len(v.FieldValues()) }

// FieldName returns the name of the i-th attribute of an item.
func (v Value) FieldName(i int) string { return v.shape.names[i] }

// FieldValue returns the value of the i-th attribute of an item.
func (v Value) FieldValue(i int) Value { return v.FieldValues()[i] }

// FieldValues returns the attribute values of an item, in the order of its
// shape, or nil for any other kind. The returned slice must not be modified.
func (v Value) FieldValues() []Value {
	if v.kind != KindItem {
		return nil
	}
	return v.vs()
}

// Fields returns the item's attributes as name/value pairs. It allocates the
// slice on every call; loops over rows use NumFields, FieldName and
// FieldValue.
func (v Value) Fields() []Field {
	vals := v.FieldValues()
	fields := make([]Field, len(vals))
	for i := range fields {
		fields[i] = Field{Name: v.shape.names[i], Value: vals[i]}
	}
	return fields
}

// Get returns the value of the named attribute of an item.
func (v Value) Get(name string) (Value, bool) {
	if v.kind == KindItem {
		if i := v.shape.Index(name); i >= 0 {
			return v.vs()[i], true
		}
	}
	return Value{}, false
}

// AttrNames returns a copy of the attribute names of an item, in order.
func (v Value) AttrNames() []string {
	if v.kind != KindItem {
		return []string{}
	}
	return v.shape.Names()
}

// Len returns the number of elements of a bag or set, or 0 otherwise.
func (v Value) Len() int { return len(v.Elems()) }

// At returns the element at position i (0-based) of a bag or set.
func (v Value) At(i int) (Value, bool) {
	if elems := v.Elems(); i >= 0 && i < len(elems) {
		return elems[i], true
	}
	return Value{}, false
}

// Elems returns the collection's elements, or nil for any other kind. The
// returned slice must not be modified.
func (v Value) Elems() []Value {
	if !v.kind.IsCollection() {
		return nil
	}
	return v.vs()
}

// WithField returns a copy of the item with the named attribute set to val,
// appending the attribute if absent. Replacing keeps the item's shape;
// appending derives the new shape once per (shape, name), so the items
// derived from rows of one shape share one.
func (v Value) WithField(name string, val Value) Value {
	if v.kind != KindItem {
		v = noAttrs.Item()
	}
	from, shape, i := v.vs(), v.shape, v.shape.Index(name)
	if i < 0 {
		i = len(from)
		shape = shape.toggle(name)
	}
	vals := make([]Value, shape.Len())
	copy(vals, from)
	vals[i] = val
	return shape.Item(vals...)
}

// WithoutField returns a copy of the item with the named attribute removed;
// any other value yields the item without attributes. Like WithField, it
// derives the new shape once per (shape, name); without the attribute the
// copy keeps the item's shape.
func (v Value) WithoutField(name string) Value {
	if v.kind != KindItem {
		return noAttrs.Item()
	}
	shape := v.shape
	if shape.Index(name) >= 0 {
		shape = shape.toggle(name)
	}
	vals, from := make([]Value, 0, shape.Len()), v.vs()
	for i, n := range v.shape.names {
		if n != name {
			vals = append(vals, from[i])
		}
	}
	return shape.Item(vals...)
}

// Append returns a copy of the collection with e appended. For sets the
// element is dropped when already present. Any other value is returned
// unchanged.
func (v Value) Append(e Value) Value {
	elems := v.Elems()
	if !v.kind.IsCollection() || v.kind == KindSet && contains(elems, &e) {
		return v
	}
	vals := make([]Value, len(elems)+1)
	copy(vals, elems)
	vals[len(elems)] = e
	return seq(v.kind, nil, vals)
}

// Clone returns a deep copy of the value. Strings and shapes are immutable
// and stay shared.
func (v Value) Clone() Value {
	from := v.vs()
	if len(from) == 0 {
		return v
	}
	vals := make([]Value, len(from))
	for i := range vals {
		vals[i] = from[i].Clone()
	}
	return seq(v.kind, v.shape, vals)
}

// Equal reports deep structural equality. Items are equal when they have the
// same attributes with equal values in the same order; collections when they
// have equal elements in the same order.
func Equal(a, b Value) bool { return equal(&a, &b) }

func equal(a, b *Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull, KindInvalid:
		return true
	case KindInt, KindBool:
		return a.num == b.num
	case KindDouble:
		af, bf := math.Float64frombits(a.num), math.Float64frombits(b.num)
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	case KindString:
		return a.str() == b.str()
	case KindItem:
		if !a.shape.Equal(b.shape) {
			return false
		}
	}
	if a.num != b.num {
		return false
	}
	as, bs := a.vs(), b.vs()
	for i := range as {
		if !equal(&as[i], &bs[i]) {
			return false
		}
	}
	return true
}

// Compare orders values totally: first by kind, then by content. It is used
// for deterministic sorting of groups and set canonicalisation. NaN sorts
// before every other double and equal to itself, as Equal has it.
func Compare(a, b Value) int { return compare(&a, &b) }

// CompareWidened is Compare with int/double pairs widened, so that
// Int(1) == Double(1.0); the doubles order as Compare orders them. It is the
// one numeric comparison of engine predicates, aggregates and sorts and of
// tree-pattern bounds.
func CompareWidened(a, b Value) int {
	if a.Kind() != b.Kind() {
		af, aok := a.AsDouble()
		bf, bok := b.AsDouble()
		if aok && bok {
			return Compare(Double(af), Double(bf))
		}
	}
	return Compare(a, b)
}

func compare(a, b *Value) int {
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	switch a.kind {
	case KindInt, KindBool:
		return cmp.Compare(int64(a.num), int64(b.num))
	case KindDouble:
		af, bf := math.Float64frombits(a.num), math.Float64frombits(b.num)
		switch {
		case af < bf, math.IsNaN(af) && !math.IsNaN(bf):
			return -1
		case af > bf, math.IsNaN(bf) && !math.IsNaN(af):
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindItem, KindBag, KindSet:
		named := a.kind == KindItem && a.shape != b.shape // under one shape no name differs
		as, bs := a.vs(), b.vs()
		for i := 0; i < len(as) && i < len(bs); i++ {
			if named {
				if c := strings.Compare(a.shape.names[i], b.shape.names[i]); c != 0 {
					return c
				}
			}
			if c := compare(&as[i], &bs[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(as), len(bs))
	}
	return 0
}

// SortElems returns a copy of the collection with elements sorted by Compare.
// Non-collections are returned unchanged.
func (v Value) SortElems() Value {
	if !v.kind.IsCollection() {
		return v
	}
	elems := slices.Clone(v.vs())
	sort.Slice(elems, func(i, j int) bool { return compare(&elems[i], &elems[j]) < 0 })
	return seq(v.kind, nil, elems)
}

// String renders the value in a compact JSON-like syntax with items as
// {a: v, ...} and collections as [v, ...].
func (v Value) String() string {
	return string(v.appendString(nil, math.MaxInt))
}

// AppendString appends the String rendering of v to dst, as far as a caller
// that keeps its first limit bytes needs it: rendering stops once more than
// limit bytes are written. What was appended is String() itself when it is
// at most limit bytes long; otherwise it is longer than limit, its first
// limit bytes are those of String(), and no rune that starts among them is
// cut short.
func (v Value) AppendString(dst []byte, limit int) []byte {
	return v.appendString(dst, len(dst)+limit)
}

// appendString renders v until dst is longer than end.
func (v *Value) appendString(dst []byte, end int) []byte {
	switch v.kind {
	case KindNull, KindInvalid:
		return append(dst, "null"...)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.num), 10)
	case KindDouble:
		return strconv.AppendFloat(dst, math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		s := v.str()
		if room := max(end-len(dst), 0); len(s)-utf8.UTFMax > room {
			// Every input byte renders as at least one, so the bytes up to
			// end come from s[:room]; the cut moves on to where the last
			// rune starting in there ends.
			cut := room
			for cut < room+utf8.UTFMax-1 && !utf8.RuneStart(s[cut]) {
				cut++
			}
			s = s[:cut]
		}
		return strconv.AppendQuote(dst, s)
	case KindBool:
		return strconv.AppendBool(dst, v.num != 0)
	case KindItem, KindBag, KindSet:
		open, shut := byte('['), byte(']')
		if v.kind == KindItem {
			open, shut = '{', '}'
		}
		dst = append(dst, open)
		vals := v.vs()
		for i := range vals {
			if len(dst) > end {
				return dst
			}
			if i > 0 {
				dst = append(dst, ", "...)
			}
			if v.kind == KindItem {
				dst = append(append(dst, v.shape.names[i]...), ": "...)
			}
			dst = vals[i].appendString(dst, end)
		}
		return append(dst, shut)
	}
	return dst
}
