package nested

// TypeOf returns the type of a value: v merged into the zero Type, so a
// collection's element type is the merge of all its elements.
func TypeOf(v Value) Type {
	var t Type
	t.Merge(v)
	return t
}
