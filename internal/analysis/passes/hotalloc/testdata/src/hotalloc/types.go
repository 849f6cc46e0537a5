package hotalloc

// Row and keyedRow mirror the engine's hot row shapes; their names are in the
// analyzer's default -hottypes list, so ranging over []Row marks a hot loop.
type Row struct {
	ID    int64
	Value int
	Item  Value
}

// Value mirrors nested.Value: Fields and AttrNames build a slice per call,
// the index accessors do not.
type Value struct{ names []string }

func (v Value) Fields() []string       { return append([]string(nil), v.names...) }
func (v Value) AttrNames() []string    { return append([]string(nil), v.names...) }
func (v Value) NumFields() int         { return len(v.names) }
func (v Value) FieldName(i int) string { return v.names[i] }

type keyedRow struct {
	id int64
}

type boxer interface{ box() }

type val int

func (val) box() {}
