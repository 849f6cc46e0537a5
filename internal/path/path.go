// Package path implements access paths over the nested data model
// (Def. 4.3): given a context data item d, a path p = d.p', p' = x | x.p',
// x = a | a[i] navigates attributes and positional elements of nested
// collections. Positions are 1-based, following the paper.
//
// Paths serve two roles in structural provenance:
//
//   - data-level paths with concrete positions, e.g. user_mentions[1].id_str,
//     used in backtracing trees; and
//   - schema-level paths where positions are replaced by the [pos]
//     placeholder, e.g. user_mentions[pos], used in the lightweight operator
//     provenance (Sec. 5.1).
package path

import (
	"fmt"
	"strconv"
	"strings"

	"pebble/internal/nested"
)

// Index sentinels for Step.Index.
const (
	// NoIndex marks a pure attribute step (no positional access).
	NoIndex = -1
	// Pos marks the schema-level position placeholder [pos].
	Pos = -2
)

// Step is one component x of a path: an attribute access, a positional
// access, or both (a[i] accesses position i of attribute a's collection).
// A step with an empty Attr and Index >= 1 is a bare positional step [i],
// which occurs in backtracing trees under collection attributes.
type Step struct {
	Attr  string
	Index int // 1-based position, NoIndex, or Pos
}

// String renders the step as it appears inside a path.
func (s Step) String() string {
	switch {
	case s.Index == NoIndex:
		return s.Attr
	case s.Index == Pos:
		return s.Attr + "[pos]"
	default:
		return s.Attr + "[" + strconv.Itoa(s.Index) + "]"
	}
}

// Path is a sequence of steps relative to a context data item.
type Path []Step

// New builds a path of pure attribute steps, e.g. New("user", "id_str").
func New(attrs ...string) Path {
	p := make(Path, len(attrs))
	for i, a := range attrs {
		p[i] = Step{Attr: a, Index: NoIndex}
	}
	return p
}

// Parse parses the textual form "a.b[2].c", "user_mentions[pos]" or
// "tweets.[2].text". Attribute names may contain any character except
// '.', '[' and ']'.
func Parse(s string) (Path, error) {
	if s == "" {
		return nil, fmt.Errorf("path: empty path")
	}
	var p Path
	for _, part := range strings.Split(s, ".") {
		if part == "" {
			return nil, fmt.Errorf("path: empty step in %q", s)
		}
		step, err := parseStep(part, s)
		if err != nil {
			return nil, err
		}
		p = append(p, step)
	}
	return p, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

func parseStep(part, whole string) (Step, error) {
	open := strings.IndexByte(part, '[')
	if open < 0 {
		if strings.ContainsAny(part, "]") {
			return Step{}, fmt.Errorf("path: stray ']' in step %q of %q", part, whole)
		}
		return Step{Attr: part, Index: NoIndex}, nil
	}
	if !strings.HasSuffix(part, "]") {
		return Step{}, fmt.Errorf("path: unterminated index in step %q of %q", part, whole)
	}
	attr := part[:open]
	idxStr := part[open+1 : len(part)-1]
	if idxStr == "pos" {
		return Step{Attr: attr, Index: Pos}, nil
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 1 {
		return Step{}, fmt.Errorf("path: bad index %q in step %q of %q (want 1-based int or pos)", idxStr, part, whole)
	}
	return Step{Attr: attr, Index: idx}, nil
}

// String renders the path in its textual form.
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.String()
	}
	return strings.Join(parts, ".")
}

// Equal reports whether two paths are step-wise identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Append returns a new path with the steps of q appended.
func (p Path) Append(q ...Step) Path {
	out := make(Path, 0, len(p)+len(q))
	out = append(out, p...)
	return append(out, q...)
}

// HasPrefix reports whether p starts with prefix. A [pos] placeholder in the
// prefix matches any concrete position in p (and vice versa) so that
// schema-level manipulation paths match data-level tree paths.
func (p Path) HasPrefix(prefix Path) bool {
	if len(prefix) > len(p) {
		return false
	}
	for i, ps := range prefix {
		if !stepsMatch(p[i], ps) {
			return false
		}
	}
	return true
}

func stepsMatch(a, b Step) bool {
	if a.Attr != b.Attr {
		return false
	}
	if a.Index == b.Index {
		return true
	}
	// [pos] matches any concrete position but not "no index".
	if a.Index == Pos && b.Index >= 1 {
		return true
	}
	if b.Index == Pos && a.Index >= 1 {
		return true
	}
	return false
}

// ReplacePrefix returns p with the leading old steps replaced by new. It
// reports false when p does not start with old.
func (p Path) ReplacePrefix(old, new Path) (Path, bool) {
	if !p.HasPrefix(old) {
		return nil, false
	}
	out := make(Path, 0, len(new)+len(p)-len(old))
	out = append(out, new...)
	out = append(out, p[len(old):]...)
	return out, true
}

// SchemaLevel returns the path with every concrete position replaced by the
// [pos] placeholder, i.e. the representation recorded during lightweight
// capture.
func (p Path) SchemaLevel() Path {
	out := make(Path, len(p))
	for i, s := range p {
		if s.Index >= 1 {
			s.Index = Pos
		}
		out[i] = s
	}
	return out
}

// HasPlaceholder reports whether any step carries the [pos] placeholder.
func (p Path) HasPlaceholder() bool {
	for _, s := range p {
		if s.Index == Pos {
			return true
		}
	}
	return false
}

// Eval evaluates the path in the context of item d and returns the value it
// points to. Steps with NoIndex over a collection-valued attribute return
// the collection itself; positional steps select the 1-based element.
func (p Path) Eval(d nested.Value) (nested.Value, bool) {
	cur := d
	for _, s := range p {
		if s.Attr != "" {
			if cur.Kind() != nested.KindItem {
				return nested.Value{}, false
			}
			v, ok := cur.Get(s.Attr)
			if !ok {
				return nested.Value{}, false
			}
			cur = v
		}
		switch {
		case s.Index == NoIndex:
			// attribute access only
		case s.Index == Pos:
			return nested.Value{}, false // placeholders are not evaluable
		default:
			v, ok := cur.At(s.Index - 1)
			if !ok {
				return nested.Value{}, false
			}
			cur = v
		}
	}
	return cur, true
}

// Set is an ordered, duplicate-free collection of paths keyed by their
// textual form. The zero value is ready to use.
type Set struct {
	keys  map[string]int
	paths []Path
}

// NewSet returns a Set containing the given paths.
func NewSet(paths ...Path) *Set {
	s := &Set{}
	for _, p := range paths {
		s.Add(p)
	}
	return s
}

// Add inserts the path if not already present and reports whether it was new.
func (s *Set) Add(p Path) bool {
	if s.keys == nil {
		s.keys = make(map[string]int)
	}
	k := p.String()
	if _, ok := s.keys[k]; ok {
		return false
	}
	s.keys[k] = len(s.paths)
	s.paths = append(s.paths, p)
	return true
}

// Contains reports whether the path is in the set.
func (s *Set) Contains(p Path) bool {
	if s == nil || s.keys == nil {
		return false
	}
	_, ok := s.keys[p.String()]
	return ok
}

// Len returns the number of paths.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.paths)
}

// Paths returns the paths in insertion order. The slice must not be modified.
func (s *Set) Paths() []Path {
	if s == nil {
		return nil
	}
	return s.paths
}

// Strings returns the textual forms in insertion order.
func (s *Set) Strings() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.paths))
	for i, p := range s.paths {
		out[i] = p.String()
	}
	return out
}

// Enumerate lists all paths that exist in context d (the path set PS_d of
// Def. 4.3), using concrete 1-based positions for collection elements.
// maxDepth <= 0 means unlimited.
func Enumerate(d nested.Value, maxDepth int) []Path {
	if maxDepth <= 0 {
		maxDepth = 1 << 30
	}
	var out []Path
	enumerate(d, nil, maxDepth, &out)
	return out
}

func enumerate(v nested.Value, prefix Path, depth int, out *[]Path) {
	if depth == 0 {
		return
	}
	switch v.Kind() {
	case nested.KindItem:
		for i := 0; i < v.NumFields(); i++ {
			p := prefix.Append(Step{Attr: v.FieldName(i), Index: NoIndex})
			*out = append(*out, p)
			enumerate(v.FieldValue(i), p, depth-1, out)
		}
	case nested.KindBag, nested.KindSet:
		for i, e := range v.Elems() {
			var p Path
			if len(prefix) == 0 {
				p = Path{Step{Index: i + 1}}
			} else {
				p = prefix.Clone()
				last := &p[len(p)-1]
				if last.Index == NoIndex {
					last.Index = i + 1
				} else {
					p = p.Append(Step{Index: i + 1})
				}
			}
			*out = append(*out, p)
			enumerate(e, p, depth-1, out)
		}
	}
}

// Redact returns a copy of d with the value at every given path replaced by
// the placeholder. Paths with the [pos] placeholder redact every element;
// paths that do not exist in d are ignored. Combined with the contributing
// cells of a provenance trace this yields attribute-precise masking: redact
// exactly what a leaked workload exposed, nothing more.
func Redact(d nested.Value, paths []Path, placeholder nested.Value) nested.Value {
	out := d
	for _, p := range paths {
		out = redactOne(out, p, placeholder)
	}
	return out
}

func redactOne(v nested.Value, p Path, placeholder nested.Value) nested.Value {
	if len(p) == 0 {
		return placeholder
	}
	s := p[0]
	cur := v
	if s.Attr != "" {
		if cur.Kind() != nested.KindItem {
			return v
		}
		attrVal, ok := cur.Get(s.Attr)
		if !ok {
			return v
		}
		var newVal nested.Value
		switch {
		case s.Index == NoIndex:
			if len(p) == 1 {
				newVal = placeholder
			} else {
				newVal = redactOne(attrVal, p[1:], placeholder)
			}
		default:
			newVal = redactPositions(attrVal, s.Index, p[1:], placeholder)
		}
		return cur.WithField(s.Attr, newVal)
	}
	// Bare positional step.
	return redactPositions(cur, s.Index, p[1:], placeholder)
}

// redactPositions redacts within a collection: idx >= 1 targets one element,
// Pos targets all.
func redactPositions(col nested.Value, idx int, rest Path, placeholder nested.Value) nested.Value {
	if !col.Kind().IsCollection() {
		return col
	}
	elems := make([]nested.Value, len(col.Elems()))
	copy(elems, col.Elems())
	apply := func(i int) {
		if len(rest) == 0 {
			elems[i] = placeholder
		} else {
			elems[i] = redactOne(elems[i], rest, placeholder)
		}
	}
	if idx == Pos {
		for i := range elems {
			apply(i)
		}
	} else if idx >= 1 && idx <= len(elems) {
		apply(idx - 1)
	}
	if col.Kind() == nested.KindSet {
		return nested.Set(elems...)
	}
	return nested.Bag(elems...)
}
