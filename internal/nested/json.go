package nested

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"pebble/internal/jsonenc"
)

// ParseJSON decodes one JSON document into a Value, preserving the attribute
// order of objects (which encoding/json's map decoding would lose). Objects
// become items, arrays become bags, numbers become ints when they have no
// fraction or exponent and fit int64, and doubles otherwise.
func ParseJSON(data []byte) (Value, error) {
	return new(reader).document(data)
}

// ParseJSONLines decodes newline-delimited JSON (one top-level item per
// line), the format produced by EncodeJSONLines and by cmd/datagen. Lines
// are trimmed of Unicode white space and blank lines are skipped. One reader
// parses all lines, so an upload's rows share their shapes: one Shape per
// attribute sequence and place in the document, nested items included.
func ParseJSONLines(data []byte) ([]Value, error) {
	var r reader
	out := make([]Value, 0, bytes.Count(data, []byte{'\n'})+1)
	for lineNo := 1; len(data) > 0; lineNo++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		r.rest = len(data)
		v, err := r.document(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// maxDepth is how deep arrays and objects may nest, encoding/json's own
// limit: deeper input is an error, not a stack the runtime gives up on.
const maxDepth = 10000

// reader is the JSON reader behind ParseJSON and ParseJSONLines: one
// recursive descent over the input bytes that builds Values directly. It
// accepts what encoding/json accepts (RFC 8259, no extensions) and repairs
// strings as encoding/json does. It allocates per document and per chunk,
// not per value: the value slices of items and bags are carved from shared
// chunks, and the string values of a document are cut from one string made
// when it closes. That string is a copy, so a parsed value never pins the
// input buffer.
type reader struct {
	data []byte
	pos  int
	rest int // input bytes behind data, which later documents will parse

	doc   shapeNode             // its inner trie holds the shapes of top-level items
	kids  map[kidKey]*shapeNode // every trie edge the predictions below did not cover
	vals  []Value               // values of every item and bag still open, innermost last
	chunk []Value               // what is left of the chunk value slices are carved from
	buf   []byte                // scratch for strings that need unescaping or repair

	// The string values of the open document: their bytes back to back in
	// text, the end of the i-th at ends[i-1]. Until the document closes a
	// string value is a placeholder with no bytes and that i as its length;
	// patch points to every placeholder that has reached its final place in
	// a carved slice.
	text  []byte
	ends  []int
	patch []*Value
}

// shapeNode is a node of the reader's shape tries. The path from a trie's
// root to a node spells an attribute sequence; an item that closes at the
// node gets the node's Shape, built once. Every place an item can stand in
// has a trie of its own (the document's, and per attribute the one for the
// items in its value, through any bags), so that what came at a place last
// predicts what comes there next and the common step is one string compare.
type shapeNode struct {
	name  string     // the attribute this node appends to its parent's sequence
	plain bool       // name holds no byte a JSON string must escape
	up    *shapeNode // nil at a trie's root
	next  *shapeNode // the child taken last
	inner *shapeNode // root of the trie for items inside this attribute's value
	shape *Shape
}

type kidKey struct {
	of   *shapeNode
	name string
}

// child steps from n along the attribute key.
func (r *reader) child(n *shapeNode, key []byte) *shapeNode {
	if c := n.next; c != nil && c.name == string(key) {
		return c
	}
	c, ok := r.kids[kidKey{n, string(key)}]
	if !ok {
		if r.kids == nil {
			r.kids = make(map[kidKey]*shapeNode)
		}
		c = &shapeNode{name: string(key), plain: !bytes.ContainsFunc(key, mustEscape), up: n}
		r.kids[kidKey{n, c.name}] = c
	}
	n.next = c
	return c
}

// mustEscape reports whether a JSON string can hold r only as an escape. A
// name that comes out of str holds no invalid UTF-8, so runes suffice.
func mustEscape(r rune) bool { return r < ' ' || r == '"' || r == '\\' }

// sealed returns the shape of the items that close at n.
func (n *shapeNode) sealed() *Shape {
	if n.shape == nil {
		k := 0
		for c := n; c.up != nil; c = c.up {
			k++
		}
		n.shape = noAttrs
		if k > 0 {
			names := make([]string, k) // the shape's own, so not cloned again
			for c := n; c.up != nil; c = c.up {
				k--
				names[k] = c.name
			}
			n.shape = &Shape{names: names}
		}
	}
	return n.shape
}

// document parses data as exactly one JSON value.
func (r *reader) document(data []byte) (Value, error) {
	r.data, r.pos = data, 0 // the stack is empty again after every document that parsed
	r.text, r.ends, r.patch = r.text[:0], r.ends[:0], r.patch[:0]
	v, err := r.value(0, &r.doc)
	if err != nil {
		return Value{}, err
	}
	if r.next(); r.pos < len(r.data) {
		return Value{}, r.syntax(r.pos, "after top-level value")
	}
	if len(r.ends) > 0 {
		text := string(r.text) // the document's one string copy
		if placeholder(&v) {
			r.fill(&v, text)
		}
		for _, p := range r.patch {
			r.fill(p, text)
		}
	}
	return v, nil
}

// placeholder reports whether v stands for a string value of the open
// document: a string value with a length but no bytes. The empty string
// never is one.
func placeholder(v *Value) bool { return v.kind == KindString && v.ref == nil && v.num != 0 }

// fill turns the placeholder v into the string it stands for, cut from text.
func (r *reader) fill(v *Value, text string) {
	from, i := 0, int(v.num)
	if i > 1 {
		from = r.ends[i-2]
	}
	*v = StringVal(text[from:r.ends[i-1]])
}

// syntax reports that the byte at offset at, or the end of the input there,
// is not what the grammar wants.
func (r *reader) syntax(at int, where string) error {
	if at >= len(r.data) {
		return fmt.Errorf("nested: unexpected end of JSON input %s", where)
	}
	return fmt.Errorf("nested: invalid character %q at offset %d %s", r.data[at], at, where)
}

// next skips white space and returns the byte it stops at without consuming
// it; at the end of the input that is 0, which the grammar wants nowhere.
func (r *reader) next() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// value parses the value that comes next, depth arrays and objects deep, in
// the document or the attribute in.
func (r *reader) value(depth int, in *shapeNode) (Value, error) {
	switch c := r.next(); {
	case c == '{' || c == '[':
		if depth == maxDepth {
			return Value{}, fmt.Errorf("nested: JSON nested deeper than %d levels at offset %d", maxDepth, r.pos)
		}
		r.pos++
		if c == '{' {
			return r.item(depth+1, in)
		}
		return r.bag(depth+1, in)
	case c == '"':
		s, err := r.str()
		if err != nil || len(s) == 0 {
			return StringVal(""), err
		}
		r.text = append(r.text, s...)
		r.ends = append(r.ends, len(r.text))
		return Value{kind: KindString, num: uint64(len(r.ends))}, nil
	case c == '-' || '0' <= c && c <= '9':
		return r.number()
	case c == 't':
		return r.literal("true", Bool(true))
	case c == 'f':
		return r.literal("false", Bool(false))
	case c == 'n':
		return r.literal("null", Null())
	}
	return Value{}, r.syntax(r.pos, "looking for beginning of value")
}

func (r *reader) literal(word string, v Value) (Value, error) {
	if end := r.pos + len(word); end <= len(r.data) && string(r.data[r.pos:end]) == word {
		r.pos = end
		return v, nil
	}
	return Value{}, r.syntax(r.pos, "in literal "+word)
}

// open returns the mark of an array or object that opens: the height of the
// scratch stack, which starts at 16 values instead of growing from one.
func (r *reader) open() int {
	if r.vals == nil {
		r.vals = make([]Value, 0, 16)
	}
	return len(r.vals)
}

// chunkValues is how many values (32 KB) a chunk holds at most. A sequence
// longer than a quarter of that gets a slice of its own.
const chunkValues = 1 << 10

// sealed leaves an array or object at its closing byte: it moves the values
// above mark off the scratch stack into a carved slice of exactly their
// number and notes where their string placeholders now stand.
func (r *reader) sealed(mark int) []Value {
	r.pos++
	top := r.vals[mark:]
	r.vals = r.vals[:mark]
	if len(top) == 0 {
		return nil
	}
	out := r.carve(len(top))
	copy(out, top)
	for i := range out {
		if placeholder(&out[i]) {
			r.patch = append(r.patch, &out[i])
		}
	}
	return out
}

// carve returns a slice of n values with len == cap, so that an append to
// it can never write into a neighbour. A new chunk is sized for the values
// the rest of the input can still hold (each takes at least two bytes), so
// a short document does not pin a full chunk.
func (r *reader) carve(n int) []Value {
	if n > len(r.chunk) {
		if n > chunkValues/4 {
			return make([]Value, n)
		}
		r.chunk = make([]Value, min(chunkValues, n+(len(r.data)-r.pos+r.rest)/2))
	}
	out := r.chunk[:n:n]
	r.chunk = r.chunk[n:]
	return out
}

// item parses an object from behind its opening brace. Its values collect
// on the shared stack, above those of the enclosing items and bags, until it
// closes; its attribute names walk the trie of the place it stands in.
func (r *reader) item(depth int, in *shapeNode) (Value, error) {
	if in.inner == nil {
		in.inner = new(shapeNode)
	}
	mark, at := r.open(), in.inner
	for more := r.next() != '}'; more; {
		if r.next() != '"' {
			return Value{}, r.syntax(r.pos, "looking for beginning of object key string")
		}
		if c := at.next; c != nil && c.plain && r.quoted(c.name) {
			at = c
		} else {
			key, err := r.str()
			if err != nil {
				return Value{}, err
			}
			at = r.child(at, key)
		}
		if r.next() != ':' {
			return Value{}, r.syntax(r.pos, "after object key")
		}
		r.pos++
		v, err := r.value(depth, at)
		if err != nil {
			return Value{}, err
		}
		r.vals = append(r.vals, v)
		switch r.next() {
		case ',':
			r.pos++
		case '}':
			more = false
		default:
			return Value{}, r.syntax(r.pos, "after object key:value pair")
		}
	}
	return at.sealed().Item(r.sealed(mark)...), nil
}

// bag parses an array the way item parses an object.
func (r *reader) bag(depth int, in *shapeNode) (Value, error) {
	mark := r.open()
	for more := r.next() != ']'; more; {
		v, err := r.value(depth, in)
		if err != nil {
			return Value{}, err
		}
		r.vals = append(r.vals, v)
		switch r.next() {
		case ',':
			r.pos++
		case ']':
			more = false
		default:
			return Value{}, r.syntax(r.pos, "after array element")
		}
	}
	return Bag(r.sealed(mark)...), nil
}

// quoted consumes the string whose opening quote is at r.pos if its raw
// bytes are name, which holds no byte that must be escaped: then str would
// return exactly those bytes.
func (r *reader) quoted(name string) bool {
	from := r.pos + 1
	end := from + len(name)
	if end < len(r.data) && r.data[end] == '"' && string(r.data[from:end]) == name {
		r.pos = end + 1
		return true
	}
	return false
}

// number parses a number and classifies it on the way: no fraction, no
// exponent and inside int64 is an int, everything else a double.
func (r *reader) number() (Value, error) {
	d, i := r.data, r.pos
	digits := func() bool {
		from := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > from
	}
	if d[i] == '-' {
		i++
	}
	integral, ok := true, true
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(d) && d[i] == '.' {
		i++
		integral, ok = false, digits()
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		integral, ok = false, digits()
	}
	if !ok {
		return Value{}, r.syntax(i, "in numeric literal")
	}
	num := d[r.pos:i] // converted where used, so the string never reaches the heap
	r.pos = i
	if integral {
		if digits := bytes.TrimPrefix(num, []byte{'-'}); len(digits) <= 18 { // below 10^18: inside int64
			var n int64
			for _, c := range digits {
				n = n*10 + int64(c-'0')
			}
			if len(digits) < len(num) {
				n = -n
			}
			return Int(n), nil
		}
		if n, err := strconv.ParseInt(string(num), 10, 64); err == nil {
			return Int(n), nil
		}
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return Value{}, fmt.Errorf("nested: bad number %s: %w", num, err)
	}
	return Double(f), nil
}

// str parses the string whose opening quote is at r.pos and returns its
// bytes: a view into the input when they can be taken as they are,
// otherwise r.buf. Either way the caller copies them before the next call.
// Repairs are encoding/json's: escapes are decoded, a surrogate pair of \u
// escapes joins into one rune, and an unpaired surrogate or a byte that is
// not UTF-8 becomes U+FFFD.
func (r *reader) str() ([]byte, error) {
	d, start := r.data, r.pos+1
	i, high := start, byte(0) // high has its top bit set once a byte is not ASCII
	for ; i < len(d) && d[i] != '"' && d[i] != '\\' && d[i] >= ' '; i++ {
		high |= d[i]
	}
	if i < len(d) && d[i] == '"' && (high < utf8.RuneSelf || utf8.Valid(d[start:i])) {
		r.pos = i + 1
		return d[start:i], nil
	}
	// Something in the string needs decoding or repair: rebuild it in r.buf.
	buf, i := r.buf[:0], start
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			r.pos, r.buf = i+1, buf
			return buf, nil
		case c < ' ':
			return nil, r.syntax(i, "in string literal")
		case c != '\\':
			rr, size := utf8.DecodeRune(d[i:])
			buf = utf8.AppendRune(buf, rr)
			i += size
		case i+1 == len(d): // a lone backslash ends the input
			i++
		case d[i+1] == 'u':
			rr := hex4(d[i+2:])
			if rr < 0 {
				return nil, r.syntax(i+1, "in \\u hexadecimal character escape")
			}
			i += 6
			if utf16.IsSurrogate(rr) {
				// Only a pair that decodes is consumed as one; after
				// anything else the next escape is read on its own.
				lo := rune(-1)
				if bytes.HasPrefix(d[i:], []byte(`\u`)) {
					lo = hex4(d[i+2:])
				}
				if rr = utf16.DecodeRune(rr, lo); rr != unicode.ReplacementChar {
					i += 6
				}
			}
			buf = utf8.AppendRune(buf, rr)
		default:
			j := strings.IndexByte(`"\/bfnrt`, d[i+1])
			if j < 0 {
				return nil, r.syntax(i+1, "in string escape code")
			}
			buf = append(buf, "\"\\/\b\f\n\r\t"[j])
			i += 2
		}
	}
	return nil, r.syntax(len(d), "in string literal")
}

// hex4 decodes the four hexadecimal digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) >= 4 {
		if n, err := strconv.ParseUint(string(b[:4]), 16, 16); err == nil {
			return rune(n)
		}
	}
	return -1
}

// MarshalJSON encodes the value as JSON, keeping item attribute order. Sets
// and bags both encode as arrays (JSON has no set syntax); the distinction
// is only recoverable through the schema.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.AppendJSON(nil, jsonenc.Compact)
}

// UnmarshalJSON decodes one JSON document into v through ParseJSON, so a
// Value nested in an encoding/json struct reads as ParseJSON reads it. A
// JSON null becomes the null value.
func (v *Value) UnmarshalJSON(data []byte) error {
	p, err := ParseJSON(data)
	if err != nil {
		return err
	}
	*v = p
	return nil
}

// AppendJSON appends the value's JSON encoding to dst: MarshalJSON's bytes
// for depth jsonenc.Compact, and for depth >= 0 those bytes as
// json.Indent(_, "", "  ") lays them out for a value nested depth levels
// deep (the first line is not indented; the caller has placed it).
func (v Value) AppendJSON(dst []byte, depth int) ([]byte, error) { return v.appendJSON(dst, depth) }

func (v *Value) appendJSON(dst []byte, depth int) ([]byte, error) {
	switch v.kind {
	case KindNull, KindInvalid:
		dst = append(dst, "null"...)
	case KindInt:
		dst = strconv.AppendInt(dst, int64(v.num), 10)
	case KindDouble:
		f := math.Float64frombits(v.num)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, fmt.Errorf("nested: cannot encode non-finite double %g", f)
		}
		n := len(dst)
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		// Keep integral doubles recognisable as doubles across a round trip.
		if !bytes.ContainsAny(dst[n:], ".eE") {
			dst = append(dst, ".0"...)
		}
	case KindString:
		dst = jsonenc.String(dst, v.str())
	case KindBool:
		dst = strconv.AppendBool(dst, v.num != 0)
	case KindItem:
		in := jsonenc.Inner(depth)
		dst = append(dst, '{')
		vals := v.vs()
		for i := range vals {
			var err error
			if dst, err = vals[i].appendJSON(jsonenc.Key(dst, in, v.shape.names[i]), in); err != nil {
				return dst, err
			}
		}
		dst = jsonenc.Close(dst, depth, '}')
	case KindBag, KindSet:
		in := jsonenc.Inner(depth)
		dst = append(dst, '[')
		vals := v.vs()
		for i := range vals {
			var err error
			if dst, err = vals[i].appendJSON(jsonenc.Sep(dst, in), in); err != nil {
				return dst, err
			}
		}
		dst = jsonenc.Close(dst, depth, ']')
	}
	return dst, nil
}

// EncodeJSONLines writes one JSON document per value, newline-delimited.
func EncodeJSONLines(w io.Writer, values []Value) error {
	var buf []byte
	for _, v := range values {
		var err error
		if buf, err = v.AppendJSON(buf[:0], jsonenc.Compact); err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
