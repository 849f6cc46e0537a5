// Package jsonenc holds the append-style primitives the system's JSON
// writers share, so a document is laid out while it is produced instead of
// being marshalled compactly and re-scanned. The bytes are those
// encoding/json produces: strings as json.Marshal writes them (HTML
// characters and invalid UTF-8 escaped), and, for a depth >= 0, line breaks
// and indentation as json.MarshalIndent(v, "", "  ") lays them out. The
// equivalence tests of nested, backtrace and core pin that.
//
// A depth is the nesting level of the container or member being written;
// Compact selects the single-line form at every level.
package jsonenc

import (
	"encoding/json"
	"unicode/utf8"
)

// Compact as a depth selects the layout of json.Marshal.
const Compact = -1

// Inner returns the depth of the members of a container at depth.
func Inner(depth int) int {
	if depth < 0 {
		return Compact
	}
	return depth + 1
}

// String appends s as a JSON string.
func String(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Escapes are encoding/json's business; strings are mostly plain.
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Sep appends what precedes a member or element at depth: a comma unless it
// is the first of its container, then the line break. dst must end in the
// container's opening bracket or in the previous member.
func Sep(dst []byte, depth int) []byte {
	if !justOpened(dst) {
		dst = append(dst, ',')
	}
	return lineBreak(dst, depth)
}

// Key appends Sep and the member name with its colon.
func Key(dst []byte, depth int, name string) []byte {
	dst = String(Sep(dst, depth), name)
	if depth < 0 {
		return append(dst, ':')
	}
	return append(dst, ':', ' ')
}

// Close appends the closing bracket c of a container at depth; an empty
// container stays on one line ("{}", "[]").
func Close(dst []byte, depth int, c byte) []byte {
	if !justOpened(dst) {
		dst = lineBreak(dst, depth)
	}
	return append(dst, c)
}

// justOpened reports whether dst ends in an opening bracket. No value ends
// in one: strings end in a quote, numbers and literals in a letter or digit.
func justOpened(dst []byte) bool {
	last := dst[len(dst)-1]
	return last == '{' || last == '['
}

// indent is a line break followed by more indentation than documents nest.
const indent = "\n                                                                "

func lineBreak(dst []byte, depth int) []byte {
	if depth < 0 {
		return dst
	}
	if n := 1 + 2*depth; n <= len(indent) {
		return append(dst, indent[:n]...)
	}
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
