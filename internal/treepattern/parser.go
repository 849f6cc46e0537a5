package treepattern

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"pebble/internal/nested"
)

// Parse builds a tree pattern from its textual form — the user-facing query
// syntax of the CLI (the paper lists a user-friendly provenance front-end as
// future work). The grammar:
//
//	pattern  := clause (',' clause)*
//	clause   := edge? name cond* children?
//	edge     := '/'            parent-child (default)
//	          | '//'           ancestor-descendant
//	name     := attribute name ([A-Za-z0-9_]+)
//	cond     := '==' literal   value equality
//	          | '~=' string    substring containment
//	          | '<'  literal | '>' literal
//	          | '#[' int ',' int ']'   occurrence bounds (0 = unbounded)
//	children := '(' pattern ')'
//	literal  := "string" | int | float | true | false
//
// Example (the paper's Fig. 4):
//
//	//id_str == "lp", tweets(text == "Hello World" #[2,2])
func Parse(input string) (*Pattern, error) {
	p := &parser{in: input}
	children, err := p.parsePattern()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errf("trailing input")
	}
	if len(children) == 0 {
		return nil, fmt.Errorf("treepattern: empty pattern")
	}
	return &Pattern{Children: children}, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(input string) *Pattern {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

// maxDepth is how deep clauses may nest, the limit of nested.ParseJSON and
// encoding/json: deeper input is an error, not a stack the runtime gives up
// on.
const maxDepth = 10000

// errWindow is how many input bytes an error quotes on each side of its
// offset.
const errWindow = 32

type parser struct {
	in    string
	pos   int
	depth int
}

func (p *parser) eof() bool { return p.pos >= len(p.in) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.in[p.pos]
}

func (p *parser) errf(format string, args ...interface{}) error {
	lo, hi := max(p.pos-errWindow, 0), min(p.pos+errWindow, len(p.in))
	return fmt.Errorf("treepattern: %s at offset %d near %q", fmt.Sprintf(format, args...), p.pos, p.in[lo:hi])
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) consume(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.in[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) parsePattern() ([]*Node, error) {
	var out []*Node
	for {
		n, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		if !p.consume(",") {
			return out, nil
		}
	}
}

func (p *parser) parseClause() (*Node, error) {
	p.skipSpace()
	edge := ChildEdge
	if p.consume("//") {
		edge = DescendantEdge
	} else {
		p.consume("/")
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	n := &Node{Attr: name, Edge: edge}
	for {
		switch {
		case p.consume("=="):
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			n.Eq = &v
		case p.consume("~="):
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			s, ok := v.AsString()
			if !ok {
				return nil, p.errf("~= needs a string literal")
			}
			n.Contains = s
		case p.consume("#["):
			min, max, err := p.parseBounds()
			if err != nil {
				return nil, err
			}
			n.MinCount, n.MaxCount = min, max
		case p.consume("<"):
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			n.Lt = &v
		case p.consume(">"):
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			n.Gt = &v
		case p.consume("("):
			if p.depth == maxDepth {
				return nil, p.errf("pattern nested deeper than %d levels", maxDepth)
			}
			p.depth++
			children, err := p.parsePattern()
			p.depth--
			if err != nil {
				return nil, err
			}
			if !p.consume(")") {
				return nil, p.errf("expected ')'")
			}
			n.Children = children
			return n, nil
		default:
			return n, nil
		}
	}
}

func (p *parser) parseName() (string, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		c := rune(p.in[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", p.errf("expected attribute name")
	}
	return p.in[start:p.pos], nil
}

func (p *parser) parseBounds() (int, int, error) {
	min, err := p.parseInt()
	if err != nil {
		return 0, 0, err
	}
	if !p.consume(",") {
		return 0, 0, p.errf("expected ',' in count bounds")
	}
	max, err := p.parseInt()
	if err != nil {
		return 0, 0, err
	}
	if !p.consume("]") {
		return 0, 0, p.errf("expected ']' after count bounds")
	}
	if min < 0 || max < 0 || (max > 0 && min > max) {
		return 0, 0, p.errf("invalid count bounds [%d,%d]", min, max)
	}
	return min, max, nil
}

func (p *parser) parseInt() (int, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected integer")
	}
	v, err := strconv.Atoi(p.in[start:p.pos])
	if err != nil {
		return 0, p.errf("bad integer: %v", err)
	}
	return v, nil
}

func (p *parser) parseLiteral() (nested.Value, error) {
	p.skipSpace()
	if p.eof() {
		return nested.Value{}, p.errf("expected literal")
	}
	switch c := p.peek(); {
	case c == '"':
		return p.parseString()
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		if p.consume("true") {
			return nested.Bool(true), nil
		}
		if p.consume("false") {
			return nested.Bool(false), nil
		}
		if p.consume("null") {
			return nested.Null(), nil
		}
		return nested.Value{}, p.errf("expected literal")
	}
}

func (p *parser) parseString() (nested.Value, error) {
	p.pos++ // opening quote
	var sb strings.Builder
	for !p.eof() {
		c := p.in[p.pos]
		switch c {
		case '"':
			p.pos++
			return nested.StringVal(sb.String()), nil
		case '\\':
			p.pos++
			if p.eof() {
				return nested.Value{}, p.errf("unterminated escape")
			}
			esc := p.in[p.pos]
			switch esc {
			case '"', '\\':
				sb.WriteByte(esc)
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				return nested.Value{}, p.errf("unsupported escape \\%c", esc)
			}
			p.pos++
		default:
			sb.WriteByte(c)
			p.pos++
		}
	}
	return nested.Value{}, p.errf("unterminated string")
}

func (p *parser) parseNumber() (nested.Value, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	isFloat := false
	for !p.eof() {
		c := p.peek()
		if c >= '0' && c <= '9' {
			p.pos++
			continue
		}
		if c == '.' && !isFloat {
			isFloat = true
			p.pos++
			continue
		}
		break
	}
	tok := p.in[start:p.pos]
	if tok == "" || tok == "-" {
		return nested.Value{}, p.errf("expected number")
	}
	if isFloat {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nested.Value{}, p.errf("bad float %q", tok)
		}
		return nested.Double(f), nil
	}
	i, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return nested.Value{}, p.errf("bad int %q", tok)
	}
	return nested.Int(i), nil
}
