// Package sparql is the query front end and BGP engine of the paper's
// final experiment (Table 6): it parses SELECT queries over basic graph
// patterns (BGPs), dictionary-encodes their constants in the same pass,
// orders the patterns with a selectivity-driven planner — the
// methodology the paper borrows from TripleBit — and runs the resulting
// sequence of atomic triple selection patterns against any index with a
// nested-loop executor that switches to merge-intersections where the
// index serves sorted binding streams.
//
// It is the only module that knows the query grammar:
//
//	Query   = "SELECT" Var+ "WHERE" "{" Pattern ( "." Pattern )* [ "." ] "}"
//	Pattern = Term Term Term
//	Term    = Var | <digits> | <iri> | "literal"[@lang | ^^<datatype>] | _:blank
//	Var     = ?[A-Za-z0-9_]+
//
// Keywords are case-insensitive and whitespace is free, including none
// between a term and its separating dot. Dots inside IRIs and literals
// never separate patterns, and literals may contain backslash escapes.
// A <digits> constant is a raw dictionary ID; every other constant is
// resolved while parsing by the caller's Resolver — through the
// predicate dictionary in the middle position of a pattern, the
// subject/object dictionary elsewhere. Parse, which has no resolver,
// accepts raw IDs only. Query.String prints the canonical form with
// every constant as <id>, so two spellings of one query over one
// dictionary print identically; the server's caches key on it.
package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"rdfindexes/internal/core"
)

// Term is a variable or a constant ID in a triple pattern.
type Term struct {
	// Var is the variable name, empty for constants.
	Var string
	// ID is the constant value when Var is empty.
	ID core.ID
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in query syntax.
func (t Term) String() string { return string(t.appendTo(nil)) }

func (t Term) appendTo(b []byte) []byte {
	if t.IsVar() {
		return append(append(b, '?'), t.Var...)
	}
	b = strconv.AppendUint(append(b, '<'), uint64(t.ID), 10)
	return append(b, '>')
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(id core.ID) Term { return Term{ID: id} }

// TriplePattern is one pattern of a BGP.
type TriplePattern struct {
	S, P, O Term
}

// String renders the pattern in query syntax.
func (tp TriplePattern) String() string { return string(tp.appendTo(nil)) }

func (tp TriplePattern) appendTo(b []byte) []byte {
	b = append(tp.S.appendTo(b), ' ')
	b = append(tp.P.appendTo(b), ' ')
	return append(tp.O.appendTo(b), ' ', '.')
}

// Query is a basic graph pattern with a projection list.
type Query struct {
	Vars     []string
	Patterns []TriplePattern
}

// String renders the query in canonical syntax.
func (q Query) String() string { return string(q.Append(nil)) }

// Append appends the query in canonical syntax to b.
func (q Query) Append(b []byte) []byte {
	b = append(b, "SELECT"...)
	for _, v := range q.Vars {
		b = append(append(b, ' ', '?'), v...)
	}
	b = append(b, " WHERE {"...)
	for _, p := range q.Patterns {
		b = p.appendTo(append(b, ' '))
	}
	return append(b, ' ', '}')
}

// uses reports whether variable v occurs in the BGP.
func (q Query) uses(v string) bool {
	for _, tp := range q.Patterns {
		if tp.S.Var == v || tp.P.Var == v || tp.O.Var == v {
			return true
		}
	}
	return false
}

// PredicateOnly reports whether variable v occurs in the BGP in
// predicate position and nowhere else: its bindings are then
// predicate-dictionary IDs and render through that dictionary.
func (q Query) PredicateOnly(v string) bool {
	pred := false
	for _, tp := range q.Patterns {
		if tp.S.Var == v || tp.O.Var == v {
			return false
		}
		pred = pred || tp.P.Var == v
	}
	return pred
}

// A Resolver maps a dictionary constant of a query — an <iri>, a
// "literal" with its @lang or ^^<datatype> suffix, or a _:blank node,
// spelled exactly as in the query — to its ID. predicate selects the
// predicate dictionary.
type Resolver interface {
	Locate(term string, predicate bool) (core.ID, error)
}

// Parse parses a query whose constants are all raw <id>s.
func Parse(input string) (Query, error) { return ParseWith(input, nil) }

// ParseWith parses a query, resolving its dictionary constants through
// res in the same pass. A nil res rejects them, like Parse.
func ParseWith(input string, res Resolver) (Query, error) {
	p := parser{in: input, res: res}
	return p.query()
}

type tokKind uint8

const (
	tokEOF   tokKind = iota
	tokWord          // keyword: a run of name bytes
	tokVar           // ?name; text is the name
	tokID            // <digits>; id is the value
	tokConst         // dictionary constant; text is its spelling
	tokPunct         // { } or .
)

type token struct {
	kind tokKind
	text string
	id   core.ID
}

// parser scans and parses in one pass: tok is the current token, pos the
// offset just past it.
type parser struct {
	in  string
	pos int
	res Resolver
	tok token
}

// advance scans the next token into p.tok.
func (p *parser) advance() error {
	in := p.in
	i := p.pos
	for i < len(in) && isSpace(in[i]) {
		i++
	}
	if i == len(in) {
		p.pos, p.tok = i, token{kind: tokEOF}
		return nil
	}
	start := i
	switch c := in[i]; {
	case c == '{' || c == '}' || c == '.':
		i++
		p.tok = token{kind: tokPunct, text: in[start:i]}
	case c == '?':
		i++
		for i < len(in) && isNameByte(in[i]) {
			i++
		}
		if i == start+1 {
			return fmt.Errorf("sparql: empty variable name at offset %d", start)
		}
		p.tok = token{kind: tokVar, text: in[start+1 : i]}
	case c == '<':
		j := strings.IndexByte(in[i:], '>')
		if j < 0 {
			return fmt.Errorf("sparql: unterminated <...> at offset %d", start)
		}
		i += j + 1
		body := in[start+1 : i-1]
		if body == "" || strings.TrimLeft(body, "0123456789") != "" {
			p.tok = token{kind: tokConst, text: in[start:i]}
			break
		}
		id, err := strconv.ParseUint(body, 10, 32)
		if err != nil {
			return fmt.Errorf("sparql: ID constant <%s> is out of range", body)
		}
		p.tok = token{kind: tokID, id: core.ID(id)}
	case c == '"':
		var err error
		if i, err = scanLiteral(in, i); err != nil {
			return err
		}
		p.tok = token{kind: tokConst, text: in[start:i]}
	case c == '_' && i+1 < len(in) && in[i+1] == ':':
		i += 2
		for i < len(in) && !isSpace(in[i]) && in[i] != '.' && in[i] != '{' && in[i] != '}' {
			i++
		}
		p.tok = token{kind: tokConst, text: in[start:i]}
	case isNameByte(c):
		for i < len(in) && isNameByte(in[i]) {
			i++
		}
		p.tok = token{kind: tokWord, text: in[start:i]}
	default:
		return fmt.Errorf("sparql: unexpected character %q at offset %d", c, start)
	}
	p.pos = i
	return nil
}

// scanLiteral returns the end offset of the literal opening at in[i],
// past any attached @lang or ^^<datatype> suffix.
func scanLiteral(in string, i int) (int, error) {
	j := i + 1
	for j < len(in) && in[j] != '"' {
		if in[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(in) {
		return 0, fmt.Errorf("sparql: unterminated string literal at offset %d", i)
	}
	j++
	switch {
	case j < len(in) && in[j] == '@':
		j++
		for j < len(in) && (isNameByte(in[j]) || in[j] == '-') {
			j++
		}
	case strings.HasPrefix(in[j:], "^^"):
		j += 2
		if j < len(in) && in[j] == '<' {
			k := strings.IndexByte(in[j:], '>')
			if k < 0 {
				return 0, fmt.Errorf("sparql: unterminated datatype IRI at offset %d", j)
			}
			j += k + 1
		}
	}
	return j, nil
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func (p *parser) isPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

// expectWord consumes the keyword kw, in any letter case.
func (p *parser) expectWord(kw string) error {
	if p.tok.kind != tokWord || !strings.EqualFold(p.tok.text, kw) {
		return fmt.Errorf("sparql: expected %s", kw)
	}
	return p.advance()
}

// expectPunct consumes the punctuation s.
func (p *parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return fmt.Errorf("sparql: expected %q", s)
	}
	return p.advance()
}

func (p *parser) query() (Query, error) {
	var q Query
	if err := p.advance(); err != nil {
		return q, err
	}
	if err := p.expectWord("SELECT"); err != nil {
		return q, err
	}
	for p.tok.kind == tokVar {
		q.Vars = append(q.Vars, p.tok.text)
		if err := p.advance(); err != nil {
			return q, err
		}
	}
	if len(q.Vars) == 0 {
		return q, fmt.Errorf("sparql: SELECT needs at least one variable")
	}
	if err := p.expectWord("WHERE"); err != nil {
		return q, err
	}
	if err := p.expectPunct("{"); err != nil {
		return q, err
	}
	for !p.isPunct("}") {
		tp, err := p.pattern()
		if err != nil {
			return q, err
		}
		q.Patterns = append(q.Patterns, tp)
		// The separating dot is mandatory between patterns, optional
		// after the last one.
		if p.isPunct(".") {
			if err := p.advance(); err != nil {
				return q, err
			}
		} else if !p.isPunct("}") {
			return q, fmt.Errorf("sparql: expected \".\" after triple pattern %d", len(q.Patterns))
		}
	}
	if err := p.advance(); err != nil {
		return q, err
	}
	if p.tok.kind != tokEOF {
		return q, fmt.Errorf("sparql: unexpected %q after the closing }", p.tok.text)
	}
	if len(q.Patterns) == 0 {
		return q, fmt.Errorf("sparql: empty BGP")
	}
	for _, v := range q.Vars {
		if !q.uses(v) {
			return q, fmt.Errorf("sparql: projected variable ?%s not used in the BGP", v)
		}
	}
	return q, nil
}

// pattern parses the three terms of a triple pattern, resolving its
// dictionary constants.
func (p *parser) pattern() (TriplePattern, error) {
	var terms [3]Term
	for k := range terms {
		switch t := p.tok; t.kind {
		case tokVar:
			terms[k] = V(t.text)
		case tokID:
			terms[k] = C(t.id)
		case tokConst:
			if p.res == nil {
				return TriplePattern{}, fmt.Errorf("sparql: constant %s is not a numeric ID (dictionary-encode IRIs first)", t.text)
			}
			id, err := p.res.Locate(t.text, k == 1)
			if err != nil {
				return TriplePattern{}, err
			}
			terms[k] = C(id)
		case tokEOF:
			return TriplePattern{}, fmt.Errorf("sparql: truncated triple pattern")
		default:
			return TriplePattern{}, fmt.Errorf("sparql: unexpected %q in triple pattern", t.text)
		}
		if err := p.advance(); err != nil {
			return TriplePattern{}, err
		}
	}
	return TriplePattern{terms[0], terms[1], terms[2]}, nil
}
