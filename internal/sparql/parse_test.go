package sparql

import (
	"errors"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"rdfindexes/internal/core"
)

// mapResolver resolves the constants it lists, per dictionary.
type mapResolver struct{ so, p map[string]core.ID }

func (m mapResolver) Locate(term string, predicate bool) (core.ID, error) {
	d := m.so
	if predicate {
		d = m.p
	}
	if id, ok := d[term]; ok {
		return id, nil
	}
	return 0, errors.New("term " + term + " not in dictionary")
}

// hashResolver resolves every constant to a hash-derived ID, so any
// lexically valid constant parses.
type hashResolver struct{}

func (hashResolver) Locate(term string, predicate bool) (core.ID, error) {
	h := fnv.New32a()
	h.Write([]byte(term))
	id := core.ID(h.Sum32() % 1000)
	if predicate {
		id += 1000
	}
	return id, nil
}

var testDicts = mapResolver{
	so: map[string]core.ID{
		"<http://example.org/alice>":                  1,
		"<http://example.org/bob>":                    2,
		`"v1.0"`:                                      3,
		`"say \"hi\". ok"@en-GB`:                      4,
		`"7"^^<http://www.w3.org/2001/XMLSchema#int>`: 5,
		"_:b1": 6,
	},
	p: map[string]core.ID{
		"<http://xmlns.com/foaf/0.1/knows>": 1,
		"<http://example.org/version>":      2,
	},
}

// TestParseWithTermSyntax covers the real-world RDF spellings the
// resolver sees: IRIs and literals with dots, escapes, language and
// datatype suffixes, blank nodes, a separator dot glued to a term, an
// optional final dot, keyword case and raw <id> constants.
func TestParseWithTermSyntax(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"SELECT ?x WHERE { ?x <http://xmlns.com/foaf/0.1/knows> <http://example.org/bob> . }",
			"SELECT ?x WHERE { ?x <1> <2> . }"},
		{`SELECT ?x WHERE { ?x <http://example.org/version> "v1.0" . }`,
			"SELECT ?x WHERE { ?x <2> <3> . }"},
		{`SELECT ?x WHERE { ?x <http://example.org/version> "v1.0". }`,
			"SELECT ?x WHERE { ?x <2> <3> . }"},
		{`SELECT ?x ?y WHERE { ?x <http://xmlns.com/foaf/0.1/knows> ?y . ?x <http://example.org/version> "v1.0" }`,
			"SELECT ?x ?y WHERE { ?x <1> ?y . ?x <2> <3> . }"},
		{`select ?x where{?x <2> "say \"hi\". ok"@en-GB.?x ?p "7"^^<http://www.w3.org/2001/XMLSchema#int>}`,
			"SELECT ?x WHERE { ?x <2> <4> . ?x ?p <5> . }"},
		{"SELECT ?p WHERE { _:b1 ?p <http://example.org/alice>.}",
			"SELECT ?p WHERE { <6> ?p <1> . }"},
		// A predicate-dictionary term in subject position is looked up
		// in the subject/object dictionary, and <digits> is a raw ID.
		{"SELECT ?x WHERE { <007> <http://example.org/version> ?x . }",
			"SELECT ?x WHERE { <7> <2> ?x . }"},
	} {
		q, err := ParseWith(tc.in, testDicts)
		if err != nil {
			t.Errorf("ParseWith(%q): %v", tc.in, err)
			continue
		}
		if got := q.String(); got != tc.want {
			t.Errorf("ParseWith(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}

	for _, in := range []string{
		"SELECT ?x WHERE { ?x <http://unterminated }",
		`SELECT ?x WHERE { ?x <http://example.org/version> "unterminated }`,
		`SELECT ?x WHERE { ?x <http://example.org/version> "v"^^<http://dt }`,
		"SELECT ?x WHERE { ?x ?y . }",
		"SELECT ?x WHERE { ?x <http://example.org/bob> ?y . }", // SO term as predicate
		"SELECT ?x WHERE { ?x <1> ?y . } LIMIT 10",             // trailing input
		"SELECT ?x WHERE { ?x <1> ?y . . }",
		"SELECT ?x WHERE { ?x <4294967296> ?y . }", // beyond the ID range
		"SELECT ?x WHERE { ?x <1> ?y ; }",
	} {
		if q, err := ParseWith(in, testDicts); err == nil {
			t.Errorf("ParseWith(%q) accepted: %s", in, q)
		}
	}
	if _, err := Parse(`SELECT ?x WHERE { ?x <2> "v1.0" . }`); err == nil {
		t.Error("Parse without a resolver accepted a literal")
	}
}

// TestQueryString pins the canonical spelling the server's cache keys
// are built from.
func TestQueryString(t *testing.T) {
	q := Query{
		Vars:     []string{"x", "y"},
		Patterns: []TriplePattern{{V("x"), C(3), V("y")}, {V("y"), C(5), C(4294967294)}},
	}
	const want = "SELECT ?x ?y WHERE { ?x <3> ?y . ?y <5> <4294967294> . }"
	if got := q.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := q.Patterns[0].String(); got != "?x <3> ?y ." {
		t.Fatalf("pattern String() = %q", got)
	}
}

func TestPredicateOnly(t *testing.T) {
	q, err := Parse("SELECT ?s ?p ?q ?o WHERE { ?s ?p ?o . ?o ?q ?s . ?o ?s <1> . }")
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range map[string]bool{"s": false, "p": true, "q": true, "o": false, "z": false} {
		if got := q.PredicateOnly(v); got != want {
			t.Errorf("PredicateOnly(%s) = %v, want %v", v, got, want)
		}
	}
}

// TestDecomposeIssuedSequence pins Decompose's pattern list for a star
// BGP over an index that serves sorted binding streams: the executor
// would resolve the star with one merge-intersection, but the
// decomposition is the nested-loop sequence — the anchor pattern, then
// the second pattern once per anchor match, in index order.
func TestDecomposeIssuedSequence(t *testing.T) {
	d := core.NewDataset([]core.Triple{
		{S: 1, P: 1, O: 2}, {S: 3, P: 1, O: 2}, {S: 1, P: 2, O: 5}, {S: 3, P: 2, O: 6}, {S: 4, P: 2, O: 5},
	})
	x, err := core.Build2Tp(d)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse("SELECT ?x WHERE { ?x <1> <2> . ?x <2> <5> . }")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompose(q, x)
	if err != nil {
		t.Fatal(err)
	}
	w := core.Wildcard
	want := []core.Pattern{{S: w, P: 1, O: 2}, {S: 1, P: 2, O: 5}, {S: 3, P: 2, O: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decompose issued %v, want %v", got, want)
	}
	if n := Replay(got, x); n != 3 {
		t.Fatalf("replay matched %d triples, want 3", n)
	}
}

// FuzzParse checks that parsing never panics and that the canonical
// text of every accepted query parses back to the same Query — the
// property the server's cache keys rely on. Constants go through a
// resolver that accepts every spelling, so the round trip covers the
// full term syntax, not only raw IDs.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"SELECT ?x ?y WHERE { ?x <3> ?y . ?y <5> <120> . }",
		"SELECT ?a WHERE { ?a <0> <7> . <4> <1> ?a . }",
		"SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/bob> . }",
		"SELECT ?x WHERE { ?x <http://ex/knows> . }",
		"no braces",
		"SELECT ?x WHERE { ?x <http://xmlns.com/foaf/0.1/knows> <http://example.org/bob> . }",
		`SELECT ?x WHERE { ?x <http://example.org/version> "v1.0" . }`,
		`SELECT ?x ?y WHERE { ?x <http://xmlns.com/foaf/0.1/knows> ?y . ?x <http://example.org/version> "v1.0" }`,
		`SELECT ?x WHERE { ?x <http://example.org/version> "v1.0". }`,
		"SELECT ?x WHERE { ?x <http://unterminated }",
		`SELECT ?x WHERE { ?x <http://example.org/version> "unterminated }`,
		`select ?x where{?x ?p "a\"b"@en-GB.?x ?p "7"^^<http://dt>._:b ?p ?x}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, res := range []Resolver{nil, hashResolver{}} {
			q, err := ParseWith(in, res)
			if err != nil {
				continue
			}
			text := q.String()
			q2, err := Parse(text)
			if err != nil {
				t.Fatalf("canonical text %q of %q does not parse: %v", text, in, err)
			}
			if !reflect.DeepEqual(q, q2) {
				t.Fatalf("round trip of %q through %q: %+v vs %+v", in, text, q, q2)
			}
			if !strings.HasPrefix(text, "SELECT ?") {
				t.Fatalf("canonical text %q", text)
			}
		}
	})
}
