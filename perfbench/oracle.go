package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"hash/fnv"
	"strings"

	"rdfindexes/internal/server/results"
)

// strTriple is one triple of the model, as term text.
type strTriple struct{ s, p, o string }

// model is the oracle: the generated triples as strings, with no index
// and no store IDs. Expected answers come from full scans that test
// every triple against every pool query constant; pools are answered
// in one batch so a scan serves thousands of queries.
type model struct {
	triples []strTriple
}

// answer fills total and digest of every query by scanning the model.
// Queries that differ only in their limit share one evaluation.
func (m *model) answer(qs []*query) {
	byText := map[string]*query{}
	var distinct []*query
	for _, q := range qs {
		if _, ok := byText[q.text]; !ok {
			byText[q.text] = q
			distinct = append(distinct, q)
		}
	}
	m.evaluate(distinct)
	for _, q := range qs {
		q.total, q.digest = byText[q.text].total, byText[q.text].digest
	}
}

// evaluate computes total and digest of distinct queries.
func (m *model) evaluate(qs []*query) {
	type acc struct {
		rows   int
		digest uint64
		a, b   []string // per-pattern bindings of the one-subject star
		subj   map[string]bool
	}
	accs := make([]acc, len(qs))
	bySubj := map[string][]int{}
	byPred := map[string][]int{}
	byObj := map[string][]int{}
	for i, q := range qs {
		switch q.shape {
		case shapeS, shapeSP, shapeSStar:
			bySubj[q.s] = append(bySubj[q.s], i)
		case shapeP:
			byPred[q.p] = append(byPred[q.p], i)
		case shapePO, shapeO, shapeStar:
			byObj[q.o] = append(byObj[q.o], i)
		}
	}
	for _, t := range m.triples {
		for _, i := range bySubj[t.s] {
			q, a := qs[i], &accs[i]
			switch {
			case q.shape == shapeS, q.shape == shapeSP && t.p == q.p:
				a.rows++
				a.digest += rowDigest(t.o)
			case q.shape == shapeSStar:
				if t.p == q.p {
					a.a = append(a.a, t.o)
				}
				if t.p == q.p2 {
					a.b = append(a.b, t.o)
				}
			}
		}
		for _, i := range byPred[t.p] {
			accs[i].rows++
			accs[i].digest += rowDigest(t.s, t.o)
		}
		for _, i := range byObj[t.o] {
			q, a := qs[i], &accs[i]
			switch {
			case q.shape == shapeO, q.shape == shapePO && t.p == q.p:
				a.rows++
				a.digest += rowDigest(t.s)
			case q.shape == shapeStar && t.p == q.p:
				if a.subj == nil {
					a.subj = map[string]bool{}
				}
				a.subj[t.s] = true
			}
		}
	}
	// Second scan joins the scan stars' subjects with their second
	// pattern.
	starSubj := map[string][]int{}
	for i, q := range qs {
		switch q.shape {
		case shapeSStar:
			for _, x := range accs[i].a {
				for _, y := range accs[i].b {
					accs[i].rows++
					accs[i].digest += rowDigest(x, y)
				}
			}
		case shapeStar:
			for s := range accs[i].subj {
				starSubj[s] = append(starSubj[s], i)
			}
		}
	}
	if len(starSubj) > 0 {
		for _, t := range m.triples {
			for _, i := range starSubj[t.s] {
				if t.p == qs[i].p2 {
					accs[i].rows++
					accs[i].digest += rowDigest(t.s, t.o)
				}
			}
		}
	}
	for i, q := range qs {
		q.total, q.digest = accs[i].rows, accs[i].digest
	}
}

// rowDigest hashes one solution row, given as terms in projection
// order. Rows are summed, so a result's digest does not depend on row
// order. IRIs are hashed without their angle brackets, the form every
// result format can be reduced to.
func rowDigest(terms ...string) uint64 {
	h := fnv.New64a()
	for _, t := range terms {
		h.Write([]byte(strings.TrimSuffix(strings.TrimPrefix(t, "<"), ">")))
		h.Write([]byte{0})
	}
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer, so that summed row hashes do not
// cancel along FNV's weak low bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// countRows counts the solution rows of a response body without
// decoding it. XML and JSON markup cannot occur inside escaped values,
// and none of the fixture's IRIs contains a line break, so the counts
// are exact for these results; the sampled digest decodes fully.
func countRows(f results.Format, body []byte) int {
	switch f {
	case results.JSON:
		return countJSONRows(body)
	case results.XML:
		return bytes.Count(body, []byte("<result>"))
	case results.CSV:
		return bytes.Count(body, []byte("\r\n")) - 1
	default:
		return bytes.Count(body, []byte("\n")) - 1
	}
}

// countJSONRows counts the objects of results.bindings: the objects
// opened at nesting depth 3 (root, results, bindings array), skipping
// string contents.
func countJSONRows(b []byte) int {
	depth, rows := 0, 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if b[i] == '{' && depth == 3 {
				rows++
			}
			depth++
		case '}', ']':
			depth--
		}
	}
	return rows
}

// bodyDigest decodes a response fully and returns its row count and
// multiset digest over the projected variables.
func bodyDigest(f results.Format, body []byte, vars []string) (int, uint64, error) {
	var rows [][]string
	switch f {
	case results.JSON:
		var doc struct {
			Results struct {
				Bindings []map[string]struct{ Type, Value string }
			}
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return 0, 0, err
		}
		for _, b := range doc.Results.Bindings {
			row := make([]string, len(vars))
			for i, v := range vars {
				if b[v].Type != "uri" {
					return 0, 0, fmt.Errorf("binding %s is %q, not an IRI", v, b[v].Type)
				}
				row[i] = b[v].Value
			}
			rows = append(rows, row)
		}
	case results.XML:
		var doc struct {
			Results []struct {
				Bindings []struct {
					Name string `xml:"name,attr"`
					URI  string `xml:"uri"`
				} `xml:"binding"`
			} `xml:"results>result"`
		}
		if err := xml.Unmarshal(body, &doc); err != nil {
			return 0, 0, err
		}
		for _, r := range doc.Results {
			row := make([]string, len(vars))
			for _, b := range r.Bindings {
				for i, v := range vars {
					if b.Name == v {
						row[i] = b.URI
					}
				}
			}
			rows = append(rows, row)
		}
	case results.CSV:
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			return 0, 0, err
		}
		if len(recs) == 0 {
			return 0, 0, fmt.Errorf("empty CSV response")
		}
		rows = recs[1:]
	default:
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		for _, l := range lines[1:] {
			rows = append(rows, strings.Split(l, "\t"))
		}
	}
	var d uint64
	for _, r := range rows {
		if len(r) != len(vars) {
			return 0, 0, fmt.Errorf("row has %d fields, want %d", len(r), len(vars))
		}
		d += rowDigest(r...)
	}
	return len(rows), d, nil
}
