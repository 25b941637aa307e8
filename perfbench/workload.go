package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"sync/atomic"
)

// shape names the query shapes the workloads draw from. Every query
// projects only subject/object variables.
type shape uint8

const (
	shapeS     shape = iota // <S> ?p ?o            (lookup)
	shapeSP                 // <S> <P> ?o           (lookup)
	shapePO                 // ?s <P> <O> limit 100 (lookup)
	shapeSStar              // <S> <P1> ?a . <S> <P2> ?b (lookup)
	shapeP                  // ?s <P> ?o limit 5k-50k  (scan)
	shapeO                  // ?s ?p <O> limit >= total (scan)
	shapeStar               // ?s <P> <O> . ?s <P2> ?x  (scan)
	numShapes
)

var shapeNames = [numShapes]string{"S??", "SP?", "?PO", "S-star", "?P?", "??O", "?-star"}

// query is one distinct request of a workload's pool: the query text
// plus the answer the oracle expects.
type query struct {
	shape   shape
	s, p, o string // constants of the first pattern ("" = variable)
	p2      string // second-pattern predicate (stars)
	limit   int    // -1 = none
	text    string // SPARQL text sent as ?query=
	vars    []string
	total   int    // oracle: full solution count
	digest  uint64 // oracle: multiset digest of the full solution set
	rawQS   string // encoded URL query string
}

// rows is the row count the server must return.
func (q *query) rows() int {
	if q.limit >= 0 && q.limit < q.total {
		return q.limit
	}
	return q.total
}

// complete reports whether the response carries the whole solution set,
// so its content digest is defined independently of index order.
func (q *query) complete() bool { return q.limit < 0 || q.limit >= q.total }

func (q *query) render() {
	switch q.shape {
	case shapeS:
		q.vars = []string{"o"}
		q.text = fmt.Sprintf("SELECT ?o WHERE { %s ?p ?o . }", q.s)
	case shapeSP:
		q.vars = []string{"o"}
		q.text = fmt.Sprintf("SELECT ?o WHERE { %s %s ?o . }", q.s, q.p)
	case shapePO:
		q.vars = []string{"s"}
		q.text = fmt.Sprintf("SELECT ?s WHERE { ?s %s %s . }", q.p, q.o)
	case shapeSStar:
		q.vars = []string{"a", "b"}
		q.text = fmt.Sprintf("SELECT ?a ?b WHERE { %s %s ?a . %s %s ?b . }", q.s, q.p, q.s, q.p2)
	case shapeP:
		q.vars = []string{"s", "o"}
		q.text = fmt.Sprintf("SELECT ?s ?o WHERE { ?s %s ?o . }", q.p)
	case shapeO:
		q.vars = []string{"s"}
		q.text = fmt.Sprintf("SELECT ?s WHERE { ?s ?p %s . }", q.o)
	case shapeStar:
		q.vars = []string{"s", "x"}
		q.text = fmt.Sprintf("SELECT ?s ?x WHERE { ?s %s %s . ?s %s ?x . }", q.p, q.o, q.p2)
	}
	v := url.Values{"query": {q.text}}
	if q.limit >= 0 {
		v.Set("limit", strconv.Itoa(q.limit))
	}
	q.rawQS = v.Encode()
}

func (q *query) key() string { return q.text + "|" + strconv.Itoa(q.limit) }

// lookupPool samples n distinct small queries (1-100 rows) from random
// triples: S??, SP?, ?PO limit 100 and a two-pattern star on one
// subject, rotating through the shapes. Subjects and objects reserved
// for the writer are never query constants, so concurrent writes cannot
// change any lookup answer.
func lookupPool(fx *fixtureData, m *model, n int, rng *rand.Rand) ([]*query, error) {
	seen := map[string]bool{}
	var out []*query
	for i := 0; len(out) < n; i++ {
		if i > 40*n {
			return nil, fmt.Errorf("lookup pool: %d distinct queries after %d samples, want %d", len(out), i, n)
		}
		t := fx.ds.Triples[rng.Intn(len(fx.ds.Triples))]
		if fx.reserved[t.S] || fx.reserved[t.O] {
			continue
		}
		q := &query{limit: -1, s: fx.so[t.S]}
		switch shape(i % 4) {
		case 0:
			q.shape = shapeS
		case 1:
			q.shape, q.p = shapeSP, fx.pred[t.P]
		case 2:
			q.shape, q.s, q.p, q.o, q.limit = shapePO, "", fx.pred[t.P], fx.so[t.O], 100
		case 3:
			q.shape, q.p = shapeSStar, fx.pred[t.P]
			pp := fx.subjectPredicates(t.S)
			q.p2 = fx.pred[pp[rng.Intn(len(pp))]]
		}
		q.render()
		if seen[q.key()] {
			continue
		}
		seen[q.key()] = true
		out = append(out, q)
	}
	m.answer(out)
	kept := out[:0]
	for _, q := range out {
		if r := q.rows(); r >= 1 && r <= 100 {
			kept = append(kept, q)
		}
	}
	return popularityOrder(kept), nil
}

// scanPool builds about n distinct large-result queries, a third of
// each shape:
//   - ?P? with limits spread evenly over 5k-50k, each on a frequent
//     predicate with at least that many triples, so the answer has
//     exactly limit rows;
//   - ??O over the most frequent objects, with a limit at or above the
//     full answer (distinct cache keys, complete answers);
//   - the star ?s <P> <O> . ?s <P2> ?x over frequent objects, chosen to
//     spread the answer sizes log-evenly over 500-20k rows.
//
// The even spreads keep the pool's size distribution, which sets the
// latency percentiles, the same on every seed.
func scanPool(fx *fixtureData, m *model, n int, rng *rand.Rand) []*query {
	k := max(n/3, 2)
	preds := fx.predicatesByCount()
	var out []*query
	for i := 0; i < k; i++ {
		limit := 5000 + 45000*i/(k-1)
		var cands []int
		for _, p := range preds[:min(len(preds), 8)] {
			if fx.predCounts[p] >= limit {
				cands = append(cands, int(p))
			}
		}
		p := int(preds[0])
		if len(cands) > 0 {
			p = cands[rng.Intn(len(cands))]
		}
		out = append(out, &query{shape: shapeP, p: fx.pred[p], limit: limit})
	}
	objects := make([]*query, 0, k)
	for i := 0; i < k; i++ {
		objects = append(objects, &query{shape: shapeO, o: fx.so[fx.heads[i%len(fx.heads)]], limit: -1})
	}
	seen := map[string]bool{}
	var stars []*query
	for i := 0; i < 8*k && len(stars) < 3*k; i++ {
		o := fx.heads[rng.Intn(len(fx.heads))]
		pp := fx.headPreds[o]
		q := &query{shape: shapeStar, o: fx.so[o], p: fx.pred[pp[rng.Intn(len(pp))]],
			p2: fx.pred[preds[rng.Intn(min(len(preds), 12))]], limit: -1}
		q.render()
		if !seen[q.key()] {
			seen[q.key()] = true
			stars = append(stars, q)
		}
	}
	for _, q := range append(out, objects...) {
		q.render()
	}
	m.answer(append(append(out, objects...), stars...))
	for i, q := range objects {
		// Same object, distinct limit: a distinct request with the same
		// complete answer.
		q.limit = q.total + i/len(fx.heads)
		q.render()
	}
	out = append(out, objects...)
	out = append(out, pickBySize(stars, k, 500, 20000)...)
	kept := out[:0]
	for _, q := range out {
		if q.rows() >= 100 {
			kept = append(kept, q)
		}
	}
	return spreadBySize(kept)
}

// pickBySize picks up to k of the candidates whose sizes are nearest to
// targets spread log-evenly over [lo, hi] rows, each candidate at most
// once.
func pickBySize(cands []*query, k, lo, hi int) []*query {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].total < cands[j].total })
	used := make([]bool, len(cands))
	var out []*query
	for t := 0; t < k; t++ {
		target := float64(lo) * math.Pow(float64(hi)/float64(lo), float64(t)/float64(max(k-1, 1)))
		best := -1
		for i, q := range cands {
			if used[i] || q.total == 0 {
				continue
			}
			if best < 0 || math.Abs(math.Log(float64(q.total)/target)) < math.Abs(math.Log(float64(cands[best].total)/target)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, cands[best])
	}
	return out
}

// popularityOrder orders the pool for Zipf draws so that a query's
// popularity does not depend on its size: rank r draws shape r mod k
// (k shapes) and, within the shape, the next query of spreadBySize. The
// most drawn queries then have the same shapes and sizes on every seed.
func popularityOrder(pool []*query) []*query {
	var groups [numShapes][]*query
	for _, q := range pool {
		groups[q.shape] = append(groups[q.shape], q)
	}
	out := make([]*query, 0, len(pool))
	for i := range groups {
		groups[i] = spreadBySize(groups[i])
	}
	for r := 0; len(out) < len(pool); r++ {
		for _, g := range groups {
			if r < len(g) {
				out = append(out, g[r])
			}
		}
	}
	return out
}

// spreadBySize orders queries so that every prefix of the order spreads
// evenly over their row counts: the median first, then the quartiles,
// and so on.
func spreadBySize(qs []*query) []*query {
	sort.SliceStable(qs, func(i, j int) bool {
		if qs[i].rows() != qs[j].rows() {
			return qs[i].rows() < qs[j].rows()
		}
		return qs[i].key() < qs[j].key()
	})
	out := make([]*query, len(qs))
	for i, j := range quantileOrder(len(qs)) {
		out[i] = qs[j]
	}
	return out
}

// quantileOrder returns the positions 0..n-1 in van der Corput order,
// rotated to start at the middle: n/2, then the quartiles, and so on.
func quantileOrder(n int) []int {
	b := 0
	for 1<<b < n {
		b++
	}
	used := make([]bool, n)
	out := make([]int, 0, n)
	for j := 0; j < 1<<b && n > 0; j++ {
		rev := 0
		for i := 0; i < b; i++ {
			rev |= (j >> i & 1) << (b - 1 - i)
		}
		frac := math.Mod(float64(rev)/float64(int(1)<<b)+0.5, 1)
		if pos := int(frac * float64(n)); !used[pos] {
			used[pos] = true
			out = append(out, pos)
		}
	}
	return out
}

// drawer yields a client's sequence of pool indices: seeded Zipf ranks,
// or, for uniform draws, the pool in order through a counter shared by
// all clients, so that the queries a run sends spread over the pool as
// spreadBySize laid it out.
type drawer struct {
	zipf *rand.Zipf
	seq  *atomic.Int64
	n    int
}

func newDrawer(seed int64, n int, zipf bool, seq *atomic.Int64) *drawer {
	d := &drawer{seq: seq, n: n}
	if zipf {
		d.zipf = rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(n-1))
	}
	return d
}

// next returns the next pool index and its position in the sequence.
func (d *drawer) next() (int, int) {
	if d.zipf != nil {
		return int(d.zipf.Uint64()), -1
	}
	i := int(d.seq.Add(1) - 1)
	return i % d.n, i
}

// writeOp is one planned write: an insert of a fresh triple, or the
// delete of an earlier insert.
type writeOp struct {
	insert  bool
	s, p, o string
}

// planWrites lays out a seeded write sequence over the writer's
// reserved terms: one insert in 8 uses a brand-new subject term (the
// overlay dictionary path), and one write in 8 deletes a still-present
// earlier insert. Every insert is a triple absent from the data.
func planWrites(fx *fixtureData, n int, seed int64) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	res := make([]string, 0, len(fx.reserved))
	for id := range fx.reserved {
		res = append(res, fx.so[id])
	}
	sort.Strings(res)
	used := map[[3]string]bool{}
	var live [][3]string
	ops := make([]writeOp, 0, n)
	fresh := 0
	for len(ops) < n {
		if len(ops)%8 == 7 && len(live) > 0 {
			k := rng.Intn(len(live))
			t := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			ops = append(ops, writeOp{insert: false, s: t[0], p: t[1], o: t[2]})
			continue
		}
		var t [3]string
		if rng.Intn(8) == 0 {
			t[0] = fmt.Sprintf("<http://dblp.example.org/rec/conf/New_%d_%07d>", seed, fresh)
			fresh++
		} else {
			t[0] = res[rng.Intn(len(res))]
		}
		t[1] = fx.pred[rng.Intn(len(fx.pred))]
		t[2] = res[rng.Intn(len(res))]
		if used[t] || fx.reservedTriples[t] {
			continue
		}
		used[t] = true
		live = append(live, t)
		ops = append(ops, writeOp{insert: true, s: t[0], p: t[1], o: t[2]})
	}
	return ops
}
