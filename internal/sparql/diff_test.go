package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
)

// naiveRows is the reference evaluator: patterns in written order, each
// matched against every triple, variables in a map, no planner, no
// slots, no merge-intersections. Each solution renders as its
// projection, "-" for a variable no pattern binds; the result is sorted,
// so two evaluations compare as multisets.
func naiveRows(q Query, ts []core.Triple) []string {
	var out []string
	b := map[string]core.ID{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Patterns) {
			out = append(out, renderRow(q.Vars, func(v string) (core.ID, bool) {
				id, ok := b[v]
				return id, ok
			}))
			return
		}
		tp := q.Patterns[i]
		for _, t := range ts {
			var fresh []string
			ok := true
			for k, term := range [3]Term{tp.S, tp.P, tp.O} {
				id := [3]core.ID{t.S, t.P, t.O}[k]
				if !term.IsVar() {
					ok = term.ID == id
				} else if prev, bound := b[term.Var]; bound {
					ok = prev == id
				} else {
					b[term.Var] = id
					fresh = append(fresh, term.Var)
				}
				if !ok {
					break
				}
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range fresh {
				delete(b, v)
			}
		}
	}
	rec(0)
	sort.Strings(out)
	return out
}

func renderRow(vars []string, get func(v string) (core.ID, bool)) string {
	var sb strings.Builder
	for _, v := range vars {
		if id, ok := get(v); ok {
			fmt.Fprintf(&sb, "%s=%d ", v, id)
		} else {
			fmt.Fprintf(&sb, "%s=- ", v)
		}
	}
	return sb.String()
}

// rowsOf renders StreamRows output like naiveRows.
func rowsOf(t *testing.T, q Query, st Store, order []int, tr *obs.Trace) []string {
	t.Helper()
	var out []string
	_, err := StreamRows(nil, q, st, order, tr, func(row []core.ID) {
		out = append(out, renderRow(q.Vars, func(v string) (core.ID, bool) {
			id := row[slices.Index(q.Vars, v)]
			return id, id != core.Wildcard
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// bindingsOf renders one of the map adapters' output like naiveRows.
func bindingsOf(t *testing.T, q Query, run func(emit func(Bindings)) (ExecStats, error)) []string {
	t.Helper()
	var out []string
	if _, err := run(func(b Bindings) {
		out = append(out, renderRow(q.Vars, func(v string) (core.ID, bool) {
			id, ok := b[v]
			return id, ok
		}))
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// randomBGP draws one to three patterns over the variables a-d, each
// term a variable or a component of a random stored triple (so most
// queries have answers), and projects a non-empty random subset of the
// variables used, sometimes with a repeat or a variable no pattern binds.
func randomBGP(rng *rand.Rand, ts []core.Triple) Query {
	names := []string{"a", "b", "c", "d"}
	var q Query
	var used []string
	for range 1 + rng.Intn(3) {
		t := ts[rng.Intn(len(ts))]
		var terms [3]Term
		for k, id := range [3]core.ID{t.S, t.P, t.O} {
			if rng.Intn(2) == 0 {
				terms[k] = C(id)
				continue
			}
			v := names[rng.Intn(len(names))]
			terms[k] = V(v)
			if !slices.Contains(used, v) {
				used = append(used, v)
			}
		}
		q.Patterns = append(q.Patterns, TriplePattern{terms[0], terms[1], terms[2]})
	}
	for _, v := range used {
		if rng.Intn(3) > 0 {
			q.Vars = append(q.Vars, v)
		}
	}
	if len(used) > 0 && (len(q.Vars) == 0 || rng.Intn(8) == 0) {
		q.Vars = append(q.Vars, used[rng.Intn(len(used))])
	}
	if rng.Intn(6) == 0 || len(q.Vars) == 0 {
		q.Vars = append(q.Vars, "unbound")
	}
	return q
}

// diffStores are the executor's targets: a plain Store (nested loops
// only) and two layouts serving sorted binding streams (gallop groups).
func diffStores(t *testing.T, ts []core.Triple) map[string]Store {
	t.Helper()
	stores := map[string]Store{"slice": sliceStore(ts)}
	for _, l := range []core.Layout{core.Layout3T, core.Layout2Tp} {
		x, err := core.Build(core.NewDataset(append([]core.Triple(nil), ts...)), l)
		if err != nil {
			t.Fatal(err)
		}
		stores[l.String()] = x
	}
	return stores
}

// TestSlotExecutorDifferential runs random and hand-picked BGPs through
// StreamRows in the planned order and in a random order, and through
// every map adapter, and compares each answer multiset with naiveRows.
func TestSlotExecutorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for round := 0; round < 6; round++ {
		ts := randomTriples(rng, 80+rng.Intn(200))
		stores := diffStores(t, ts)
		s := ts[rng.Intn(len(ts))]
		fixed := []string{
			// a repeated variable in one pattern
			"SELECT ?x WHERE { ?x <1> ?x . }",
			fmt.Sprintf("SELECT ?x ?y WHERE { ?x ?y ?x . ?x <%d> ?z . }", s.P),
			// predicate-position variables, bound first and bound later
			fmt.Sprintf("SELECT ?p ?o WHERE { <%d> ?p ?o . }", s.S),
			fmt.Sprintf("SELECT ?x ?p WHERE { ?x <%d> <%d> . ?x ?p ?y . }", s.P, s.O),
			// gallop groups: a star on a subject and one on an object
			fmt.Sprintf("SELECT ?x WHERE { ?x <%d> <%d> . ?x <%d> <%d> . }", s.P, s.O, (s.P+1)%5, s.O),
			fmt.Sprintf("SELECT ?o WHERE { <%d> <%d> ?o . ?x <%d> ?o . <%d> <1> ?o . }", s.S, s.P, s.P, s.S),
			// a group behind a bound prefix, and one ahead of a join
			fmt.Sprintf("SELECT ?z ?y WHERE { <%d> <%d> ?z . ?y <1> ?z . ?y <2> ?z . }", s.S, s.P),
			fmt.Sprintf("SELECT ?x ?y WHERE { ?x <0> ?y . ?y <1> <%d> . ?y <2> <%d> . }", s.O, s.O),
		}
		var queries []Query
		for _, qs := range fixed {
			q, err := Parse(qs)
			if err != nil {
				t.Fatalf("%q: %v", qs, err)
			}
			queries = append(queries, q)
		}
		// A projected variable that no pattern binds; the parser rejects
		// it, so the query is built directly.
		queries = append(queries, Query{Vars: []string{"x", "nowhere", "x"},
			Patterns: []TriplePattern{{V("x"), C(s.P), V("y")}}})
		for range 40 {
			queries = append(queries, randomBGP(rng, ts))
		}
		for _, q := range queries {
			want := naiveRows(q, ts)
			order := Plan(q)
			shuffled := rng.Perm(len(q.Patterns))
			for name, st := range stores {
				check := func(how string, got []string) {
					t.Helper()
					if !slices.Equal(got, want) {
						t.Fatalf("round %d %s %s %v:\n got %v\nwant %v", round, name, how, q, got, want)
					}
				}
				check("StreamRows", rowsOf(t, q, st, order, nil))
				check("StreamRows shuffled", rowsOf(t, q, st, shuffled, nil))
				check("Execute", bindingsOf(t, q, func(emit func(Bindings)) (ExecStats, error) {
					return Execute(q, st, emit)
				}))
				check("ExecuteWithOrder", bindingsOf(t, q, func(emit func(Bindings)) (ExecStats, error) {
					return ExecuteWithOrder(q, st, shuffled, emit)
				}))
				check("StreamWithOrder", bindingsOf(t, q, func(emit func(Bindings)) (ExecStats, error) {
					return StreamWithOrder(context.Background(), q, st, order, emit)
				}))
			}
		}
	}
}

// TestSlotExecutorGallops checks that a gallop group behind a bound
// prefix reaches the merge-intersection path once per prefix row on a
// layout that serves sorted streams, and answers like naiveRows.
func TestSlotExecutorGallops(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	ts := randomTriples(rng, 300)
	x := diffStores(t, ts)["2Tp"]
	// The subject-predicate pair with the most objects: the prefix rows.
	counts := map[[2]core.ID]int{}
	var sp [2]core.ID
	for _, tr := range ts {
		k := [2]core.ID{tr.S, tr.P}
		if counts[k]++; counts[k] > counts[sp] {
			sp = k
		}
	}
	q, err := Parse(fmt.Sprintf("SELECT ?z ?y WHERE { <%d> <%d> ?z . ?y <1> ?z . ?y <2> ?z . }", sp[0], sp[1]))
	if err != nil {
		t.Fatal(err)
	}
	order := Plan(q)
	if order[0] != 0 {
		t.Fatalf("order %v does not start with the prefix", order)
	}
	tr := obs.AcquireTrace()
	defer tr.Release()
	tr.EnableSteps(len(order))
	if got, want := rowsOf(t, q, x, order, tr), naiveRows(q, ts); !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	steps := tr.Steps()
	if steps[0].Gallop || !steps[1].Gallop || !steps[2].Gallop {
		t.Fatalf("gallop flags %+v, want the group at steps 1-2", steps)
	}
	if int(steps[1].Calls) != counts[sp] || counts[sp] < 2 {
		t.Fatalf("group issued %d times, want once per each of %d prefix rows", steps[1].Calls, counts[sp])
	}
}

// TestSlotExecutorLimitByCancel truncates a large cross product the way
// the server applies LIMIT: the consumer cancels the context once it has
// its rows, and the executor stops within one cancellation stride. The
// rows taken are answers of the query.
func TestSlotExecutorLimitByCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	ts := randomTriples(rng, 400)
	q, err := Parse("SELECT ?a ?b WHERE { ?a <1> ?x . ?b <2> ?y . }")
	if err != nil {
		t.Fatal(err)
	}
	all := naiveRows(q, ts)
	for name, st := range diffStores(t, ts) {
		for _, limit := range []int{0, 1, 7, 100} {
			ctx, stop := context.WithCancel(context.Background())
			var got []string
			stats, err := StreamRows(ctx, q, st, Plan(q), nil, func(row []core.ID) {
				if len(got) >= limit {
					stop()
					return
				}
				got = append(got, fmt.Sprintf("a=%d b=%d ", row[0], row[1]))
			})
			stop()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s limit %d: err %v, want context.Canceled", name, limit, err)
			}
			if len(got) != limit {
				t.Fatalf("%s limit %d: took %d rows", name, limit, len(got))
			}
			if stats.Results > limit+2*cancelStride || stats.Results >= len(all) {
				t.Fatalf("%s limit %d: %d solutions computed of %d", name, limit, stats.Results, len(all))
			}
			for _, r := range got {
				if _, ok := slices.BinarySearch(all, r); !ok {
					t.Fatalf("%s limit %d: row %q is no answer", name, limit, r)
				}
			}
		}
	}
}

// qcStore routes selections through one QueryCtx, as the server does,
// so the index itself allocates nothing per query.
type qcStore struct {
	x  core.Index
	qc *core.QueryCtx
}

func (s *qcStore) Select(p core.Pattern) *core.Iterator { return core.SelectWithCtx(s.x, p, s.qc) }
func (s *qcStore) NumTriples() int                      { return s.x.NumTriples() }

// TestStreamRowsAllocs pins the executor's steady state: once its pooled
// scratch has grown, a chain join that emits hundreds of rows allocates
// nothing at all.
func TestStreamRowsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	ts := randomTriples(rng, 600)
	x, err := core.Build2Tp(core.NewDataset(append([]core.Triple(nil), ts...)))
	if err != nil {
		t.Fatal(err)
	}
	qc := core.AcquireQueryCtx()
	defer qc.Release()
	st := &qcStore{x: x, qc: qc}
	q, err := Parse("SELECT ?x ?z ?y WHERE { ?x <1> ?y . ?y <2> ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	order := Plan(q)
	rows := 0
	var sum core.ID
	emit := func(row []core.ID) {
		rows++
		sum += row[0] + row[1] + row[2]
	}
	if _, err := StreamRows(nil, q, st, order, nil, emit); err != nil {
		t.Fatal(err)
	}
	perRun := rows
	if perRun < 100 {
		t.Fatalf("only %d rows per run; the check needs a row-heavy query", perRun)
	}
	a := testing.AllocsPerRun(20, func() {
		StreamRows(nil, q, st, order, nil, emit)
	})
	// The race detector makes sync.Pool drop values at random, so a run
	// may regrow the executor's scratch; nothing may be per row even so.
	if raceEnabled && a < 16 {
		return
	}
	if a != 0 {
		t.Errorf("StreamRows: %v allocs per run of %d rows, want 0", a, perRun)
	}
}
