package sparql

import (
	"context"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
)

// Store is the index capability the executor needs; all index layouts in
// this repository and the baseline systems satisfy it.
type Store interface {
	Select(core.Pattern) *core.Iterator
	NumTriples() int
}

// Bindings maps variable names to IDs.
type Bindings map[string]core.ID

// ExecStats reports the work done by an execution: the serial
// decomposition length (number of atomic triple selection patterns
// issued) and the number of triples they matched. Table 6 of the paper
// measures exactly this decomposition's raw index speed. When a group of
// patterns is resolved by a merge-intersection instead of nested
// iteration, TriplesMatched counts only the intersected matches — the
// skipped candidates are exactly the work the join optimization saves.
type ExecStats struct {
	PatternsIssued int
	TriplesMatched int
	Results        int
}

// shapeCost ranks pattern shapes by expected selectivity; used to order
// the BGP greedily, most selective first, as TripleBit's planner does for
// the paper's benchmark.
func shapeCost(s core.Shape) int {
	switch s {
	case core.ShapeSPO:
		return 1
	case core.ShapeSxO:
		return 4
	case core.ShapeSPx:
		return 8
	case core.ShapexPO:
		return 8
	case core.ShapeSxx:
		return 64
	case core.ShapexxO:
		return 64
	case core.ShapexPx:
		return 4096
	default:
		return 1 << 20
	}
}

// substitute resolves a triple pattern against bindings, producing the
// concrete selection pattern and the still-free variable slots.
func substitute(tp TriplePattern, b Bindings) core.Pattern {
	conv := func(t Term) core.ID {
		if !t.IsVar() {
			return t.ID
		}
		if id, ok := b[t.Var]; ok {
			return id
		}
		return core.Wildcard
	}
	return core.Pattern{S: conv(tp.S), P: conv(tp.P), O: conv(tp.O)}
}

// PlanWithStats orders the BGP's patterns like Plan but replaces the
// static shape costs with measured cardinalities from the store: the cost
// of a pattern is the match count of its constants alone, probed once
// per planning step, divided by 64 per variable position already bound
// (a cheap refinement). This is the direction the paper lists as future
// work ("devising a novel query planning algorithm"); the executor
// accepts either order.
func PlanWithStats(q Query, st Store) []int {
	return greedyOrder(q, 1<<16, func(tp TriplePattern, bound map[string]bool) int {
		cost := max(countUpTo(st, substitute(tp, nil), 1<<16), 1)
		for _, t := range [3]Term{tp.S, tp.P, tp.O} {
			if t.IsVar() && bound[t.Var] {
				cost /= 64
			}
		}
		return max(cost, 1)
	})
}

// greedyOrder returns an evaluation order as indexes into q.Patterns: at
// each step, the unused pattern of least cost under the variables bound
// so far. A pattern sharing no bound variable would form a Cartesian
// product, so past the first step its cost is multiplied by penalty.
func greedyOrder(q Query, penalty int, cost func(tp TriplePattern, bound map[string]bool) int) []int {
	n := len(q.Patterns)
	used := make([]bool, n)
	bound := map[string]bool{}
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestCost := -1, 0
		for i, tp := range q.Patterns {
			if used[i] {
				continue
			}
			c := cost(tp, bound)
			if len(order) > 0 && !bound[tp.S.Var] && !bound[tp.P.Var] && !bound[tp.O.Var] {
				c *= penalty
			}
			if best < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		order = append(order, best)
		used[best] = true
		for _, t := range [3]Term{q.Patterns[best].S, q.Patterns[best].P, q.Patterns[best].O} {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	return order
}

// countUpTo counts matches of p, stopping at limit.
func countUpTo(st Store, p core.Pattern, limit int) int {
	it := st.Select(p)
	n := 0
	for n < limit {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	return n
}

// ExecuteWithOrder runs the query with an explicit evaluation order.
func ExecuteWithOrder(q Query, st Store, order []int, emit func(Bindings)) (ExecStats, error) {
	return executeOrdered(nil, q, st, order, nil, emit, false)
}

// ExecuteContext runs the query like Execute but aborts with ctx.Err()
// when the context is cancelled or its deadline passes. Cancellation is
// checked once per iteration batch (every cancelStride candidate
// triples), not per triple, so the hot loops stay branch-cheap; a runaway
// query therefore overshoots its deadline by at most one stride.
func ExecuteContext(ctx context.Context, q Query, st Store, emit func(Bindings)) (ExecStats, error) {
	return executeOrdered(ctx, q, st, Plan(q), nil, emit, false)
}

// StreamWithOrder runs the query in an explicit order, with
// cancellation, for streaming consumers: one Bindings map is reused
// across emit calls, so a solution-heavy query allocates nothing per row
// in the executor. The map passed to emit is valid only for the duration
// of the callback and must not be retained or mutated; consumers that
// keep solutions use the Execute family instead. A nil ctx disables
// cancellation.
//
//rdf:nonretaining
func StreamWithOrder(ctx context.Context, q Query, st Store, order []int, emit func(Bindings)) (ExecStats, error) {
	return executeOrdered(ctx, q, st, order, nil, emit, true)
}

// StreamTraced is StreamWithOrder with per-pattern cardinality
// recording: execution step i (plan position) of the order records into
// tr's step i — its pattern index, candidates scanned and candidates
// matched, with Gallop set for steps resolved inside a
// merge-intersection. The recorders are nil-safe no-ops unless the
// caller armed tr with EnableSteps, so the untraced cost is one
// predictable branch per candidate. The emit contract is
// StreamWithOrder's.
//
//rdf:nonretaining
func StreamTraced(ctx context.Context, q Query, st Store, order []int, tr *obs.Trace, emit func(Bindings)) (ExecStats, error) {
	return executeOrdered(ctx, q, st, order, tr, emit, true)
}

// cancelStride is the number of candidate triples examined between two
// context checks.
const cancelStride = 1024

// canceller polls a context every cancelStride ticks; a nil canceller or
// a nil context never fires.
type canceller struct {
	ctx context.Context
	n   uint32
}

func (c *canceller) check() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	c.n++
	if c.n%cancelStride != 0 {
		return nil
	}
	return c.ctx.Err()
}

// Plan orders the BGP's patterns greedily: at each step, pick the pattern
// whose shape (under the bindings accumulated so far) is cheapest. It
// returns the evaluation order as indexes into q.Patterns.
func Plan(q Query) []int {
	return greedyOrder(q, 1<<10, func(tp TriplePattern, bound map[string]bool) int {
		// Bound variables count as constants.
		fixed := func(t Term) core.ID {
			if t.IsVar() && !bound[t.Var] {
				return core.Wildcard
			}
			return t.ID
		}
		return shapeCost(core.Pattern{S: fixed(tp.S), P: fixed(tp.P), O: fixed(tp.O)}.Shape())
	})
}

// Execute runs the query against the store with nested-loop joins over
// the planned order and invokes emit for every solution. It returns the
// execution statistics.
func Execute(q Query, st Store, emit func(Bindings)) (ExecStats, error) {
	return executeOrdered(nil, q, st, Plan(q), nil, emit, false)
}

// singleFreeVar reports the variable of tp that is still unbound under
// b, provided it occupies exactly one component slot and no other slot
// is free.
func singleFreeVar(tp TriplePattern, b Bindings) (string, bool) {
	name := ""
	slots := 0
	for _, t := range []Term{tp.S, tp.P, tp.O} {
		if !t.IsVar() {
			continue
		}
		if _, bound := b[t.Var]; bound {
			continue
		}
		slots++
		if name == "" {
			name = t.Var
		} else if name != t.Var {
			return "", false
		}
	}
	return name, slots == 1
}

// bindTerm binds one pattern term against one result component:
// variables already bound must agree (consistent duplicates in the same
// pattern, e.g. ?x <p> ?x), fresh variables are recorded in nv so the
// caller can unbind them. A top-level function instead of a closure so
// the per-candidate hot loop allocates nothing.
func bindTerm(b Bindings, term Term, id core.ID, nv *[3]string, nvn *int) bool {
	if !term.IsVar() {
		return true
	}
	if prev, bound := b[term.Var]; bound {
		return prev == id
	}
	b[term.Var] = id
	nv[*nvn] = term.Var
	*nvn++
	return true
}

// executeOrdered evaluates the BGP over an explicit pattern order:
// nested-loop joins, except that maximal runs of consecutive patterns
// sharing their single free variable are resolved with a leapfrog
// merge-intersection of the sorted binding streams the index serves
// natively (core.VarSelecter), skipping over non-joining candidates with
// NextGEQ instead of enumerating them. With reuseEmit, one output map is
// cleared and refilled per solution instead of allocated fresh.
func executeOrdered(ctx context.Context, q Query, st Store, order []int, tr *obs.Trace, emit func(Bindings), reuseEmit bool) (ExecStats, error) {
	var stats ExecStats
	bindings := Bindings{}
	out := Bindings{}
	vs, hasVS := st.(core.VarSelecter)
	var cancel *canceller
	if ctx != nil {
		cancel = &canceller{ctx: ctx}
	}
	// Per-step scratch for the variables each recursion level binds;
	// hoisted out of the candidate loop so the hot path stays
	// allocation-free.
	newVars := make([][3]string, len(order))
	var rec func(step int) error
	rec = func(step int) error {
		if step == len(order) {
			stats.Results++
			if emit != nil {
				if reuseEmit {
					clear(out)
				} else {
					out = Bindings{}
				}
				for _, v := range q.Vars {
					if id, ok := bindings[v]; ok {
						out[v] = id
					}
				}
				emit(out)
			}
			return nil
		}
		tp := q.Patterns[order[step]]
		pat := substitute(tp, bindings)
		// A gallop group needs at least two patterns, so the innermost
		// step (the hot path of the recursion) skips detection entirely.
		if hasVS && step+1 < len(order) {
			if v, ok := singleFreeVar(tp, bindings); ok {
				group := []core.Pattern{pat}
				for g := step + 1; g < len(order); g++ {
					tp2 := q.Patterns[order[g]]
					if v2, ok2 := singleFreeVar(tp2, bindings); !ok2 || v2 != v {
						break
					}
					group = append(group, substitute(tp2, bindings))
				}
				if len(group) >= 2 {
					if done, err := execGallop(vs, group, v, bindings, &stats, cancel, tr, step, order, func() error {
						return rec(step + len(group))
					}); done {
						return err
					}
				}
			}
		}
		stats.PatternsIssued++
		tr.StepIssued(step, order[step], false)
		it := st.Select(pat)
		nv := &newVars[step]
		for {
			t, ok := it.Next()
			if !ok {
				return nil
			}
			stats.TriplesMatched++
			tr.StepScanned(step)
			if err := cancel.check(); err != nil {
				return err
			}
			nvn := 0
			okBind := bindTerm(bindings, tp.S, t.S, nv, &nvn) &&
				bindTerm(bindings, tp.P, t.P, nv, &nvn) &&
				bindTerm(bindings, tp.O, t.O, nv, &nvn)
			if okBind {
				tr.StepMatched(step)
				if err := rec(step + 1); err != nil {
					return err
				}
			}
			for i := 0; i < nvn; i++ {
				delete(bindings, nv[i])
			}
		}
	}
	if err := rec(0); err != nil {
		return stats, err
	}
	return stats, nil
}

// execGallop intersects the sorted binding streams of a group of
// patterns that share their single free variable v, invoking found for
// every common value with v bound. done is false when the store cannot
// serve one of the streams (the caller falls back to nested iteration).
func execGallop(vs core.VarSelecter, group []core.Pattern, v string,
	bindings Bindings, stats *ExecStats, cancel *canceller, tr *obs.Trace, step int, order []int, found func() error) (done bool, err error) {
	its := make([]*core.VarIter, len(group))
	for i, p := range group {
		it, ok := vs.SelectVarSorted(p)
		if !ok {
			return false, nil
		}
		its[i] = it
	}
	stats.PatternsIssued += len(group)
	if tr != nil {
		for i := range group {
			tr.StepIssued(step+i, order[step+i], true)
		}
	}
	// Leapfrog: keep one candidate per stream; advance every stream below
	// the maximum with a NextGEQ skip, and report when all candidates
	// agree. Values are distinct within a stream, so each agreement is
	// exactly one solution.
	cand := make([]core.ID, len(its))
	for i, it := range its {
		c, ok := it.Next()
		tr.StepScanned(step + i)
		if !ok {
			return true, nil
		}
		cand[i] = c
	}
	for {
		if err := cancel.check(); err != nil {
			return true, err
		}
		maxv := cand[0]
		for _, c := range cand[1:] {
			if c > maxv {
				maxv = c
			}
		}
		agree := true
		for i, it := range its {
			if cand[i] < maxv {
				c, ok := it.NextGEQ(maxv)
				tr.StepScanned(step + i)
				if !ok {
					return true, nil
				}
				cand[i] = c
				if c != maxv {
					agree = false
				}
			}
		}
		if !agree {
			continue
		}
		stats.TriplesMatched += len(group)
		if tr != nil {
			for i := range its {
				tr.StepMatched(step + i)
			}
		}
		bindings[v] = maxv
		err := found()
		delete(bindings, v)
		if err != nil {
			return true, err
		}
		c, ok := its[0].Next()
		tr.StepScanned(step)
		if !ok {
			return true, nil
		}
		cand[0] = c
	}
}

// Decompose runs the query and returns the sequence of atomic selection
// patterns it issued, in execution order. This is the paper's Table 6
// methodology: the same decomposition is replayed against each index so
// that all systems execute identical pattern sequences. The executor
// runs over a recorder that hides any core.VarSelecter of st, so the
// sequence is the plain nested-loop one, without merge-intersections.
func Decompose(q Query, st Store) ([]core.Pattern, error) {
	rec := &recorder{Store: st}
	_, err := executeOrdered(nil, q, rec, Plan(q), nil, nil, false)
	return rec.issued, err
}

// recorder is a Store that logs every selection it serves. Embedding the
// interface promotes Select and NumTriples only, never VarSelecter.
type recorder struct {
	Store
	issued []core.Pattern
}

func (r *recorder) Select(p core.Pattern) *core.Iterator {
	r.issued = append(r.issued, p)
	return r.Store.Select(p)
}

// Replay executes a pre-computed pattern decomposition against a store,
// draining every iterator, and returns the total matches. All indexes
// replay the same sequence, which is how Table 6 compares raw speed.
func Replay(patterns []core.Pattern, st Store) int {
	total := 0
	for _, p := range patterns {
		it := st.Select(p)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			total++
		}
	}
	return total
}
