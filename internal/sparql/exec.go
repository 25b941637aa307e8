package sparql

import (
	"context"
	"sync"

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

// constPattern is tp with every variable left as a wildcard: the
// selection its constants alone make.
func constPattern(tp TriplePattern) core.Pattern {
	conv := func(t Term) core.ID {
		if t.IsVar() {
			return core.Wildcard
		}
		return t.ID
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
		cost := max(countUpTo(st, constPattern(tp), 1<<16), 1)
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

// StreamRows evaluates the BGP over an explicit pattern order and hands
// every solution to emit as one row: row[i] is the ID bound to
// q.Vars[i], or core.Wildcard for a projected variable no pattern binds.
// It is the executor core; every other entry point adapts it.
//
// Variables live in dense slots of one reused []core.ID rather than in
// a map, and the row slice is reused too, so a solution-heavy query
// allocates nothing per candidate or per row. The row is valid only for
// the duration of the callback and must not be retained or mutated.
//
// A non-nil ctx is polled once every cancelStride candidate triples
// (also inside merge-intersections), and its error aborts the run; a
// runaway query overshoots its deadline by at most one stride. A
// non-nil tr armed with EnableSteps records, at each execution step i
// (plan position), its pattern index and the candidates scanned and
// matched, with Gallop set for steps resolved inside a
// merge-intersection; the recorders are nil-safe no-ops otherwise.
//
//rdf:nonretaining
func StreamRows(ctx context.Context, q Query, st Store, order []int, tr *obs.Trace, emit func(row []core.ID)) (ExecStats, error) {
	e := execPool.Get().(*executor)
	stats, err := e.run(ctx, q, st, order, tr, emit)
	e.release()
	execPool.Put(e)
	return stats, err
}

// Execute runs the query in the planned order and invokes emit with a
// fresh Bindings map per solution, which the caller may keep. Projected
// variables that no pattern binds are absent from the map.
func Execute(q Query, st Store, emit func(Bindings)) (ExecStats, error) {
	return ExecuteWithOrder(q, st, Plan(q), emit)
}

// ExecuteWithOrder is Execute with an explicit evaluation order.
func ExecuteWithOrder(q Query, st Store, order []int, emit func(Bindings)) (ExecStats, error) {
	return StreamRows(nil, q, st, order, nil, bindingsEmit(q.Vars, emit, false))
}

// StreamWithOrder is the map form of StreamRows, with cancellation: one
// Bindings map is cleared and refilled per solution. The map passed to
// emit is valid only for the duration of the callback and must not be
// retained or mutated; consumers that keep solutions use Execute. A nil
// ctx disables cancellation.
//
//rdf:nonretaining
func StreamWithOrder(ctx context.Context, q Query, st Store, order []int, emit func(Bindings)) (ExecStats, error) {
	return StreamRows(ctx, q, st, order, nil, bindingsEmit(q.Vars, emit, true))
}

// bindingsEmit adapts a Bindings consumer to rows: reuse refills one map,
// otherwise each row gets a fresh one.
func bindingsEmit(vars []string, emit func(Bindings), reuse bool) func([]core.ID) {
	if emit == nil {
		return nil
	}
	b := Bindings{}
	return func(row []core.ID) {
		if reuse {
			clear(b)
		} else {
			b = make(Bindings, len(vars))
		}
		for i, v := range vars {
			if row[i] != core.Wildcard {
				b[v] = row[i]
			}
		}
		emit(b)
	}
}

// cancelStride is the number of candidate triples examined between two
// context checks.
const cancelStride = 1024

// canceller polls a context every cancelStride ticks; a nil context
// never fires.
type canceller struct {
	ctx context.Context
	n   uint32
}

func (c *canceller) check() error {
	if c.ctx == nil {
		return nil
	}
	c.n++
	if c.n%cancelStride != 0 {
		return nil
	}
	return c.ctx.Err()
}

// step is one plan position compiled against the variable slots. Which
// variables are bound when a step runs is fixed by the order, so each
// component is decided once per execution: a constant, a slot an
// earlier step bound (read into the selection pattern), a slot this
// step binds from the candidate, or a repeat of this step's own fresh
// variable (the candidate must agree with itself, as in ?x <p> ?x).
type step struct {
	pattern int        // index into Query.Patterns
	consts  [3]core.ID // constant components; core.Wildcard where a variable sits
	in      [3]int32   // slot read into the pattern, or -1
	out     [3]int32   // slot bound from the candidate, or -1
	same    [3]int8    // earlier component this one must equal, or -1
	dup     bool       // some same[k] is set
	// gallop is the length of the merge-intersection group starting at
	// this step (0 when none): the run of consecutive steps whose only
	// free component is this step's single fresh variable.
	gallop int
}

// executor holds one execution's state; pooled, so a query allocates
// nothing in the executor once its scratch has grown.
type executor struct {
	st    Store
	vs    core.VarSelecter
	emit  func([]core.ID)
	tr    *obs.Trace
	stats ExecStats
	cncl  canceller

	names []string  // variable of each slot
	bound []bool    // compile scratch: slot bound by an earlier step
	steps []step    // the order, compiled
	bind  []core.ID // per slot; core.Wildcard until first bound
	proj  []int32   // slot of each projected variable
	row   []core.ID // the emitted row, in projection order

	its  []*core.VarIter // gallop streams, indexed by step
	cand []core.ID       // gallop candidates, indexed by step
}

var execPool = sync.Pool{New: func() any { return new(executor) }}

// release drops every reference into the caller's request so a pooled
// executor pins nothing.
func (e *executor) release() {
	e.st, e.vs, e.emit, e.tr, e.cncl = nil, nil, nil, nil, canceller{}
	clear(e.names)
	clear(e.its)
}

// slot returns the slot of variable v, numbering it on first sight.
func (e *executor) slot(v string) int32 {
	for i, n := range e.names {
		if n == v {
			return int32(i)
		}
	}
	e.names = append(e.names, v)
	return int32(len(e.names) - 1)
}

// compile numbers the variables in order of first sight, projected ones
// first, and resolves every step of order against the slots.
func (e *executor) compile(q Query, order []int) {
	e.names = e.names[:0]
	e.proj = e.proj[:0]
	for _, v := range q.Vars {
		e.proj = append(e.proj, e.slot(v))
	}
	e.steps = e.steps[:0]
	e.bound = e.bound[:0]
	for _, pi := range order {
		tp := q.Patterns[pi]
		sp := step{pattern: pi, in: [3]int32{-1, -1, -1}, out: [3]int32{-1, -1, -1}, same: [3]int8{-1, -1, -1}}
		for k, t := range [3]Term{tp.S, tp.P, tp.O} {
			sp.consts[k] = t.ID
			if !t.IsVar() {
				continue
			}
			sp.consts[k] = core.Wildcard
			s := e.slot(t.Var)
			for len(e.bound) < len(e.names) {
				e.bound = append(e.bound, false)
			}
			if e.bound[s] {
				sp.in[k] = s
				continue
			}
			for j := 0; j < k; j++ {
				if sp.out[j] == s {
					sp.same[k] = int8(j)
					sp.dup = true
					break
				}
			}
			if sp.same[k] < 0 {
				sp.out[k] = s
			}
		}
		for _, s := range sp.out {
			if s >= 0 {
				e.bound[s] = true
			}
		}
		e.steps = append(e.steps, sp)
	}
	for i := range e.steps {
		e.steps[i].gallop = e.groupAt(i)
	}
	e.bind = e.bind[:0]
	for range e.names {
		e.bind = append(e.bind, core.Wildcard)
	}
	e.row = e.row[:0]
	for range e.proj {
		e.row = append(e.row, core.Wildcard)
	}
	for len(e.its) < len(e.steps) {
		e.its = append(e.its, nil)
		e.cand = append(e.cand, 0)
	}
}

// fresh counts the components step sp binds from its candidate or
// checks against another of its components.
func (sp *step) fresh() int {
	n := 0
	for k := range sp.out {
		if sp.out[k] >= 0 || sp.same[k] >= 0 {
			n++
		}
	}
	return n
}

// reads counts the components that read slot v into the pattern.
func (sp *step) reads(v int32) int {
	n := 0
	for _, s := range sp.in {
		if s == v {
			n++
		}
	}
	return n
}

// single reports the slot of the step's only free component: exactly
// one fresh variable in exactly one position.
func (sp *step) single() (int32, bool) {
	if sp.fresh() == 1 {
		for _, s := range sp.out {
			if s >= 0 {
				return s, true
			}
		}
	}
	return -1, false
}

// groupAt returns the length of the merge-intersection group starting
// at step i, or 0. A group needs two patterns, and each later member's
// only free component, with the group's variable unbound again, is that
// variable: it reads the variable in exactly one position and binds
// nothing.
func (e *executor) groupAt(i int) int {
	v, ok := e.steps[i].single()
	if !ok {
		return 0
	}
	n := 1
	for _, sp := range e.steps[i+1:] {
		if sp.fresh() != 0 || sp.reads(v) != 1 {
			break
		}
		n++
	}
	if n < 2 {
		return 0
	}
	return n
}

// pattern is the selection step sp issues under the current bindings.
func (e *executor) pattern(sp *step) core.Pattern {
	c := sp.consts
	for k, s := range sp.in {
		if s >= 0 {
			c[k] = e.bind[s]
		}
	}
	return core.Pattern{S: c[0], P: c[1], O: c[2]}
}

// run executes one query on e; the caller's arguments stay in e only
// until release.
func (e *executor) run(ctx context.Context, q Query, st Store, order []int, tr *obs.Trace, emit func([]core.ID)) (ExecStats, error) {
	e.compile(q, order)
	e.st, e.emit, e.tr = st, emit, tr
	e.vs, _ = st.(core.VarSelecter)
	e.cncl = canceller{ctx: ctx}
	e.stats = ExecStats{}
	err := e.rec(0)
	return e.stats, err
}

// rec evaluates step s and everything after it: nested-loop joins,
// except that a gallop group is resolved with a leapfrog
// merge-intersection of the sorted binding streams the index serves
// natively (core.VarSelecter), skipping over non-joining candidates with
// NextGEQ instead of enumerating them. A slot bound at step s is only
// read by later steps, which backtracking re-runs after every rebind,
// so nothing is ever unbound.
func (e *executor) rec(s int) error {
	if s == len(e.steps) {
		e.stats.Results++
		if e.emit != nil {
			for i, slot := range e.proj {
				e.row[i] = e.bind[slot]
			}
			e.emit(e.row)
		}
		return nil
	}
	sp := &e.steps[s]
	if sp.gallop > 0 && e.vs != nil {
		if done, err := e.gallop(s); done {
			return err
		}
	}
	e.stats.PatternsIssued++
	e.tr.StepIssued(s, sp.pattern, false)
	it := e.st.Select(e.pattern(sp))
	for {
		t, ok := it.Next()
		if !ok {
			return nil
		}
		e.stats.TriplesMatched++
		e.tr.StepScanned(s)
		if err := e.cncl.check(); err != nil {
			return err
		}
		c := [3]core.ID{t.S, t.P, t.O}
		if sp.dup && (sp.same[1] >= 0 && c[1] != c[sp.same[1]] || sp.same[2] >= 0 && c[2] != c[sp.same[2]]) {
			continue
		}
		for k, slot := range sp.out {
			if slot >= 0 {
				e.bind[slot] = c[k]
			}
		}
		e.tr.StepMatched(s)
		if err := e.rec(s + 1); err != nil {
			return err
		}
	}
}

// gallop intersects the sorted binding streams of the group starting at
// step s, continuing with the steps after the group for every common
// value of the group's variable. done is false when the store cannot
// serve one of the streams (the caller falls back to nested iteration).
func (e *executor) gallop(s int) (done bool, err error) {
	n := e.steps[s].gallop
	v, _ := e.steps[s].single()
	// The members read v into their patterns; unbound, it is their
	// wildcard.
	e.bind[v] = core.Wildcard
	its, cand := e.its[s:s+n], e.cand[s:s+n]
	for i := range its {
		it, ok := e.vs.SelectVarSorted(e.pattern(&e.steps[s+i]))
		if !ok {
			return false, nil
		}
		its[i] = it
	}
	e.stats.PatternsIssued += n
	if e.tr != nil {
		for i := range its {
			e.tr.StepIssued(s+i, e.steps[s+i].pattern, true)
		}
	}
	// Leapfrog: keep one candidate per stream; advance every stream below
	// the maximum with a NextGEQ skip, and report when all candidates
	// agree. Values are distinct within a stream, so each agreement is
	// exactly one solution.
	for i, it := range its {
		c, ok := it.Next()
		e.tr.StepScanned(s + i)
		if !ok {
			return true, nil
		}
		cand[i] = c
	}
	for {
		if err := e.cncl.check(); err != nil {
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
				e.tr.StepScanned(s + i)
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
		e.stats.TriplesMatched += n
		if e.tr != nil {
			for i := range its {
				e.tr.StepMatched(s + i)
			}
		}
		e.bind[v] = maxv
		if err := e.rec(s + n); err != nil {
			return true, err
		}
		c, ok := its[0].Next()
		e.tr.StepScanned(s)
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
	_, err := StreamRows(nil, q, rec, Plan(q), nil, nil)
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
