package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

// The traced run replays a seeded request sequence of the workload
// in-process, one request at a time, three ways: through
// Server.ServeHTTP (the untraced in-handler time and its cache verdict),
// through the same module calls the handler makes with no spans (the
// untraced layer total), and through those calls with a span around each
// (the per-layer split). Spans are recorded only here, around calls
// into the program's public functions; the program itself is not
// instrumented.

// Span names: one per layer boundary the replay times.
const (
	spHandler   = iota // the whole emulated request
	spTranslate        // store.Store.TranslateQuery
	spParse            // sparql.Parse
	spPlan             // sparql.Plan
	spExec             // the executor, sparql.StreamWithOrder
	spCore             // core selects and iterator refills
	spResults          // results.Writer calls
	numSpans
)

var spanNames = [numSpans]string{"server.handler", "store.translate", "sparql.parse", "sparql.plan", "sparql.exec", "core.select", "results.write"}

type span struct {
	req        int32
	name       uint8
	parent     int32 // index into tracer.spans, -1 for a root
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	req   int32
}

func (t *tracer) begin(name uint8) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{req: t.req, name: name, parent: parent, start: int64(time.Since(t.epoch))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = int64(time.Since(t.epoch))
}

// plainStore mirrors the handler's adapter: selects go through a pooled
// QueryCtx and sorted-variable streams are forwarded when the index
// serves them.
type plainStore struct {
	x  core.Index
	qc *core.QueryCtx
}

func (s plainStore) Select(p core.Pattern) *core.Iterator { return core.SelectWithCtx(s.x, p, s.qc) }
func (s plainStore) NumTriples() int                      { return s.x.NumTriples() }
func (s plainStore) SelectVarSorted(p core.Pattern) (*core.VarIter, bool) {
	if vs, ok := s.x.(core.VarSelecter); ok {
		return vs.SelectVarSorted(p)
	}
	return nil, false
}

// timedStore is plainStore with a core span around every select and
// every block its iterators decode. VarIter advances happen inside the
// executor's leapfrog loop and are charged to the join.
type timedStore struct {
	plainStore
	tr      *tracer
	triples int
}

func (s *timedStore) Select(p core.Pattern) *core.Iterator {
	s.tr.begin(spCore)
	it := s.plainStore.Select(p)
	s.tr.end()
	return core.NewBlockIterator(&timedSource{it: it, s: s})
}

func (s *timedStore) SelectVarSorted(p core.Pattern) (*core.VarIter, bool) {
	s.tr.begin(spCore)
	defer s.tr.end()
	return s.plainStore.SelectVarSorted(p)
}

type timedSource struct {
	it *core.Iterator
	s  *timedStore
}

func (t *timedSource) Fill(out []core.Triple) int {
	t.s.tr.begin(spCore)
	n := t.it.NextBatch(out)
	t.s.tr.end()
	t.s.triples += n
	return n
}

// countWriter counts the serialized bytes.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// request is one replayed request and what the replays measured.
type request struct {
	q       *query
	f       results.Format
	httpReq *http.Request
	hit     bool // the handler answered from its result cache

	handler  time.Duration // Server.ServeHTTP, untraced
	untraced time.Duration // emulated module calls, no spans
	traced   time.Duration // emulated module calls, root span
	self     [numSpans]int64
	triples  int
	rows     int
	bytes    int
	stats    sparql.ExecStats
	ids      []core.ID // solution IDs in row order
	extract  time.Duration
	terms    int
}

// emulate performs the calls the /sparql handler makes for one request,
// in its order: TranslateQuery and Parse, then, unless the handler
// answered from its result cache, Plan, the streaming executor over the
// index, and the results.Writer (which extracts terms from the
// dictionaries as it writes). With a tracer, each call gets a span.
func emulate(st *store.Store, r *request, tr *tracer) error {
	tr.begin(spHandler)
	defer tr.end()
	tr.begin(spTranslate)
	translated, err := st.TranslateQuery(r.q.text)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(spParse)
	q, err := sparql.Parse(translated)
	tr.end()
	if err != nil || r.hit {
		return err
	}
	tr.begin(spPlan)
	order := sparql.Plan(q)
	tr.end()

	qc := core.AcquireQueryCtx()
	defer func() {
		tr.begin(spCore)
		qc.Release()
		tr.end()
	}()
	var adapter sparql.Store = plainStore{x: st.Index, qc: qc}
	var timed *timedStore
	if tr != nil {
		timed = &timedStore{plainStore: plainStore{x: st.Index, qc: qc}, tr: tr}
		adapter = timed
	}
	cw := &countWriter{}
	tr.begin(spResults)
	wr := results.Acquire(r.f, st, cw)
	defer func() {
		tr.begin(spResults)
		wr.Release()
		tr.end()
	}()
	wr.Begin(q.Vars)
	tr.end()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	rows, limit := 0, r.q.limit
	r.ids = r.ids[:0]
	tr.begin(spExec)
	stats, err := sparql.StreamWithOrder(ctx, q, adapter, order, func(b sparql.Bindings) {
		if limit >= 0 && rows >= limit {
			stop()
			return
		}
		tr.begin(spResults)
		wr.WriteSolution(b)
		if tr != nil {
			for _, v := range q.Vars {
				r.ids = append(r.ids, b[v])
			}
		}
		tr.end()
		rows++
	})
	tr.end()
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	tr.begin(spResults)
	wr.End()
	err = wr.Flush()
	tr.end()
	if err != nil {
		return err
	}
	if rows != r.q.rows() {
		return fmt.Errorf("%s: replay produced %d rows, oracle %d", r.q.text, rows, r.q.rows())
	}
	r.rows, r.bytes, r.stats = rows, cw.n, stats
	if timed != nil {
		r.triples = timed.triples
	}
	return nil
}

// writerTermCache is the size of results.Writer's per-request encoded
// term cache: the writer extracts each distinct term once while the
// cache has room, and every occurrence after it is full.
const writerTermCache = 1 << 14

// timeExtract times, outside any span, the extraction the writer did
// for the request: each term it extracted, in row order.
func timeExtract(st *store.Store, r *request) {
	var todo []int
	seen := map[core.ID]bool{}
	for _, id := range r.ids {
		if seen[id] {
			continue
		}
		if len(seen) < writerTermCache {
			seen[id] = true
		}
		todo = append(todo, int(id))
	}
	ex := dict.NewExtractor(st.Dicts.SO)
	t := time.Now()
	for _, id := range todo {
		ex.Extract(id)
	}
	r.extract, r.terms = time.Since(t), len(todo)
}

// timeLocate times dictionary Locate over the constants of the
// replayed queries, in request order, and returns ns per term.
func timeLocate(st *store.Store, reqs []*request) float64 {
	type term struct {
		s    string
		pred bool
	}
	var terms []term
	for _, r := range reqs {
		q := r.q
		for _, c := range []term{{q.s, false}, {q.p, true}, {q.o, false}, {q.p2, true}} {
			if c.s != "" {
				terms = append(terms, c)
			}
		}
	}
	t := time.Now()
	for _, c := range terms {
		if c.pred {
			st.Dicts.P.Locate(c.s)
		} else {
			st.Dicts.SO.Locate(c.s)
		}
	}
	return float64(time.Since(t)) / float64(max(len(terms), 1))
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct {
	h    http.Header
	code int
	keep []byte // non-nil: the body is kept
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(c int)   { d.code = c }
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	if d.keep != nil {
		d.keep = append(d.keep, p...)
	}
	return len(p), nil
}

// replayRequests is how many requests of the sequence each replay
// covers: scan answers run to 50k rows, and each row is a span.
func replayRequests(workload string) int {
	if workload == "scan" {
		return 60
	}
	return 3000
}

// traceLayers runs the replays and sets the per-layer metrics.
func traceLayers(res *result, cfg config, in *instance, spec workloadSpec, queryP50 time.Duration) error {
	// The replayed sequence is a further client's, continuing the shared
	// sequence where there is one: the measured client's own requests
	// are in the result cache by now.
	rd := newReader(nil, "", spec, cfg.seed, 1)
	reqs := make([]*request, replayRequests(cfg.workload))
	for i := range reqs {
		q, f := rd.next()
		hr, err := http.NewRequest(http.MethodGet, "/sparql?"+q.rawQS, nil)
		if err != nil {
			return err
		}
		hr.Header.Set("Accept", f.ContentType())
		reqs[i] = &request{q: q, f: f, httpReq: hr}
	}

	// 1. ServeHTTP, untraced, on a discarding writer.
	w := &discardResponse{h: http.Header{}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		clear(w.h)
		w.code = 0
		t := time.Now()
		in.srv.ServeHTTP(w, r.httpReq)
		r.handler = time.Since(t)
		if w.code != http.StatusOK {
			return fmt.Errorf("replay %s: status %d", r.q.text, w.code)
		}
		r.hit = w.h.Get("X-Cache") == "hit"
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(reqs))
	res.set("server.allocs_per_req", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	res.set("server.alloc_bytes_per_req", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/n)

	// 2. The handler's module calls, untraced.
	st := in.mut.View()
	failed := 0
	for _, r := range reqs {
		t := time.Now()
		err := emulate(st, r, nil)
		r.untraced = time.Since(t)
		if err != nil {
			return err
		}
	}

	// 3. The same calls with spans.
	tr := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
	for i, r := range reqs {
		tr.req = int32(i)
		if err := emulate(st, r, tr); err != nil {
			return err
		}
		timeExtract(st, r)
	}
	maxGap, err := reconcile(tr.spans, reqs)
	if err != nil {
		res.printf("trace: reconciliation failed: %v", err)
		failed++
	}
	res.printf("trace: %d requests replayed (%d result-cache hits), %d spans; layer self-times sum to the traced in-handler total (largest gap %d ns)",
		len(reqs), countHits(reqs), len(tr.spans), maxGap)
	if err := writeSpans(cfg.spansPath, tr.spans); err != nil {
		return err
	}
	res.line.Attempted += len(reqs)
	res.line.Failed += failed

	// 4. The client alone, against canned answers.
	perReq, err := loadgenCost(in, reqs)
	if err != nil {
		return err
	}
	setLayerMetrics(res, reqs, queryP50)
	res.set("dict.locate_ns_per_term", "ns", timeLocate(st, reqs))
	res.set("loadgen.us_per_req", "us", us(perReq))
	return nil
}

func countHits(reqs []*request) int {
	n := 0
	for _, r := range reqs {
		if r.hit {
			n++
		}
	}
	return n
}

// reconcile computes every span's self time, its duration minus its
// children's, sums them per request and layer, and checks that the
// spans nest and that the layer self-times add up to each request's
// traced total. It returns the largest discrepancy in ns.
func reconcile(spans []span, reqs []*request) (int64, error) {
	child := make([]int64, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			return 0, fmt.Errorf("span %d (%s) ends before it starts", i, spanNames[s.name])
		}
		if s.parent >= 0 {
			p := spans[s.parent]
			if s.start < p.start || s.end > p.end || p.req != s.req {
				return 0, fmt.Errorf("span %d (%s) lies outside its parent %s", i, spanNames[s.name], spanNames[p.name])
			}
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		r := reqs[s.req]
		r.self[s.name] += s.end - s.start - child[i]
		if s.parent < 0 {
			r.traced = time.Duration(s.end - s.start)
		}
	}
	var worst int64
	for i, r := range reqs {
		var sum int64
		for _, v := range r.self {
			sum += v
		}
		gap := sum - int64(r.traced)
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
		if gap > 0 {
			return worst, fmt.Errorf("request %d: layer self-times sum to %d ns, traced total %d ns", i, sum, r.traced)
		}
	}
	return worst, nil
}

// writeSpans writes the spans as tab-separated lines once the replay
// is over.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "request\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setLayerMetrics derives the per-layer metrics from the replays.
// Per-request times are medians over the requests where the layer ran;
// per-triple, per-row and per-term figures are ratios of sums.
func setLayerMetrics(res *result, reqs []*request, queryP50 time.Duration) {
	var handler, self, traced, untraced, translate, parse, plan, join, coreq []time.Duration
	var coreNs, triples, resNs, extract, terms, rows, bytes int64
	var patterns, matched, solutions, misses int64
	for _, r := range reqs {
		handler = append(handler, r.handler)
		self = append(self, r.handler-r.untraced)
		traced = append(traced, r.traced)
		untraced = append(untraced, r.untraced)
		translate = append(translate, time.Duration(r.self[spTranslate]))
		parse = append(parse, time.Duration(r.self[spParse]))
		if r.hit {
			continue
		}
		misses++
		plan = append(plan, time.Duration(r.self[spPlan]))
		join = append(join, time.Duration(r.self[spExec]))
		coreq = append(coreq, time.Duration(r.self[spCore]))
		coreNs += r.self[spCore]
		triples += int64(r.triples)
		resNs += r.self[spResults]
		extract += int64(r.extract)
		terms += int64(r.terms)
		rows += int64(r.rows)
		bytes += int64(r.bytes)
		patterns += int64(r.stats.PatternsIssued)
		matched += int64(r.stats.TriplesMatched)
		solutions += int64(r.stats.Results)
	}
	div := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	p50 := func(d []time.Duration) time.Duration {
		sortDurations(d)
		return percentile(d, 0.5)
	}
	hp50 := p50(handler)
	res.set("server.handler_us", "us", us(hp50))
	res.set("server.self_us", "us", us(p50(self)))
	res.set("server.wire_us", "us", us(queryP50-hp50))
	res.set("trace.handler_us", "us", us(p50(traced)))
	res.set("trace.overhead_us", "us", us(p50(traced)-p50(untraced)))
	res.set("store.translate_us", "us", us(p50(translate)))
	res.set("sparql.parse_us", "us", us(p50(parse)))
	res.set("sparql.plan_us", "us", us(p50(plan)))
	res.set("sparql.join_self_us", "us", us(p50(join)))
	res.set("sparql.patterns_per_query", "count", div(patterns, misses))
	res.set("sparql.matched_per_row", "ratio", div(matched, solutions))
	res.set("core.select_ns_per_triple", "ns", div(coreNs, triples))
	res.set("core.select_us_per_query", "us", us(p50(coreq)))
	res.set("dict.extract_ns_per_term", "ns", div(extract, terms))
	res.set("results.self_ns_per_row", "ns", div(resNs-extract, rows))
	res.set("results.bytes_per_row", "B", div(bytes, rows))
}

// loadgenCost measures the client alone: the same reader code against a
// stub handler that replays canned answers of the replayed requests. It
// returns the wall time per request.
func loadgenCost(in *instance, reqs []*request) (time.Duration, error) {
	const maxCanned = 64 << 20
	type canned struct {
		q    *query
		f    results.Format
		body []byte
	}
	var list []canned
	size := 0
	for _, r := range reqs {
		if size > maxCanned {
			break
		}
		w := &discardResponse{h: http.Header{}, keep: []byte{}}
		in.srv.ServeHTTP(w, r.httpReq)
		list = append(list, canned{r.q, r.f, w.keep})
		size += len(w.keep)
	}
	bodies := map[string][]byte{}
	for _, c := range list {
		bodies[c.q.rawQS+"|"+c.f.ContentType()] = c.body
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := bodies[r.URL.RawQuery+"|"+r.Header.Get("Accept")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(body)
	})}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	hc := newHTTPClient()
	rd := &reader{hc: hc, base: "http://" + ln.Addr().String(), sample: rand.New(rand.NewSource(0))}

	const window = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	var all opStats
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		k := list[i%len(list)]
		all.attempted++
		_, body, err := rd.do(k.q, k.f)
		if err == nil {
			err = rd.check(k.q, k.f, body)
		}
		if err != nil {
			all.fail(err)
		}
	}
	el := time.Since(start)
	hc.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	err = hs.Shutdown(sctx)
	if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	if all.failed > 0 {
		return 0, fmt.Errorf("load generator against canned answers: %d of %d failed: %s", all.failed, all.attempted, all.firstErr)
	}
	return el / time.Duration(all.attempted), nil
}
