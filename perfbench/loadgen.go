package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"rdfindexes/internal/server/results"
	"rdfindexes/internal/store"
)

// newHTTPClient returns a keep-alive client for one closed-loop caller.
// Compression is off, so requests carry no Accept-Encoding and the
// server's gzip path never runs.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

// reader is one closed-loop query client: it sends its next request
// only after the previous answer has been read and checked.
type reader struct {
	hc      *http.Client
	base    string
	pool    []*query
	draw    *drawer
	formats []results.Format
	sample  *rand.Rand // picks the responses whose content is digested
	// gate, when set, receives a token after every readsPerWrite
	// requests, up to its capacity: it paces a writer by this reader.
	gate  chan<- struct{}
	gated int
	buf   bytes.Buffer
	n     int // requests drawn, rotates the formats
}

// digestEvery is the share (1 in n) of complete answers whose content is
// decoded and digested; every answer's row count is checked.
const digestEvery = 16

// opStats counts one operation type and its successful operations.
type opStats struct {
	ok        []sample
	attempted int
	failed    int
	firstErr  string
}

// sample is one successful operation.
type sample struct {
	lat  time.Duration
	rows int
}

// latencies returns the sorted latencies.
func (s *opStats) latencies() []time.Duration {
	d := make([]time.Duration, len(s.ok))
	for i, x := range s.ok {
		d[i] = x.lat
	}
	sortDurations(d)
	return d
}

func (s *opStats) fail(err error) {
	s.failed++
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

// next returns the next request of the client's sequence. Formats
// rotate per client, or along the shared sequence when there is one.
func (r *reader) next() (*query, results.Format) {
	i, pos := r.draw.next()
	if pos < 0 {
		pos = r.n
		r.n++
	}
	return r.pool[i], r.formats[pos%len(r.formats)]
}

// do sends one request and returns its latency, from send until the
// whole body is read, and the body.
func (r *reader) do(q *query, f results.Format) (time.Duration, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, r.base+"/sparql?"+q.rawQS, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Accept", f.ContentType())
	t := time.Now()
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	r.buf.Reset()
	_, err = r.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("%s: status %d: %.200s", q.text, resp.StatusCode, r.buf.Bytes())
	}
	return lat, r.buf.Bytes(), nil
}

// check compares an answer with the oracle: the row count always, the
// content digest on the seeded sample of complete answers.
func (r *reader) check(q *query, f results.Format, body []byte) error {
	if n := countRows(f, body); n != q.rows() {
		return fmt.Errorf("%s [%v limit %d]: %d rows, oracle %d", q.text, f, q.limit, n, q.rows())
	}
	if !q.complete() || r.sample.Intn(digestEvery) != 0 {
		return nil
	}
	n, d, err := bodyDigest(f, body, q.vars)
	if err != nil {
		return fmt.Errorf("%s [%v]: decoding answer: %w", q.text, f, err)
	}
	if n != q.total || d != q.digest {
		return fmt.Errorf("%s [%v]: answer content differs from the oracle", q.text, f)
	}
	return nil
}

// run runs the closed loop until ctx ends and returns its statistics
// and the wall time it ran.
func (r *reader) run(ctx context.Context) (opStats, time.Duration) {
	t := time.Now()
	var st opStats
	for ctx.Err() == nil {
		q, f := r.next()
		st.attempted++
		if r.gate != nil && st.attempted%readsPerWrite == 0 && r.gated < cap(r.gate) {
			r.gate <- struct{}{}
			r.gated++
		}
		lat, body, err := r.do(q, f)
		if err == nil {
			err = r.check(q, f, body)
		}
		if err != nil {
			st.fail(err)
			continue
		}
		st.ok = append(st.ok, sample{lat: lat, rows: q.rows()})
	}
	return st, time.Since(t)
}

// writeStats extends opStats with what the store reports per write.
type writeStats struct {
	opStats
	merges    int
	mergeDur  []time.Duration
	walBytes  int64 // WAL growth over writes that did not merge
	walWrites int
	elapsed   time.Duration
}

// runWriter applies the planned writes one at a time through
// Mutable.Insert/Delete; each acknowledged write is fsynced by the
// store before it returns. With a gate, each write first takes a token
// from it; without one, each write follows the previous one at once.
func runWriter(m *store.Mutable, ops []writeOp, gate <-chan struct{}) writeStats {
	var st writeStats
	t0 := time.Now()
	for _, op := range ops {
		if gate != nil {
			<-gate
		}
		st.attempted++
		before := m.WALBytes()
		t := time.Now()
		var res store.WriteResult
		var err error
		if op.insert {
			res, err = m.Insert(op.s, op.p, op.o)
		} else {
			res, err = m.Delete(op.s, op.p, op.o)
		}
		lat := time.Since(t)
		if err == nil && !res.Changed {
			err = fmt.Errorf("write %v %s %s %s did not change the store", op.insert, op.s, op.p, op.o)
		}
		if err != nil {
			st.fail(err)
			continue
		}
		st.ok = append(st.ok, sample{lat: lat})
		if res.Merged {
			st.merges++
			st.mergeDur = append(st.mergeDur, lat)
		} else {
			st.walBytes += m.WALBytes() - before
			st.walWrites++
		}
	}
	st.elapsed = time.Since(t0)
	return st
}

// verifyWrites checks the store after the writes: every acknowledged
// insert that was not deleted later answers an SPO lookup, and every
// acknowledged delete does not.
func verifyWrites(m *store.Mutable, ops []writeOp) opStats {
	want := map[[3]string]bool{}
	var order [][3]string
	for _, op := range ops {
		t := [3]string{op.s, op.p, op.o}
		if _, ok := want[t]; !ok {
			order = append(order, t)
		}
		want[t] = op.insert
	}
	var st opStats
	view := m.View()
	for _, t := range order {
		st.attempted++
		present := false
		if pat, err := view.ParsePattern(t[0], t[1], t[2]); err == nil {
			_, present = view.Index.Select(pat).Next()
		}
		if present != want[t] {
			st.fail(fmt.Errorf("after the writes, %s %s %s present=%v, want %v", t[0], t[1], t[2], present, want[t]))
		}
	}
	return st
}

// readFigures are the read metrics of one run.
type readFigures struct {
	p50, p99  time.Duration
	qps, rows float64
}

// figuresOf computes the read metrics. rows is the median over answered
// queries of rows per second of the query's latency: a median, like
// p50, because the means (qps and rows over the run) follow the slow
// tail of cache misses, and on a shared host that tail varies between
// runs about twice as much as the median does.
func figuresOf(st opStats, elapsed time.Duration) readFigures {
	lat := st.latencies()
	rates := make([]float64, len(st.ok))
	for i, x := range st.ok {
		rates[i] = float64(x.rows) / x.lat.Seconds()
	}
	sort.Float64s(rates)
	f := readFigures{
		p50: percentile(lat, 0.5),
		p99: percentile(lat, 0.99),
		qps: float64(len(lat)) / elapsed.Seconds(),
	}
	if len(rates) > 0 {
		f.rows = rates[len(rates)/2]
	}
	return f
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.999999)
	return sorted[min(max(i-1, 0), len(sorted)-1)]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
