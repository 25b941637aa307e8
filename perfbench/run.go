package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/store"
)

// readsPerWrite is write_mix's mix: one write per five queries.
const readsPerWrite = 5

// workloadSpec is the load one workload puts on the server.
type workloadSpec struct {
	pool    []*query
	zipf    bool
	formats []results.Format
	writes  []writeOp     // the planned writes
	mixed   bool          // writes run during the reads (write_mix), else after them in traced runs
	seq     *atomic.Int64 // position in the shared sequence of uniform draws
}

// run sets up the fixture, measures the workload and returns its
// metrics. Errors are reserved for failures of the benchmark itself;
// wrong answers are counted as failed operations.
func run(cfg config) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	res := &result{line: resultLine{Metrics: map[string]metric{}}}
	t0 := time.Now()
	fx, m, err := newFixtureData(cfg.triples, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: dataset and model %.2fs\n", time.Since(t0).Seconds())
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	var setups []setupTimes
	var in *instance
	for rep := 0; rep < cfg.setupReps; rep++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			if err := removeStore(in.path); err != nil {
				return nil, err
			}
		}
		var tm setupTimes
		in, tm, err = setUp(fx, storePath(cfg.dir, rep), cfg.threshold, cfg.wrap, hc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, tm)
	}
	defer in.close()

	size, err := fileSize(in.path)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	spec := workloadSpec{zipf: true, formats: []results.Format{results.JSON}, seq: new(atomic.Int64)}
	switch cfg.workload {
	case "lookup":
		spec.pool, err = lookupPool(fx, m, cfg.lookupQueries, rng)
	case "scan":
		spec.pool = scanPool(fx, m, cfg.scanQueries, rng)
		spec.zipf = false
		spec.formats = results.Formats()
	case "write_mix":
		spec.pool, err = lookupPool(fx, m, cfg.lookupQueries, rng)
		spec.mixed = true
	}
	if err != nil {
		return nil, err
	}
	spec.writes = planWrites(fx, cfg.writes, cfg.seed)
	// One closed-loop reader on every workload: on a shared 2-CPU host a
	// second reader queues behind the first in the server and doubles
	// the run-to-run spread of every read metric.
	rd := newReader(hc, in.base, spec, cfg.seed, 0)

	fmt.Fprintf(os.Stderr, "perfbench: query pool %.2fs\n", time.Since(t0).Seconds())
	env := environment(cfg, fx, spec)
	res.printf("%s", env)

	// Warm-up: the reader runs untimed, from a freshly collected heap,
	// so that the connection, the caches and the Zipf head are warm when
	// timing starts. Its answers are checked all the same.
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.warmup)
	warm, _ := rd.run(ctx)
	cancel()

	// Measured phase.
	before, err := scrapeCaches(hc, in.base)
	if err != nil {
		return nil, err
	}
	gc0 := gcCPU()
	var reads opStats
	var elapsed time.Duration
	var ws writeStats
	if spec.mixed {
		// The writer sends write i once the reader has sent
		// readsPerWrite*i queries, and the reader runs until the writer
		// is done. While the writer keeps up, each write flushes the
		// caches after the same queries in every run, however fast the
		// host runs fsync against the reader.
		gate := make(chan struct{}, len(spec.writes))
		rd.gate = gate
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan writeStats, 1)
		go func() {
			defer cancel()
			done <- runWriter(in.mut, spec.writes, gate)
		}()
		reads, elapsed = rd.run(ctx)
		ws = <-done
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.window)
		reads, elapsed = rd.run(ctx)
		cancel()
	}
	gcFrac := gcCPU().fractionSince(gc0)
	after, err := scrapeCaches(hc, in.base)
	if err != nil {
		return nil, err
	}
	fig := figuresOf(reads, elapsed)
	if cfg.trace {
		if err := traceLayers(res, cfg, in, spec, fig.p50); err != nil {
			return nil, err
		}
		if !spec.mixed {
			// The read-only workloads' write figures come from writes
			// after the reads and the replays, with no reader running.
			runtime.GC()
			ws = runWriter(in.mut, spec.writes, nil)
		}
	}
	checks := verifyWrites(in.mut, spec.writes[:ws.attempted])
	if (spec.mixed || cfg.trace) && ws.merges < cfg.minMerges {
		checks.attempted++
		checks.fail(fmt.Errorf("the writes spanned %d merges, want at least %d", ws.merges, cfg.minMerges))
	}

	wlat := ws.latencies()
	res.line.Attempted += warm.attempted + reads.attempted + ws.attempted + checks.attempted
	res.line.Failed += warm.failed + reads.failed + ws.failed + checks.failed
	res.printf("queries: %d attempted, %d failed, %d latency samples over %.2fs (%d beyond p99); warm-up: %d attempted, %d failed",
		reads.attempted, reads.failed, len(reads.ok), elapsed.Seconds(), len(reads.ok)/100, warm.attempted, warm.failed)
	res.printf("writes: %d attempted, %d failed, %d merges over %.2fs; post-write checks: %d attempted, %d failed",
		ws.attempted, ws.failed, ws.merges, ws.elapsed.Seconds(), checks.attempted, checks.failed)
	for _, s := range []opStats{warm, reads, ws.opStats, checks} {
		if s.firstErr != "" {
			res.printf("first failure: %s", s.firstErr)
		}
	}

	if !cfg.trace {
		res.set("query_p50_us", "us", us(fig.p50))
		res.set("rows_per_s", "1/s", fig.rows)
		totals := make([]time.Duration, len(setups))
		heaps := make([]time.Duration, len(setups))
		for i, s := range setups {
			totals[i], heaps[i] = s.total, time.Duration(s.heap)
		}
		res.set("setup_s", "s", median(totals).Seconds())
		res.set("heap_mb", "MB", float64(median(heaps))/(1<<20))
		res.set("bits_per_triple", "bits", core.BitsPerTriple(in.index))
		res.set("store_bytes_per_triple", "B", float64(size)/float64(len(fx.ds.Triples)))
	} else {
		builds := make([]time.Duration, len(setups))
		opens := make([]time.Duration, len(setups))
		for i, s := range setups {
			builds[i], opens[i] = s.build, s.open
		}
		res.set("query_p99_us", "us", us(fig.p99))
		res.set("query_qps", "1/s", fig.qps)
		res.set("store.build_ms", "ms", ms(median(builds)))
		res.set("store.open_ms", "ms", ms(median(opens)))
		res.set("store.write_p50_us", "us", us(percentile(wlat, 0.50)))
		res.set("store.write_p99_us", "us", us(percentile(wlat, 0.99)))
		// Writes per second of time spent in writes: on write_mix the
		// wall-clock rate is the reader's, through the gate.
		res.set("store.writes_per_s", "1/s", float64(len(wlat))/sum(wlat).Seconds())
		res.set("store.merges", "count", float64(ws.merges))
		res.set("store.merge_ms", "ms", ms(mean(ws.mergeDur)))
		res.set("store.wal_bytes_per_write", "B", float64(ws.walBytes)/float64(max(ws.walWrites, 1)))
		res.set("runtime.gc_cpu_fraction", "ratio", gcFrac)
		res.set("server.result_cache_hit_ratio", "ratio", after.sub(before).ratio("result"))
		res.set("server.plan_cache_hit_ratio", "ratio", after.sub(before).ratio("plan"))
	}
	res.line.Correct = res.line.Failed == 0
	return res, nil
}

func newReader(hc *http.Client, base string, spec workloadSpec, seed int64, i int) *reader {
	return &reader{
		hc:      hc,
		base:    base,
		pool:    spec.pool,
		draw:    newDrawer(seed*1000+int64(i), len(spec.pool), spec.zipf, spec.seq),
		formats: spec.formats,
		sample:  rand.New(rand.NewSource(seed*1000 + 500 + int64(i))),
	}
}

// environment renders the run's environment record.
func environment(cfg config, fx *fixtureData, spec workloadSpec) string {
	shapes := map[string]int{}
	for _, q := range spec.pool {
		shapes[shapeNames[q.shape]]++
	}
	formats := make([]string, len(spec.formats))
	for i, f := range spec.formats {
		formats[i] = f.String()
	}
	return fmt.Sprintf("env: cpu=%q nproc=%d GOMAXPROCS=%d go=%s | dataset=dblp triples=%d seed=%d layout=2Tp container=v%d | "+
		"workload=%s readers=1 draws=%s formats=%v pool=%d shapes=%v writes=%d(%s) | merge_threshold=%d flush=fsync-per-acknowledged-write "+
		"gzip=off result_cache=256x1MiB(default Options)",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		len(fx.ds.Triples), cfg.seed, store.CurrentVersion,
		cfg.workload, map[bool]string{true: "zipf(1.1)", false: "uniform"}[spec.zipf], formats,
		len(spec.pool), shapes, len(spec.writes), map[bool]string{true: "during the reads", false: "after the reads, traced runs only"}[spec.mixed], cfg.threshold)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func removeStore(path string) error {
	files, err := filepath.Glob(path + "*")
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// cacheCounters are the result- and plan-cache hit/miss counters of
// /metrics.
type cacheCounters map[string]float64

func scrapeCaches(hc *http.Client, base string) (cacheCounters, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := cacheCounters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "rdf_cache_events_total{")
		if !ok {
			continue
		}
		labels, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[labels] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || len(out) == 0 {
		return nil, fmt.Errorf("/metrics: status %d, %d cache counters", resp.StatusCode, len(out))
	}
	return out, nil
}

func (c cacheCounters) sub(o cacheCounters) cacheCounters {
	d := cacheCounters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// ratio returns hits / (hits + misses) of one cache.
func (c cacheCounters) ratio(cache string) float64 {
	hit := c[`cache="`+cache+`",event="hit"`]
	miss := c[`cache="`+cache+`",event="miss"`]
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// cpuTimes samples the runtime's cumulative GC and total CPU time.
type cpuTimes struct{ gc, total float64 }

func gcCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func (c cpuTimes) fractionSince(o cpuTimes) float64 {
	if c.total <= o.total {
		return 0
	}
	return (c.gc - o.gc) / (c.total - o.total)
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return sum(d) / time.Duration(len(d))
}

func sum(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
