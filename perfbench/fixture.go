package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rdfindexes/internal/bench"
	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/server"
	"rdfindexes/internal/store"
)

// Term text of the fixture's IDs. It mirrors the DBLP-style naming of
// bench.SynthDicts, which builds the store's dictionaries; the oracle
// derives its strings here instead of reading them back from the
// dictionaries, so a dictionary that drifted from the data would make
// every lookup miss and fail.
func soTerm(id int) string   { return fmt.Sprintf("<http://dblp.example.org/rec/conf/Entity_%010d>", id) }
func predTerm(id int) string { return fmt.Sprintf("<http://dblp.example.org/schema#prop%06d>", id) }

// fixtureData is the generated dataset plus what the pools sample from.
type fixtureData struct {
	ds              *core.Dataset
	so, pred        []string
	reserved        map[core.ID]bool // writer-only subject/object terms
	reservedTriples map[[3]string]bool
	heads           []core.ID // the most frequent objects
	headPreds       map[core.ID][]core.ID
	predCounts      []int
}

func newFixtureData(triples int, seed int64) (*fixtureData, *model, error) {
	ds, err := gen.GeneratePreset("dblp", triples, seed)
	if err != nil {
		return nil, nil, err
	}
	nso := max(ds.NS, ds.NO)
	fx := &fixtureData{ds: ds, so: make([]string, nso), pred: make([]string, ds.NP)}
	for i := range fx.so {
		fx.so[i] = soTerm(i)
	}
	for i := range fx.pred {
		fx.pred[i] = predTerm(i)
	}
	m := &model{triples: make([]strTriple, len(ds.Triples))}
	for i, t := range ds.Triples {
		m.triples[i] = strTriple{fx.so[t.S], fx.pred[t.P], fx.so[t.O]}
	}

	objCount := make([]int, ds.NO)
	fx.predCounts = make([]int, ds.NP)
	for _, t := range ds.Triples {
		objCount[t.O]++
		fx.predCounts[t.P]++
	}
	byCount := make([]core.ID, ds.NO)
	for i := range byCount {
		byCount[i] = core.ID(i)
	}
	sort.SliceStable(byCount, func(i, j int) bool { return objCount[byCount[i]] > objCount[byCount[j]] })
	fx.heads = byCount[:min(64, len(byCount))]
	isHead := map[core.ID]bool{}
	for _, o := range fx.heads {
		isHead[o] = true
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	fx.reserved = map[core.ID]bool{}
	for want := min(512, ds.NS/8); len(fx.reserved) < want; {
		if s := core.ID(rng.Intn(ds.NS)); !isHead[s] {
			fx.reserved[s] = true
		}
	}
	fx.reservedTriples = map[[3]string]bool{}
	fx.headPreds = map[core.ID][]core.ID{}
	seenHP := map[[2]core.ID]bool{}
	for _, t := range ds.Triples {
		if fx.reserved[t.S] {
			fx.reservedTriples[[3]string{fx.so[t.S], fx.pred[t.P], fx.so[t.O]}] = true
		}
		if isHead[t.O] && !seenHP[[2]core.ID{t.O, t.P}] {
			seenHP[[2]core.ID{t.O, t.P}] = true
			fx.headPreds[t.O] = append(fx.headPreds[t.O], t.P)
		}
	}
	return fx, m, nil
}

// subjectPredicates returns the distinct predicates of subject s.
func (fx *fixtureData) subjectPredicates(s core.ID) []core.ID {
	ts := fx.ds.Triples
	i := sort.Search(len(ts), func(i int) bool { return ts[i].S >= s })
	var out []core.ID
	for ; i < len(ts) && ts[i].S == s; i++ {
		if len(out) == 0 || out[len(out)-1] != ts[i].P {
			out = append(out, ts[i].P)
		}
	}
	return out
}

// predicatesByCount lists predicate IDs, most used first.
func (fx *fixtureData) predicatesByCount() []core.ID {
	out := make([]core.ID, len(fx.predCounts))
	for i := range out {
		out[i] = core.ID(i)
	}
	sort.SliceStable(out, func(i, j int) bool { return fx.predCounts[out[i]] > fx.predCounts[out[j]] })
	return out
}

// instance is one set-up serving stack: the rdfstore serve stack,
// OpenMutable under NewMutable with default Options on a loopback
// listener.
type instance struct {
	path  string
	mut   *store.Mutable
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error
	index core.Index // the built static index, for its space
}

func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := in.mut.Close(); err == nil {
		err = cerr
	}
	return err
}

// setupTimes are the phases of one set-up.
type setupTimes struct {
	build, open, total time.Duration
	heap               int64 // live-heap growth across OpenMutable
}

// setUp builds the store from the dataset (dictionaries, 2Tp index, v2
// container), opens it for serving and waits for the first answered
// query. Only those phases are timed; the forced GCs that bracket the
// open for the heap figure are not.
func setUp(fx *fixtureData, path string, threshold int, wrap func(http.Handler) http.Handler, hc *http.Client) (*instance, setupTimes, error) {
	var tm setupTimes
	t0 := time.Now()
	dicts, err := bench.SynthDicts(fx.ds)
	if err != nil {
		return nil, tm, err
	}
	x, err := core.Build(fx.ds, core.Layout2Tp)
	if err != nil {
		return nil, tm, err
	}
	if err := store.Write(path, &store.Store{Index: x, Dicts: dicts}); err != nil {
		return nil, tm, err
	}
	tm.build = time.Since(t0)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	t1 := time.Now()
	m, err := store.OpenMutable(path, threshold)
	if err != nil {
		return nil, tm, err
	}
	tm.open = time.Since(t1)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	tm.heap = int64(ms.HeapAlloc) - before
	runtime.KeepAlive(dicts)

	t2 := time.Now()
	srv := server.NewMutable(m, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, tm, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	in := &instance{path: path, mut: m, srv: srv, base: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: h}, done: make(chan error, 1), index: x}
	go func() { in.done <- in.hs.Serve(ln) }()
	t := fx.ds.Triples[0]
	probe := fmt.Sprintf("SELECT ?o WHERE { %s %s ?o . }", fx.so[t.S], fx.pred[t.P])
	if err := ready(hc, in.base, probe); err != nil {
		in.close()
		return nil, tm, fmt.Errorf("first query: %w", err)
	}
	tm.total = tm.build + tm.open + time.Since(t2)
	return in, tm, nil
}

func ready(hc *http.Client, base, q string) error {
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(q), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// fileSize returns the size of path in bytes.
func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func storePath(dir string, rep int) string {
	return filepath.Join(dir, fmt.Sprintf("store-%d.idx", rep))
}
