// Command perfbench is the repository's end-to-end benchmark. It builds
// the store the way `rdfstore build` does, serves it the way
// `rdfstore serve` does (store.OpenMutable under server.NewMutable with
// default Options, net/http on a loopback listener), drives /sparql with
// a closed-loop keep-alive client in the same process, checks every
// answer against a string-triple oracle, and prints one JSON result
// line. With --trace 1 it also replays the workload's request sequence
// in-process, timing calls into each module from outside, and prints
// per-layer metrics instead of end-to-end ones.
//
//	perfbench --workload lookup|scan|write_mix --seed N --seconds S --trace 0|1
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// config fixes everything a run depends on besides the code under test.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measured read time
	warmup   time.Duration // untimed reads before the measured phase
	trace    bool
	triples  int
	// setupReps set-ups are timed per run; setup_s is their median.
	setupReps     int
	lookupQueries int // distinct queries in the lookup pool
	scanQueries   int // distinct queries in the scan pool
	// writes is the fixed write count: beside the reads on write_mix,
	// after them in traced runs of lookup and scan.
	writes    int
	threshold int // merge threshold
	minMerges int // the writes must span this many merges
	dir       string
	spansPath string
	// wrap, when set, wraps the server's handler; the self-test uses it
	// to inject wrong answers.
	wrap func(http.Handler) http.Handler
}

func defaultConfig(workload string, seed int64, seconds int, trace bool, dir string) config {
	return config{
		workload:      workload,
		seed:          seed,
		window:        time.Duration(seconds) * time.Second,
		warmup:        2 * time.Second,
		trace:         trace,
		triples:       1_000_000,
		setupReps:     5,
		lookupQueries: 20_000,
		scanQueries:   3_000,
		writes:        36_000,
		threshold:     8192,
		minMerges:     3,
		dir:           dir,
		spansPath:     filepath.Join(dir, "..", fmt.Sprintf("spans-%s-%d.tsv", workload, seed)),
	}
}

func main() {
	workload := flag.String("workload", "", "lookup, scan or write_mix")
	seed := flag.Int64("seed", 1, "seed of the dataset, query pools and write plan")
	seconds := flag.Int("seconds", 15, "measured read time of lookup and scan")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics from a traced replay")
	flag.Parse()
	if err := validWorkload(*workload); err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload lookup|scan|write_mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Scratch lives inside the working directory, the checkout root.
	root := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(root, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := defaultConfig(*workload, *seed, *seconds, *trace == 1, dir)
	res, err := run(cfg)
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.report {
		fmt.Println(l)
	}
	out, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// workloads are the workloads the command runs. BENCHMARK.json declares
// lookup and scan; write_mix is run on demand (see README.md).
var workloads = []string{"lookup", "scan", "write_mix"}

func validWorkload(w string) error {
	if slices.Contains(workloads, w) {
		return nil
	}
	return fmt.Errorf("unknown workload %q", w)
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	line   resultLine
	report []string // human-readable lines printed before the result
}

func (r *result) set(name, unit string, v float64) {
	r.line.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) printf(format string, a ...any) {
	r.report = append(r.report, fmt.Sprintf(format, a...))
}
