package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// smokeConfig is a seconds-long configuration on a tiny dataset. The
// merge threshold is scaled down with the data so write_mix still spans
// several merges.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(workload, 7, 1, trace, dir)
	cfg.window = 500 * time.Millisecond
	cfg.warmup = 100 * time.Millisecond
	cfg.triples = 30_000
	cfg.setupReps = 1
	cfg.lookupQueries = 400
	cfg.scanQueries = 40
	cfg.writes = 2_000
	cfg.threshold = 400
	return cfg
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmokePrintsEveryMetric runs every workload untraced and traced and
// checks that each run answers correctly and prints every declared
// metric with its declared unit, and nothing else.
func TestSmokePrintsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		if validWorkload(w.Name) != nil {
			t.Errorf("declared workload %s is not run by the command", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			res, err := run(smokeConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			l := res.line
			if !l.Correct || l.Failed != 0 || l.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, trace, l.Correct, l.Attempted, l.Failed, strings.Join(res.report, "\n"))
			}
			for _, m := range want {
				got, ok := l.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
			}
			if len(l.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w, trace, len(l.Metrics), len(want))
			}
		}
	}
}

// faultyAnswers wraps the server so that every n-th /sparql answer is
// rewritten by corrupt.
func faultyAnswers(n int64, corrupt func([]byte) []byte) func(http.Handler) http.Handler {
	var count atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/sparql" || count.Add(1)%n != 0 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(corrupt(rec.Body.Bytes()))
		})
	}
}

// dropFirstRow removes the first solution of a SPARQL JSON answer.
func dropFirstRow(body []byte) []byte {
	start := bytes.Index(body, []byte(`"bindings":[`))
	if start < 0 {
		return body
	}
	start += len(`"bindings":[`)
	depth := 0
	for i := start; i < len(body); i++ {
		switch body[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				end := i + 1
				if end < len(body) && body[end] == ',' {
					end++
				}
				return append(append([]byte{}, body[:start]...), body[end:]...)
			}
		}
	}
	return body
}

// TestOracleCountsWrongAnswers injects wrong answers and checks they are
// counted as failed operations: a dropped row is caught by the row
// count on every answer, a renamed term with the row count intact only
// by the content digest on the sampled answers.
func TestOracleCountsWrongAnswers(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"dropped row", dropFirstRow},
		{"renamed term", func(b []byte) []byte { return bytes.Replace(b, []byte("Entity_"), []byte("Entitx_"), 1) }},
	}
	for _, c := range cases {
		cfg := smokeConfig(t, "lookup", false)
		cfg.wrap = faultyAnswers(3, c.corrupt)
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if l := res.line; l.Correct || l.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d, want the injected wrong answers counted", c.name, l.Correct, l.Failed, l.Attempted)
		}
	}
}
