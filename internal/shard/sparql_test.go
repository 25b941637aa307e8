package shard

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/sparql"
)

// execAll runs a query and returns its solutions rendered to sorted
// strings (BGP solution order is an executor detail, not part of the
// sharding contract; the set must match).
func execAll(t *testing.T, q sparql.Query, st sparql.Store) []string {
	t.Helper()
	var rows []string
	_, err := sparql.Execute(q, st, func(b sparql.Bindings) {
		var row []string
		for _, v := range q.Vars {
			row = append(row, fmt.Sprintf("%s=%d", v, b[v]))
		}
		rows = append(rows, fmt.Sprint(row))
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// TestSparqlOverShardedStore runs BGP queries through the executor over
// sharded stores and checks the solution sets against the single index.
// The sharded store satisfies sparql.Store via core.Index, so this is
// the end-to-end wiring the server uses.
func TestSparqlOverShardedStore(t *testing.T) {
	d := randDataset(t, 900, 19)
	queries := []string{
		"SELECT ?x ?y WHERE { ?x <1> ?y . }",
		"SELECT ?x ?y ?z WHERE { ?x <1> ?y . ?y <2> ?z . }",
		"SELECT ?x WHERE { ?x <0> ?y . ?x <3> ?z . }",
		"SELECT ?x ?y WHERE { ?x ?p <5> . ?x <2> ?y . }",
	}
	for _, layout := range []core.Layout{core.Layout3T, core.Layout2Tp} {
		single, err := core.Build(d, layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4} {
			sh, err := BuildSharded(d, layout, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, qs := range queries {
				q, err := sparql.Parse(qs)
				if err != nil {
					t.Fatal(err)
				}
				want := execAll(t, q, single)
				got := execAll(t, q, sh)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%d shards, %s: %d solutions, want %d\n got %v\nwant %v",
						layout, n, qs, len(got), len(want), got, want)
				}
			}
		}
	}
}

// TestSparqlShardedCancellation pins that context cancellation
// propagates through scatter-gather iteration.
func TestSparqlShardedCancellation(t *testing.T) {
	d := randDataset(t, 1500, 31)
	sh, err := BuildSharded(d, core.Layout2Tp, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse("SELECT ?x ?y ?z WHERE { ?x ?p ?y . ?y ?q ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sparql.StreamRows(ctx, q, sh, sparql.Plan(q), nil, nil); err == nil {
		t.Fatal("cancelled execution returned no error")
	}
}

// TestSparqlStreamOverShardedStore pins that the reused-bindings
// streaming executor produces the same solution set as the allocating
// one over a scatter-gather store — the path the server's NDJSON row
// writer rides on.
func TestSparqlStreamOverShardedStore(t *testing.T) {
	d := randDataset(t, 900, 23)
	sh, err := BuildSharded(d, core.Layout2Tp, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{
		"SELECT ?x ?y WHERE { ?x <1> ?y . }",
		"SELECT ?x ?y ?z WHERE { ?x <1> ?y . ?y <2> ?z . }",
	} {
		q, err := sparql.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		want := execAll(t, q, sh)
		var got []string
		var prev sparql.Bindings
		_, err = sparql.StreamWithOrder(context.Background(), q, sh, sparql.Plan(q), func(b sparql.Bindings) {
			if prev != nil && reflect.ValueOf(b).Pointer() != reflect.ValueOf(prev).Pointer() {
				t.Fatal("StreamWithOrder allocated a fresh bindings map")
			}
			prev = b //rdf:allow(test asserts the executor reuses one map; retaining it is the point)
			var row []string
			for _, v := range q.Vars {
				row = append(row, fmt.Sprintf("%s=%d", v, b[v]))
			}
			got = append(got, fmt.Sprint(row))
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stream solutions diverge\n got %v\nwant %v", qs, got, want)
		}
	}
}
