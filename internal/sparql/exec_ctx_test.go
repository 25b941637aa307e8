package sparql

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"rdfindexes/internal/core"
)

// TestExecuteContextCompletes checks the row path under a live context
// returns the same results as the plain path when nothing cancels.
func TestExecuteContextCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ts := randomTriples(rng, 600)
	st := sliceStore(ts)
	q, err := Parse("SELECT ?x ?y WHERE { ?x <1> ?y . ?y <1> ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Execute(q, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := StreamRows(context.Background(), q, st, Plan(q), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Results != withCtx.Results || plain.TriplesMatched != withCtx.TriplesMatched {
		t.Fatalf("context path diverged: %+v vs %+v", plain, withCtx)
	}
}

// TestExecuteContextCancellation runs a cross-product-heavy query under
// an already-cancelled context and expects a prompt abort with the
// context's error, with at most one cancellation stride of extra work.
func TestExecuteContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ts := randomTriples(rng, 1200)
	st := sliceStore(ts)
	// Two unrelated pattern pairs force a large intermediate product.
	q, err := Parse("SELECT ?a ?b WHERE { ?a <1> ?x . ?b <2> ?y . }")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := StreamRows(ctx, q, st, Plan(q), nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
	}
	// The check fires every cancelStride candidates; a run that examined
	// many strides past cancellation would mean the check is not wired
	// into the hot loop.
	if stats.TriplesMatched > 2*cancelStride {
		t.Fatalf("cancelled execution still matched %d triples (> 2 strides)", stats.TriplesMatched)
	}
}

// TestExecuteContextDeadlineGallop cancels inside the merge-intersection
// path: patterns sharing their single free variable gallop, and the
// canceller must fire there too.
func TestExecuteContextDeadlineGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ts := randomTriples(rng, 1200)
	d := core.NewDataset(append([]core.Triple(nil), ts...))
	x, err := core.Build3T(d)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse("SELECT ?x WHERE { ?x <1> <2> . ?x <2> <3> . }")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := StreamRows(ctx, q, x, Plan(q), nil, nil); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error %v", err)
	}
	// A nil-emit complete run on the same store for comparison.
	if _, err := StreamRows(context.Background(), q, x, Plan(q), nil, nil); err != nil {
		t.Fatalf("uncancelled run failed: %v", err)
	}
}

// TestStreamWithOrderReusesBindings pins the streaming contract: the
// same solutions as ExecuteWithOrder, delivered through one reused map,
// while the Execute family keeps handing out fresh maps (callers retain
// those).
func TestStreamWithOrderReusesBindings(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ts := randomTriples(rng, 600)
	st := sliceStore(ts)
	q, err := Parse("SELECT ?x ?y ?z WHERE { ?x <1> ?y . ?y <1> ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	order := Plan(q)
	type row struct{ x, y, z core.ID }
	var want []row
	if _, err := ExecuteWithOrder(q, st, order, func(b Bindings) {
		want = append(want, row{b["x"], b["y"], b["z"]})
	}); err != nil {
		t.Fatal(err)
	}
	var fresh []Bindings
	if _, err := ExecuteWithOrder(q, st, order, func(b Bindings) {
		fresh = append(fresh, b)
	}); err != nil {
		t.Fatal(err)
	}
	for i, b := range fresh {
		if b["x"] != want[i].x || b["y"] != want[i].y || b["z"] != want[i].z {
			t.Fatalf("Execute retained map %d mutated: %v, want %v", i, b, want[i])
		}
	}
	var got []row
	var prev Bindings
	if _, err := StreamWithOrder(context.Background(), q, st, order, func(b Bindings) {
		if prev != nil && reflect.ValueOf(b).Pointer() != reflect.ValueOf(prev).Pointer() {
			t.Fatal("StreamWithOrder allocated a fresh bindings map")
		}
		prev = b //rdf:allow(test asserts the executor reuses one map; retaining it is the point)
		got = append(got, row{b["x"], b["y"], b["z"]})
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream row %d = %v, want %v", i, got[i], want[i])
		}
	}
}
