package dynamicq

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// TestSnapshotPointQueriesPinned pins snapshots along a mixed update stream
// (weights and dynamic-relation toggles) and checks that each keeps
// answering point queries with the values of its own epoch, against a naive
// evaluation of the frozen mirror database.
func TestSnapshotPointQueriesPinned(t *testing.T) {
	// f(x) = Σ_y [E(x,y)]·w(x,y)·u(y) with dynamic E.
	q := expr.Agg([]string{"y"}, expr.Times(
		expr.Guard(logic.R("E", "x", "y")),
		expr.W("w", "x", "y"), expr.W("u", "y"),
	))
	a, w := testDB(8, 16, 17)
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{DynamicRelations: []string{"E"}})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}

	type pinned struct {
		epoch  uint64
		snap   *Snapshot[int64]
		mirror *structure.Structure
		w      *structure.Weights[int64]
	}
	record := func() pinned {
		epoch := query.Clock().Pin()
		return pinned{epoch: epoch, snap: query.At(epoch), mirror: a, w: w.Clone()}
	}

	pins := []pinned{record()}
	r := rand.New(rand.NewSource(19))
	edges := append([]structure.Tuple(nil), a.Tuples("E")...)
	for step := 0; step < 40; step++ {
		if r.Intn(3) == 0 {
			tpl := edges[r.Intn(len(edges))]
			present := r.Intn(2) == 0
			if err := query.SetTuple("E", tpl, present); err != nil {
				t.Fatalf("SetTuple: %v", err)
			}
			a = rebuildWith(a, "E", tpl, present)
		} else {
			tpl := edges[r.Intn(len(edges))]
			v := int64(r.Intn(6))
			if err := query.SetWeight("w", tpl, v); err != nil {
				t.Fatalf("SetWeight: %v", err)
			}
			w.Set("w", tpl, v)
		}
		if step%13 == 0 {
			pins = append(pins, record())
		}
	}

	// Every snapshot answers as of its own epoch; the live query as of now.
	for i, p := range pins {
		for x := 0; x < a.N; x++ {
			got, err := p.snap.Value(x)
			if err != nil {
				t.Fatalf("pin %d: Value(%d): %v", i, x, err)
			}
			want := naive(p.mirror, p.w, q, map[string]structure.Element{"x": x})
			if got != want {
				t.Errorf("pin %d (epoch %d): f(%d) = %d, want %d", i, p.epoch, x, got, want)
			}
		}
	}
	for x := 0; x < a.N; x++ {
		got, _ := query.Value(x)
		if want := naive(a, w, q, map[string]structure.Element{"x": x}); got != want {
			t.Errorf("live query: f(%d) = %d, want %d", x, got, want)
		}
	}
	if query.Clock().Retained() == 0 {
		t.Error("no undo history retained while snapshots are pinned")
	}
	for _, p := range pins {
		query.Clock().Unpin(p.epoch)
	}
	if got := query.Clock().Retained(); got != 0 {
		t.Errorf("retained undo bytes %d after all snapshots released, want 0", got)
	}
}

// TestSnapshotArityChecks mirrors the writer-side argument validation.
func TestSnapshotArityChecks(t *testing.T) {
	q := expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y")))
	a, w := testDB(6, 10, 23)
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	epoch := query.Clock().Pin()
	defer query.Clock().Unpin(epoch)
	snap := query.At(epoch)
	if _, err := snap.Value(); err == nil {
		t.Errorf("missing arguments accepted")
	}
	if _, err := snap.Value(1, 2); err == nil {
		t.Errorf("excess arguments accepted")
	}
	if _, err := snap.ValueClosed(); err == nil {
		t.Errorf("ValueClosed on an open query accepted")
	}
	got, err := snap.Value(0)
	if err != nil {
		t.Fatalf("Value(0): %v", err)
	}
	if want := naive(a, w, q, map[string]structure.Element{"x": 0}); got != want {
		t.Errorf("f(0) = %d, want %d", got, want)
	}
}

// TestLiveValueBesideWriter reads Value from several goroutines while the
// writer commits batches that set every weight of one vertex's edges to the
// same step value: a read under the clock's shared lock sees whole batches
// only, so f(x) is step·deg(x) for a step that never goes back.
func TestLiveValueBesideWriter(t *testing.T) {
	q := expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y")))
	a, w := testDB(8, 16, 29)
	out := make([][]structure.Tuple, a.N)
	for _, e := range a.Tuples("E") {
		out[e[0]] = append(out[e[0]], e)
	}
	x := 0
	for v := range out {
		if len(out[v]) > len(out[x]) {
			x = v
		}
	}
	edges := out[x]
	batch := func(step int64) []Change[int64] {
		changes := make([]Change[int64], len(edges))
		for i, e := range edges {
			changes[i] = Change[int64]{Weight: "w", Tuple: e, Value: step}
		}
		return changes
	}
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	if err := query.ApplyBatch(batch(0)); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	const steps, readers = 300, 3
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := query.Value(x)
				if err != nil {
					t.Errorf("Value(%d): %v", x, err)
					return
				}
				if got%int64(len(edges)) != 0 || got < last {
					t.Errorf("Value(%d) = %d after %d: not a whole batch of %d edges, or a step back", x, got, last, len(edges))
					return
				}
				last = got
			}
		}()
	}
	for step := int64(1); step <= steps; step++ {
		if err := query.ApplyBatch(batch(step)); err != nil {
			t.Errorf("ApplyBatch: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()
	if got, _ := query.Value(x); got != steps*int64(len(edges)) {
		t.Errorf("final Value(%d) = %d, want %d", x, got, steps*int64(len(edges)))
	}
}
