package dynamicq

import (
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
)

func testDB(n, m int, seed int64) (*structure.Structure, *structure.Weights[int64]) {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "U", Arity: 1}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}},
	)
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(sig, n)
	w := structure.NewWeights[int64]()
	for w.Len() < m {
		x, y := r.Intn(n), r.Intn(n)
		if x == y {
			continue
		}
		b.MustAddTuple("E", x, y)
		w.Set("w", structure.Tuple{x, y}, int64(r.Intn(5)+1))
	}
	for v := 0; v < n; v++ {
		if r.Intn(2) == 0 {
			b.MustAddTuple("U", v)
		}
		w.Set("u", structure.Tuple{v}, int64(r.Intn(4)))
	}
	return b.Build(), w
}

// naive evaluates a query with free variables by brute force.
func naive(a *structure.Structure, w *structure.Weights[int64], e expr.Expr, env map[string]structure.Element) int64 {
	return expr.Eval[int64](semiring.Nat, a, w, e, env)
}

func TestClosedQueryWithWeightUpdates(t *testing.T) {
	// Total weighted out-degree sum: Σ_{x,y} [E(x,y)]·w(x,y)·u(x).
	q := expr.Agg([]string{"x", "y"}, expr.Times(
		expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y"), expr.W("u", "x"),
	))
	a, w := testDB(10, 25, 1)
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	got, err := query.ValueClosed()
	if err != nil {
		t.Fatalf("ValueClosed: %v", err)
	}
	if want := naive(a, w, q, map[string]structure.Element{}); got != want {
		t.Fatalf("initial value %d, want %d", got, want)
	}
	// Random weight updates, cross-checked against naive evaluation.
	r := rand.New(rand.NewSource(2))
	for step := 0; step < 30; step++ {
		if r.Intn(2) == 0 && len(a.Tuples("E")) > 0 {
			tpl := a.Tuples("E")[r.Intn(len(a.Tuples("E")))]
			v := int64(r.Intn(6))
			if err := query.SetWeight("w", tpl, v); err != nil {
				t.Fatalf("SetWeight: %v", err)
			}
			w.Set("w", tpl, v)
		} else {
			el := structure.Tuple{r.Intn(a.N)}
			v := int64(r.Intn(4))
			if err := query.SetWeight("u", el, v); err != nil {
				t.Fatalf("SetWeight: %v", err)
			}
			w.Set("u", el, v)
		}
		got, _ := query.ValueClosed()
		if want := naive(a, w, q, map[string]structure.Element{}); got != want {
			t.Fatalf("step %d: value %d, want %d", step, got, want)
		}
	}
	// Invalid updates are rejected.
	if err := query.SetWeight("nope", structure.Tuple{0}, 1); err == nil {
		t.Errorf("unknown weight symbol accepted")
	}
	if err := query.SetWeight("u", structure.Tuple{0, 1}, 1); err == nil {
		t.Errorf("weight arity mismatch accepted")
	}
	if _, err := query.Value(3); err == nil {
		t.Errorf("Value with arguments on a closed query should fail")
	}
}

func TestFreeVariableQueries(t *testing.T) {
	// Weighted out-neighbourhood: f(x) = Σ_y [E(x,y)]·w(x,y).
	q := expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y")))
	a, w := testDB(9, 20, 3)
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	if fv := query.FreeVars(); len(fv) != 1 || fv[0] != "x" {
		t.Fatalf("FreeVars = %v", fv)
	}
	for x := 0; x < a.N; x++ {
		got, err := query.Value(x)
		if err != nil {
			t.Fatalf("Value(%d): %v", x, err)
		}
		want := naive(a, w, q, map[string]structure.Element{"x": x})
		if got != want {
			t.Fatalf("f(%d) = %d, want %d", x, got, want)
		}
	}
	// Repeated queries must not corrupt state (the temporary updates are
	// rolled back each time).
	for trial := 0; trial < 3; trial++ {
		got, _ := query.Value(0)
		want := naive(a, w, q, map[string]structure.Element{"x": 0})
		if got != want {
			t.Fatalf("repeated query drifted: %d vs %d", got, want)
		}
	}
	if _, err := query.Value(); err == nil {
		t.Errorf("missing arguments should be rejected")
	}
	if _, err := query.ValueClosed(); err == nil {
		t.Errorf("ValueClosed on a query with free variables should fail")
	}
}

func TestTwoFreeVariables(t *testing.T) {
	// f(x,z) = Σ_y [E(x,y) ∧ E(y,z)] · u(y): weighted 2-paths between x and z.
	q := expr.Agg([]string{"y"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"))),
		expr.W("u", "y"),
	))
	a, w := testDB(8, 18, 5)
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		x, z := r.Intn(a.N), r.Intn(a.N)
		got, err := query.Value(x, z)
		if err != nil {
			t.Fatalf("Value(%d,%d): %v", x, z, err)
		}
		want := naive(a, w, q, map[string]structure.Element{"x": x, "z": z})
		if got != want {
			t.Fatalf("f(%d,%d) = %d, want %d", x, z, got, want)
		}
	}
}

// TestCloseOverExplicitParameters closes the 2-path query over parameter
// lists other than its sorted free variables: reordered, padded with a
// variable the query does not mention, and with a variable listed twice.
func TestCloseOverExplicitParameters(t *testing.T) {
	q := expr.Agg([]string{"y"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"))),
		expr.W("u", "y"),
	))
	a, w := testDB(8, 18, 5)
	if _, err := Close(a, q, []string{"x"}, compile.Options{}); err == nil {
		t.Errorf("a parameter list missing the free variable z should be rejected")
	}
	for _, vars := range [][]string{{"z", "x"}, {"x", "pad", "z"}, {"x", "z", "x"}} {
		given := slices.Clone(vars)
		sh, err := Close(a, q, given, compile.Options{})
		if err != nil {
			t.Fatalf("Close over %v: %v", vars, err)
		}
		// The closure keeps its own copy of the parameter list.
		given[0] = "clobbered"
		if got := sh.FreeVars(); !slices.Equal(got, vars) {
			t.Fatalf("FreeVars() = %v after the caller's slice changed, want %v", got, vars)
		}
		query := NewQuery(semiring.Nat, sh, w)
		args := make([]structure.Element, len(vars))
		var visit func(i int)
		visit = func(i int) {
			if i < len(args) {
				for args[i] = 0; args[i] < a.N; args[i]++ {
					visit(i + 1)
				}
				return
			}
			// The oracle reads args as an assignment to vars; positions
			// naming one variable must agree or the value is zero.
			env := map[string]structure.Element{}
			want := int64(-1)
			for j, v := range vars {
				if prev, ok := env[v]; ok && prev != args[j] {
					want = 0
				}
				env[v] = args[j]
			}
			if want != 0 {
				want = naive(a, w, q, env)
			}
			if got, err := query.Value(args...); err != nil || got != want {
				t.Fatalf("closure over %v at %v = %d, %v; want %d", vars, args, got, err, want)
			}
		}
		visit(0)
	}
}

func TestDynamicRelationUpdates(t *testing.T) {
	// Count edges whose reverse is absent, with dynamic E.
	q := expr.Agg([]string{"x", "y"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("E", "y", "x")))),
		expr.W("u", "x"),
	))
	a, w := testDB(8, 16, 11)
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{DynamicRelations: []string{"E"}})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	// Mirror structure for the naive reference.
	mirror := a
	check := func(step int) {
		t.Helper()
		got, _ := query.ValueClosed()
		want := naive(mirror, w, q, map[string]structure.Element{})
		if got != want {
			t.Fatalf("step %d: value %d, want %d", step, got, want)
		}
	}
	check(-1)
	r := rand.New(rand.NewSource(13))
	edges := append([]structure.Tuple(nil), a.Tuples("E")...)
	for step := 0; step < 30; step++ {
		tpl := edges[r.Intn(len(edges))]
		// Toggle either the edge itself or its reverse (the reverse pair is
		// also a Gaifman clique, so the update is permitted).
		target := tpl
		if r.Intn(2) == 0 {
			target = structure.Tuple{tpl[1], tpl[0]}
		}
		present := r.Intn(2) == 0
		if err := query.SetTuple("E", target, present); err != nil {
			t.Fatalf("SetTuple: %v", err)
		}
		// Apply to the mirror.
		mirror = rebuildWith(mirror, "E", target, present)
		if query.HasTuple("E", target) != present {
			t.Fatalf("HasTuple does not reflect the update")
		}
		check(step)
	}
	// Non-Gaifman-preserving insertions are rejected.
	var u, v structure.Element = -1, -1
	g := a.Gaifman()
outer:
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if i != j && !g.HasEdge(i, j) {
				u, v = i, j
				break outer
			}
		}
	}
	if u >= 0 {
		if err := query.SetTuple("E", structure.Tuple{u, v}, true); err == nil {
			t.Errorf("Gaifman-changing insertion accepted")
		}
	}
	// Updating a non-dynamic relation is rejected.
	if err := query.SetTuple("U", structure.Tuple{0}, true); err == nil {
		t.Errorf("update of a non-dynamic relation accepted")
	}
}

// rebuildWith returns the mirror structure with the membership of a tuple in
// a relation set.
func rebuildWith(a *structure.Structure, rel string, tuple structure.Tuple, present bool) *structure.Structure {
	b := a.Edit()
	if present {
		b.MustAddTuple(rel, tuple...)
	} else if err := b.RemoveTuple(rel, tuple...); err != nil {
		panic(err)
	}
	return b.Build()
}

// TestApplyBatchMixedChanges drives random mixed batches (weight updates and
// dynamic-relation toggles) through ApplyBatch and a twin query applying the
// same changes one at a time, interleaved with point queries, and checks
// both against naive evaluation.
func TestApplyBatchMixedChanges(t *testing.T) {
	// f(x) = Σ_y [E(x,y)]·w(x,y)·u(y) with dynamic E.
	q := expr.Agg([]string{"y"}, expr.Times(
		expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y"), expr.W("u", "y"),
	))
	a, w := testDB(9, 20, 41)
	opts := compile.Options{DynamicRelations: []string{"E"}}
	batched, err := CompileQuery[int64](semiring.Nat, a, w.Clone(), q, opts)
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	sequential, err := CompileQuery[int64](semiring.Nat, a, w.Clone(), q, opts)
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	mirror := a
	mirrorW := w.Clone()

	r := rand.New(rand.NewSource(43))
	edges := append([]structure.Tuple(nil), a.Tuples("E")...)
	for step := 0; step < 25; step++ {
		batch := make([]Change[int64], r.Intn(6)+1)
		for i := range batch {
			tpl := edges[r.Intn(len(edges))]
			switch r.Intn(3) {
			case 0:
				batch[i] = Change[int64]{Weight: "w", Tuple: tpl, Value: int64(r.Intn(6))}
			case 1:
				batch[i] = Change[int64]{Weight: "u", Tuple: structure.Tuple{tpl[1]}, Value: int64(r.Intn(4))}
			default:
				batch[i] = Change[int64]{Rel: "E", Tuple: tpl, Present: r.Intn(2) == 0}
			}
		}
		if err := batched.ApplyBatch(batch); err != nil {
			t.Fatalf("step %d: ApplyBatch: %v", step, err)
		}
		for _, ch := range batch {
			if ch.Weight != "" {
				if err := sequential.SetWeight(ch.Weight, ch.Tuple, ch.Value); err != nil {
					t.Fatalf("step %d: SetWeight: %v", step, err)
				}
				mirrorW.Set(ch.Weight, ch.Tuple, ch.Value)
			} else {
				if err := sequential.SetTuple(ch.Rel, ch.Tuple, ch.Present); err != nil {
					t.Fatalf("step %d: SetTuple: %v", step, err)
				}
				mirror = rebuildWith(mirror, ch.Rel, ch.Tuple, ch.Present)
			}
		}
		for trial := 0; trial < 3; trial++ {
			x := r.Intn(a.N)
			got, err := batched.Value(x)
			if err != nil {
				t.Fatalf("step %d: Value(%d): %v", step, x, err)
			}
			seq, _ := sequential.Value(x)
			if got != seq {
				t.Fatalf("step %d: batched f(%d)=%d, sequential %d", step, x, got, seq)
			}
			want := naive(mirror, mirrorW, q, map[string]structure.Element{"x": x})
			if got != want {
				t.Fatalf("step %d: f(%d)=%d, naive %d", step, x, got, want)
			}
		}
	}
}

// TestApplyBatchAllOrNothing checks that a batch containing any invalid
// change is rejected without applying the valid prefix.
func TestApplyBatchAllOrNothing(t *testing.T) {
	q := expr.Agg([]string{"x", "y"}, expr.Times(
		expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y"),
	))
	a, w := testDB(8, 16, 47)
	query, err := CompileQuery[int64](semiring.Nat, a, w, q, compile.Options{DynamicRelations: []string{"E"}})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	before, _ := query.ValueClosed()
	tpl := a.Tuples("E")[0]
	good := Change[int64]{Weight: "w", Tuple: tpl, Value: 99}
	bad := [][]Change[int64]{
		{good, {Weight: "nope", Tuple: tpl, Value: 1}},
		{good, {Rel: "U", Tuple: structure.Tuple{0}, Present: true}},
		{good, {Weight: "w", Rel: "E", Tuple: tpl}},
		{good, {}},
		{good, {Weight: "w", Tuple: structure.Tuple{0}, Value: 1}},
	}
	for i, batch := range bad {
		if err := query.ApplyBatch(batch); err == nil {
			t.Fatalf("invalid batch %d accepted", i)
		}
		if got, _ := query.ValueClosed(); got != before {
			t.Fatalf("invalid batch %d partially applied: value %d, want %d", i, got, before)
		}
	}
	// The empty batch is a no-op.
	if err := query.ApplyBatch(nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
}

// TestRingAndFiniteSemiringPaths runs the same queries through every
// maintenance strategy — ring deltas (ℤ, ℚ), finite counts (ℤ/5) and the
// aggregation trees of ℕ and min-plus — and holds the maintained value to a
// from-scratch evaluation after every random SetWeight.  The weighted
// triangle is a chain shape, so every level of its circuit is a one-slot sum
// that each strategy maintains.
func TestRingAndFiniteSemiringPaths(t *testing.T) {
	queries := []struct {
		name string
		q    expr.Expr
	}{
		{"edge", expr.Agg([]string{"x", "y"}, expr.Times(
			expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y"), expr.W("u", "y"),
		))},
		{"triangle", expr.Agg([]string{"x", "y", "z"}, expr.Times(
			expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
			expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
		))},
	}
	a, w := testDB(9, 22, 17)
	mod := semiring.NewModular(5)
	for _, q := range queries {
		if naive(a, w, q.q, map[string]structure.Element{}) == 0 {
			t.Fatalf("%s: the query is zero on the test database: the case tests nothing", q.name)
		}
		checkUpdates(t, q.name+"/Int", semiring.Int, func(v int64) int64 { return v }, a, w, q.q)
		checkUpdates(t, q.name+"/Mod5", mod, func(v int64) int64 { return mod.Add(v, 0) }, a, w, q.q)
		checkUpdates(t, q.name+"/Rat", semiring.Rat, func(v int64) *big.Rat { return big.NewRat(v, 1) }, a, w, q.q)
		// A negative draw sets the semiring's zero: ℕ and min-plus have no
		// negatives, and the aggregation trees see live children drop out.
		checkUpdates(t, q.name+"/Nat", semiring.Nat, func(v int64) int64 { return max(v, 0) }, a, w, q.q)
		checkUpdates(t, q.name+"/MinPlus", semiring.MinPlus, func(v int64) semiring.Ext {
			if v < 0 {
				return semiring.MinPlus.Zero()
			}
			return semiring.Fin(v)
		}, a, w, q.q)
	}
}

// checkUpdates compiles q in sr over a with the weights w converted by conv,
// applies a seeded sequence of random SetWeight calls on w's edge weights and
// compares the maintained value with expr.Eval after each.
func checkUpdates[T any](t *testing.T, name string, sr semiring.Semiring[T], conv func(int64) T, a *structure.Structure, w *structure.Weights[int64], q expr.Expr) {
	t.Helper()
	cw := structure.NewWeights[T]()
	w.Each(func(name string, t structure.Tuple, v int64) { cw.Set(name, t, conv(v)) })
	query, err := CompileQuery(sr, a, cw.Clone(), q, compile.Options{})
	if err != nil {
		t.Fatalf("%s: CompileQuery: %v", name, err)
	}
	edges := a.Tuples("E")
	r := rand.New(rand.NewSource(23))
	for step := 0; step < 20; step++ {
		tpl := edges[r.Intn(len(edges))]
		v := conv(int64(r.Intn(9) - 3))
		if err := query.SetWeight("w", tpl, v); err != nil {
			t.Fatalf("%s: SetWeight: %v", name, err)
		}
		cw.Set("w", tpl, v)
		got, err := query.ValueClosed()
		if err != nil {
			t.Fatalf("%s: ValueClosed: %v", name, err)
		}
		if want := expr.Eval(sr, a, cw, q, map[string]structure.Element{}); !sr.Equal(got, want) {
			t.Fatalf("%s: step %d: maintained %v, from scratch %v", name, step, got, want)
		}
	}
}

func TestPageRankExample(t *testing.T) {
	// Example 9 of the paper: one PageRank round,
	// f(x) = (1-d)/N + d · Σ_y [E(y,x)] · w(y) · invdeg(y).
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}},
		[]structure.WeightSymbol{
			{Name: "w", Arity: 1},
			{Name: "invdeg", Arity: 1},
			{Name: "base", Arity: 0},
		},
	)
	r := rand.New(rand.NewSource(31))
	n := 12
	b := structure.NewBuilder(sig, n)
	for edges := map[[2]int]bool{}; len(edges) < 30; {
		x, y := r.Intn(n), r.Intn(n)
		if x != y {
			edges[[2]int{x, y}] = true
			b.MustAddTuple("E", x, y)
		}
	}
	a := b.Build()
	outdeg := make([]int64, n)
	for _, t := range a.Tuples("E") {
		outdeg[t[0]]++
	}
	damping := big.NewRat(85, 100)
	w := structure.NewWeights[*big.Rat]()
	for v := 0; v < n; v++ {
		w.Set("w", structure.Tuple{v}, big.NewRat(1, int64(n)))
		if outdeg[v] > 0 {
			w.Set("invdeg", structure.Tuple{v}, big.NewRat(1, outdeg[v]))
		}
	}
	w.Set("base", structure.Tuple{}, new(big.Rat).Quo(new(big.Rat).Sub(big.NewRat(1, 1), damping), big.NewRat(int64(n), 1)))

	// f(x) = base + Σ_y [E(y,x)]·w(y)·invdeg(y)·d; the damping factor d is
	// folded into invdeg to keep the expression within natural constants.
	for v := 0; v < n; v++ {
		if outdeg[v] > 0 {
			cur, _ := w.Get("invdeg", structure.Tuple{v})
			w.Set("invdeg", structure.Tuple{v}, new(big.Rat).Mul(cur, damping))
		}
	}
	f := expr.Plus(
		expr.W("base"),
		expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("E", "y", "x")), expr.W("w", "y"), expr.W("invdeg", "y"))),
	)
	query, err := CompileQuery[*big.Rat](semiring.Rat, a, w, f, compile.Options{})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	// The new PageRank vector must sum to (1-d) + d·(mass of nodes with
	// outgoing edges); with every node having out-degree ≥ 1 it sums to 1.
	total := new(big.Rat)
	for x := 0; x < n; x++ {
		v, err := query.Value(x)
		if err != nil {
			t.Fatalf("Value(%d): %v", x, err)
		}
		want := expr.Eval[*big.Rat](semiring.Rat, a, w, f, map[string]structure.Element{"x": x})
		if v.Cmp(want) != 0 {
			t.Fatalf("pagerank(%d) = %s, want %s", x, v.RatString(), want.RatString())
		}
		total.Add(total, v)
	}
	if total.Sign() <= 0 {
		t.Fatalf("total PageRank mass should be positive, got %s", total.RatString())
	}
	// A weight update (a node's previous-round weight changes) is reflected
	// in constant time; cross-check one query point.
	w.Set("w", structure.Tuple{0}, big.NewRat(1, 2))
	if err := query.SetWeight("w", structure.Tuple{0}, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < n; x++ {
		v, _ := query.Value(x)
		want := expr.Eval[*big.Rat](semiring.Rat, a, w, f, map[string]structure.Element{"x": x})
		if v.Cmp(want) != 0 {
			t.Fatalf("after update pagerank(%d) = %s, want %s", x, v.RatString(), want.RatString())
		}
	}
}

// TestQueriesOpenedConcurrentlyAgree opens sessions of one Shared from several
// goroutines at once, so the first NewQuery's search for the gates the
// parameters hold at zero races with the others' (run under -race), and
// holds each session to the brute-force value after writes of its own.
func TestQueriesOpenedConcurrentlyAgree(t *testing.T) {
	q := expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y"), expr.W("u", "y")))
	a, w := testDB(12, 30, 5)
	sh, err := CompileShared(a, q, compile.Options{})
	if err != nil {
		t.Fatalf("CompileShared: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mine := w.Clone()
			query := NewQuery[int64](semiring.Nat, sh, mine.Clone())
			for v := i; v < a.N; v += 4 {
				if err := query.SetWeight("u", structure.Tuple{v}, int64(i+v)); err != nil {
					t.Errorf("SetWeight: %v", err)
					return
				}
				mine.Set("u", structure.Tuple{v}, int64(i+v))
			}
			for x := 0; x < a.N; x++ {
				got, err := query.Value(x)
				want := naive(a, mine, q, map[string]structure.Element{"x": x})
				if err != nil || got != want {
					t.Errorf("session %d: f(%d) = %d, %v; want %d", i, x, got, err, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
