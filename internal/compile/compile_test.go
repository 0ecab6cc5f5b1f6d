package compile

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// testDB builds a random weighted directed graph: binary relation E, unary
// predicate U, binary weight w on edges, unary weight u everywhere.
func testDB(n, m int, seed int64) (*structure.Structure, *structure.Weights[int64]) {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "U", Arity: 1}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}, {Name: "c", Arity: 0}},
	)
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(sig, n)
	w := structure.NewWeights[int64]()
	for w.Len() == 0 || w.Len() < m {
		x, y := r.Intn(n), r.Intn(n)
		if x == y {
			continue
		}
		b.MustAddTuple("E", x, y)
		w.Set("w", structure.Tuple{x, y}, int64(r.Intn(4)+1))
	}
	for v := 0; v < n; v++ {
		if r.Intn(2) == 0 {
			b.MustAddTuple("U", v)
		}
		w.Set("u", structure.Tuple{v}, int64(r.Intn(3)))
	}
	w.Set("c", structure.Tuple{}, 2)
	return b.Build(), w
}

// checkAgainstNaive compiles e and compares the circuit value against the
// naive reference evaluator, in the natural numbers, the min-plus semiring
// and the boolean semiring.
func checkAgainstNaive(t *testing.T, a *structure.Structure, w *structure.Weights[int64], e expr.Expr, opts Options) *Result {
	t.Helper()
	res, err := Compile(a, e, opts)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	env := map[string]structure.Element{}

	gotNat := Evaluate[int64](res, semiring.Nat, w)
	wantNat := expr.Eval[int64](semiring.Nat, a, w, e, env)
	if gotNat != wantNat {
		t.Fatalf("Compile(%s): circuit value %d, naive %d\npolynomial: %s\ncircuit: %+v",
			e, gotNat, wantNat, res.Polynomial, res.Program.Stats())
	}

	wmp := structure.NewWeights[semiring.Ext]()
	w.ForEach(func(k structure.WeightKey, v int64) {
		wmp.Set(k.Weight, structure.ParseTupleKey(k.Tuple), semiring.Fin(v))
	})
	gotMP := Evaluate[semiring.Ext](res, semiring.MinPlus, wmp)
	wantMP := expr.Eval[semiring.Ext](semiring.MinPlus, a, wmp, e, env)
	if !semiring.MinPlus.Equal(gotMP, wantMP) {
		t.Fatalf("Compile(%s) in min-plus: circuit %v, naive %v", e, gotMP, wantMP)
	}

	wb := structure.NewWeights[bool]()
	w.ForEach(func(k structure.WeightKey, v int64) {
		wb.Set(k.Weight, structure.ParseTupleKey(k.Tuple), v != 0)
	})
	gotB := Evaluate[bool](res, semiring.Bool, wb)
	wantB := expr.Eval[bool](semiring.Bool, a, wb, e, env)
	if gotB != wantB {
		t.Fatalf("Compile(%s) in boolean semiring: circuit %v, naive %v", e, gotB, wantB)
	}
	return res
}

func triangleQuery() expr.Expr {
	return expr.Agg([]string{"x", "y", "z"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
		expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
	))
}

func TestCompileTriangleQuery(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		a, w := testDB(9, 20, seed)
		res := checkAgainstNaive(t, a, w, triangleQuery(), Options{})
		st := res.Program.Stats()
		if st.MaxPermRows > 3 {
			t.Errorf("triangle circuit has permanent gates with %d rows, want ≤ 3", st.MaxPermRows)
		}
	}
}

func TestCompileEdgeAndPathQueries(t *testing.T) {
	queries := []expr.Expr{
		// Total number of edges.
		expr.Agg([]string{"x", "y"}, expr.Guard(logic.R("E", "x", "y"))),
		// Total edge weight.
		expr.Agg([]string{"x", "y"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y"))),
		// Weighted paths of length two with distinct endpoints.
		expr.Agg([]string{"x", "y", "z"}, expr.Times(
			expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.Neg(logic.Equal("x", "z")))),
			expr.W("u", "x"), expr.W("u", "z"),
		)),
		// Mixed positive and negative literals.
		expr.Agg([]string{"x", "y"}, expr.Times(
			expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("E", "y", "x")))),
			expr.W("u", "x"), expr.W("u", "y"),
		)),
		// Disjunction (expanded into exclusive monomials).
		expr.Agg([]string{"x", "y"}, expr.Times(
			expr.Guard(logic.Disj(logic.R("E", "x", "y"), logic.R("E", "y", "x"))),
			expr.W("u", "x"),
		)),
		// Non-edges between distinct U-elements (purely negative joins).
		expr.Agg([]string{"x", "y"}, expr.Guard(logic.Conj(
			logic.R("U", "x"), logic.R("U", "y"),
			logic.Neg(logic.R("E", "x", "y")), logic.Neg(logic.Equal("x", "y")),
		))),
		// Unused bound variable contributes a factor |A|.
		expr.Agg([]string{"x", "y", "z"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("u", "x"))),
		// Nullary weight times an aggregation, plus a constant.
		expr.Plus(
			expr.Times(expr.W("c"), expr.Agg([]string{"x"}, expr.W("u", "x"))),
			expr.N(5),
		),
		// Single-variable aggregation with literals.
		expr.Agg([]string{"x"}, expr.Times(expr.Guard(logic.R("U", "x")), expr.W("u", "x"))),
		// Self-loop style literal on a single variable.
		expr.Agg([]string{"x"}, expr.Guard(logic.Neg(logic.R("E", "x", "x")))),
		// Product of two independent aggregations.
		expr.Times(
			expr.Agg([]string{"x"}, expr.W("u", "x")),
			expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("U", "y")), expr.W("u", "y"))),
		),
	}
	for seed := int64(1); seed < 4; seed++ {
		a, w := testDB(8, 14, seed)
		for _, q := range queries {
			checkAgainstNaive(t, a, w, q, Options{})
		}
	}
}

func TestCompileWithQuantifiers(t *testing.T) {
	// Count elements that have an out-neighbour in U, weighted by u.
	q := expr.Agg([]string{"x"}, expr.Times(
		expr.Guard(logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("U", "y")))),
		expr.W("u", "x"),
	))
	// Pairs (x,y) joined by an edge where y has no outgoing edge.
	q2 := expr.Agg([]string{"x", "y"}, expr.Guard(logic.Conj(
		logic.R("E", "x", "y"),
		logic.Neg(logic.Ex([]string{"z"}, logic.R("E", "y", "z"))),
	)))
	for seed := int64(2); seed < 5; seed++ {
		a, w := testDB(8, 16, seed)
		checkAgainstNaive(t, a, w, q, Options{})
		checkAgainstNaive(t, a, w, q2, Options{})
	}
}

func TestCompileRejectsFreeVariables(t *testing.T) {
	a, _ := testDB(5, 8, 1)
	q := expr.Agg([]string{"y"}, expr.Guard(logic.R("E", "x", "y")))
	if _, err := Compile(a, q, Options{}); err == nil {
		t.Errorf("Compile should reject expressions with free variables")
	}
}

func TestCompileRejectsTooManyVariables(t *testing.T) {
	a, _ := testDB(5, 8, 1)
	q := expr.Agg([]string{"a", "b", "c", "d", "e"}, expr.Guard(logic.Conj(
		logic.R("E", "a", "b"), logic.R("E", "b", "c"), logic.R("E", "c", "d"), logic.R("E", "d", "e"),
	)))
	if _, err := Compile(a, q, Options{MaxVars: 4}); err == nil {
		t.Errorf("Compile should reject monomials beyond MaxVars")
	}
	// But it succeeds when the limit is raised.
	if _, err := Compile(a, q, Options{MaxVars: 5}); err != nil {
		t.Errorf("Compile with MaxVars=5 failed: %v", err)
	}
}

func TestCompileUnknownDynamicRelation(t *testing.T) {
	a, _ := testDB(5, 8, 1)
	q := expr.Agg([]string{"x", "y"}, expr.Guard(logic.R("E", "x", "y")))
	if _, err := Compile(a, q, Options{DynamicRelations: []string{"nope"}}); err == nil {
		t.Errorf("unknown dynamic relation should be rejected")
	}
}

func TestCompileDynamicRelations(t *testing.T) {
	// Compiling with E dynamic must produce the same value as static
	// compilation on the current structure, with tuple membership read
	// through the valuation.
	q := expr.Agg([]string{"x", "y"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("E", "y", "x")))),
		expr.W("u", "x"), expr.W("u", "y"),
	))
	for seed := int64(0); seed < 4; seed++ {
		a, w := testDB(7, 12, seed)
		res, err := Compile(a, q, Options{DynamicRelations: []string{"E"}})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		got := Evaluate[int64](res, semiring.Nat, w)
		want := expr.Eval[int64](semiring.Nat, a, w, q, map[string]structure.Element{})
		if got != want {
			t.Fatalf("dynamic compile: circuit %d, naive %d", got, want)
		}
		// The circuit must reference relation inputs rather than baking E in.
		foundRelInput := false
		for id := 0; id < res.Program.NumGates(); id++ {
			if res.Program.GateKind(id) == circuit.KindInput && res.Program.InputKey(id).Role != structure.Ordinary {
				foundRelInput = true
				break
			}
		}
		if !foundRelInput {
			t.Errorf("dynamic compilation produced no relation inputs")
		}
		// Simulate a Gaifman-preserving deletion: remove one edge tuple by
		// flipping its inputs in a dynamic evaluator and compare against
		// naive evaluation on the modified structure.
		if len(a.Tuples("E")) == 0 {
			continue
		}
		victim := a.Tuples("E")[0]
		d := circuit.NewDynamicProgram[int64](res.Program, semiring.Nat, NewValuation[int64](res, semiring.Nat, w))
		d.SetInput(structure.InputLabel("E", structure.Member, victim), 0)
		d.SetInput(structure.InputLabel("E", structure.NonMember, victim), 1)
		// Build the modified structure for the reference value.
		b := structure.NewBuilder(a.Sig, a.N)
		for _, tpl := range a.Tuples("E") {
			if !tpl.Equal(victim) {
				b.MustAddTuple("E", tpl...)
			}
		}
		for _, tpl := range a.Tuples("U") {
			b.MustAddTuple("U", tpl...)
		}
		want = expr.Eval[int64](semiring.Nat, b.Build(), w, q, map[string]structure.Element{})
		if d.Value() != want {
			t.Fatalf("after simulated deletion: dynamic %d, naive %d", d.Value(), want)
		}
	}
}

func TestCompileRandomExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		a, w := testDB(7, 11, int64(trial))
		e := expr.Agg([]string{"x", "y"}, randomSimpleBody(r))
		checkAgainstNaive(t, a, w, e, Options{})
	}
}

// randomSimpleBody generates a random quantifier-free body over variables
// x and y.
func randomSimpleBody(r *rand.Rand) expr.Expr {
	atom := func() logic.Formula {
		vars := []string{"x", "y"}
		a := vars[r.Intn(2)]
		b := vars[r.Intn(2)]
		switch r.Intn(4) {
		case 0:
			return logic.R("E", a, b)
		case 1:
			return logic.Neg(logic.R("E", a, b))
		case 2:
			return logic.R("U", a)
		default:
			return logic.Neg(logic.Equal(a, b))
		}
	}
	weight := func() expr.Expr {
		if r.Intn(2) == 0 {
			return expr.W("u", []string{"x", "y"}[r.Intn(2)])
		}
		return expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y"))
	}
	body := expr.Times(expr.Guard(logic.Conj(atom(), atom())), weight())
	if r.Intn(2) == 0 {
		body = expr.Plus(body, expr.Times(expr.Guard(atom()), weight()))
	}
	return body
}

func TestCompileStatsAndLinearSize(t *testing.T) {
	// The circuit size should grow roughly linearly with the database.
	q := triangleQuery()
	var sizes []int
	var ns []int
	for _, n := range []int{20, 40, 80} {
		a, w := testDB(n, 2*n, 7)
		// Plant a few directed triangles so the query has non-zero answers.
		plant := a.Edit()
		for i := 0; i+2 < n; i += 10 {
			plant.MustAddTuple("E", i, i+1)
			plant.MustAddTuple("E", i+1, i+2)
			plant.MustAddTuple("E", i+2, i)
			for _, t := range []structure.Tuple{{i, i + 1}, {i + 1, i + 2}, {i + 2, i}} {
				if _, ok := w.Get("w", t); !ok {
					w.Set("w", t, 1)
				}
			}
		}
		a = plant.Build()
		res, err := Compile(a, q, Options{})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		got := Evaluate[int64](res, semiring.Nat, w)
		want := expr.Eval[int64](semiring.Nat, a, w, q, map[string]structure.Element{})
		if got != want {
			t.Fatalf("n=%d: circuit %d, naive %d", n, got, want)
		}
		if want == 0 {
			t.Fatalf("n=%d: expected planted triangles to give a non-zero count", n)
		}
		st := res.Program.Stats()
		sizes = append(sizes, st.Gates+st.Edges)
		ns = append(ns, n)
		if res.Stats.Monomials != 1 {
			t.Errorf("expected 1 monomial, got %d", res.Stats.Monomials)
		}
		if res.Stats.Colors == 0 || res.Stats.ColorAssignments == 0 {
			t.Errorf("expected colouring statistics to be populated: %+v", res.Stats)
		}
	}
	// Allow generous slack: size(n=80)/size(n=20) should be well below the
	// quadratic ratio 16.
	ratio := float64(sizes[2]) / float64(sizes[0])
	if ratio > 10 {
		t.Errorf("circuit size ratio %0.1f for a 4× larger database suggests super-linear growth (sizes=%v, n=%v)", ratio, sizes, ns)
	}
}

// TestMembershipInputRoles checks that Lemma 40's two inputs of a tuple are
// told apart by their role alone, that the shadow's translation of a tuple
// update yields exactly the inputs the compiler wired, and that no ordinary
// weight — not even one named like the inputs' rendering — is taken for one.
func TestMembershipInputRoles(t *testing.T) {
	tuple := structure.Tuple{3, 5}
	pos, neg := structure.InputLabel("E", membershipRole(true), tuple), structure.InputLabel("E", membershipRole(false), tuple)
	if pos == neg || pos.Role != structure.Member || neg.Role != structure.NonMember || pos.Weight != "E" || neg.Weight != "E" {
		t.Fatalf("membership inputs of E(3,5): v⁺ %+v, v⁻ %+v", pos, neg)
	}
	if pos.Name() != "rel+:E" || neg.Name() != "rel-:E" {
		t.Errorf("membership inputs render as %q and %q", pos.Name(), neg.Name())
	}
	for _, w := range []string{"E", "rel+:E", "rel-:E"} {
		if k := structure.MakeWeightKey(w, tuple); k.Role != structure.Ordinary || k == pos || k == neg {
			t.Errorf("ordinary weight %s(3,5) is keyed %+v, a membership input", w, k)
		}
	}

	a, w := testDB(7, 12, 3)
	victim := a.Tuples("E")[0]
	q := expr.Agg([]string{"x", "y"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("u", "x")))
	res, err := Compile(a, q, Options{DynamicRelations: []string{"E"}})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	shadow := NewRelations(res)
	leaves, was := shadow.Record("E", victim, false)
	if !was || leaves[0].Value || !leaves[1].Value {
		t.Fatalf("Record(E%v, absent) = %+v, was %v", victim, leaves, was)
	}
	p := res.Program
	if leaves[0].Gate < 0 || p.InputKey(leaves[0].Gate) != structure.InputLabel("E", structure.Member, victim) || leaves[1].Gate != p.InputGate(structure.InputLabel("E", structure.NonMember, victim)) {
		t.Errorf("Record's leaves %+v are not the compiled inputs of E%v", leaves, victim)
	}
	if id := res.Program.InputGate(structure.MakeWeightKey("rel+:E", victim)); id >= 0 {
		t.Errorf("the weight rel+:E%v addresses input gate %d", victim, id)
	}
	val := NewValuation[int64](res, semiring.Nat, w)
	if v, ok := val(p.Input(leaves[0].Gate)); !ok || v != 1 {
		t.Errorf("valuation of v⁺_E%v = %d, %v; want 1 as compiled", victim, v, ok)
	}
}
