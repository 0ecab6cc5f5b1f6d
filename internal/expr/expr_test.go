package expr

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// weightedDigraph builds a directed graph structure with edge relation E,
// unary predicate U on a random subset, a binary weight w on edges and a
// unary weight u on all elements.
func weightedDigraph(n, m int, seed int64) (*structure.Structure, *structure.Weights[int64]) {
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

func TestEvalBasics(t *testing.T) {
	a, w := weightedDigraph(6, 8, 1)
	env := map[string]structure.Element{}

	// Constant.
	if got := Eval[int64](semiring.Nat, a, w, N(7), env); got != 7 {
		t.Errorf("Eval(7) = %d", got)
	}
	// Number of edges: Σ_{x,y} [E(x,y)].
	edges := Agg([]string{"x", "y"}, Guard(logic.R("E", "x", "y")))
	if got := Eval[int64](semiring.Nat, a, w, edges, env); got != int64(len(a.Tuples("E"))) {
		t.Errorf("edge count = %d, want %d", got, len(a.Tuples("E")))
	}
	// Total edge weight: Σ_{x,y} [E(x,y)]·w(x,y).
	totalWeight := Agg([]string{"x", "y"}, Times(Guard(logic.R("E", "x", "y")), W("w", "x", "y")))
	var want int64
	for _, tup := range a.Tuples("E") {
		v, _ := w.Get("w", tup)
		want += v
	}
	if got := Eval[int64](semiring.Nat, a, w, totalWeight, env); got != want {
		t.Errorf("total edge weight = %d, want %d", got, want)
	}
	// Free variable: out-degree of a node.
	outdeg := Agg([]string{"y"}, Guard(logic.R("E", "x", "y")))
	env["x"] = 0
	var deg int64
	for _, tup := range a.Tuples("E") {
		if tup[0] == 0 {
			deg++
		}
	}
	if got := Eval[int64](semiring.Nat, a, w, outdeg, env); got != deg {
		t.Errorf("out-degree of 0 = %d, want %d", got, deg)
	}
	delete(env, "x")
	// Empty sum and product.
	if got := Eval[int64](semiring.Nat, a, w, Plus(), env); got != 0 {
		t.Errorf("empty sum = %d", got)
	}
	if got := Eval[int64](semiring.Nat, a, w, Times(), env); got != 1 {
		t.Errorf("empty product = %d", got)
	}
}

func TestFreeVarsExpr(t *testing.T) {
	e := Agg([]string{"y"}, Times(Guard(logic.R("E", "x", "y")), W("w", "x", "y"), W("u", "z")))
	got := FreeVars(e)
	want := []string{"x", "z"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("FreeVars = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}},
	)
	good := Agg([]string{"x", "y"}, Times(Guard(logic.R("E", "x", "y")), W("w", "x", "y")))
	if err := Validate(good, sig); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	bad := []Expr{
		W("missing", "x"),
		W("w", "x"),
		Guard(logic.R("F", "x", "y")),
		Guard(logic.R("E", "x")),
		N(-2),
	}
	for _, e := range bad {
		if err := Validate(e, sig); err == nil {
			t.Errorf("Validate(%s) should fail", e)
		}
	}
}

func TestNormalizeRejectsQuantifiers(t *testing.T) {
	e := Guard(logic.Ex([]string{"y"}, logic.R("E", "x", "y")))
	if _, err := Normalize(e, NormalizeOptions{}); err == nil {
		t.Errorf("Normalize should reject quantified brackets")
	}
}

func TestNormalizeTriangle(t *testing.T) {
	// The triangle query has a single all-positive monomial.
	tri := Agg([]string{"x", "y", "z"}, Times(
		Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
		W("w", "x", "y"), W("w", "y", "z"), W("w", "z", "x"),
	))
	p, err := Normalize(tri, NormalizeOptions{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if len(p.Monomials) != 1 {
		t.Fatalf("triangle query normalised to %d monomials, want 1:\n%s", len(p.Monomials), p)
	}
	m := p.Monomials[0]
	if len(m.Bound) != 3 || len(m.Literals) != 3 || len(m.Weights) != 3 || m.Coeff != 1 {
		t.Errorf("unexpected monomial: %s", m)
	}
	if len(p.FreeVars()) != 0 {
		t.Errorf("closed query has free vars %v", p.FreeVars())
	}
}

func TestNormalizeDisjunctionExclusive(t *testing.T) {
	// [E(x,y) ∨ E(y,x)] must expand into mutually exclusive monomials so
	// that the sum over the monomials equals the bracket in every semiring.
	e := Agg([]string{"x", "y"}, Guard(logic.Disj(logic.R("E", "x", "y"), logic.R("E", "y", "x"))))
	p, err := Normalize(e, NormalizeOptions{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if len(p.Monomials) != 3 {
		t.Errorf("disjunction expanded to %d monomials, want 3", len(p.Monomials))
	}
	a, w := weightedDigraph(7, 12, 3)
	env := map[string]structure.Element{}
	want := Eval[int64](semiring.Nat, a, w, e, env)
	got := EvalPolynomial[int64](semiring.Nat, a, w, p, env)
	if got != want {
		t.Errorf("polynomial value %d, want %d", got, want)
	}
}

func TestNormalizeNestedSums(t *testing.T) {
	// Σ_x (u(x) · Σ_y [E(x,y)]·u(y)) flattens into a single prenex block.
	e := Agg([]string{"x"}, Times(W("u", "x"), Agg([]string{"y"}, Times(Guard(logic.R("E", "x", "y")), W("u", "y")))))
	p, err := Normalize(e, NormalizeOptions{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if len(p.Monomials) != 1 {
		t.Fatalf("got %d monomials, want 1", len(p.Monomials))
	}
	if len(p.Monomials[0].Bound) != 2 {
		t.Errorf("expected 2 bound variables, got %v", p.Monomials[0].Bound)
	}
	a, w := weightedDigraph(6, 10, 5)
	env := map[string]structure.Element{}
	if got, want := EvalPolynomial[int64](semiring.Nat, a, w, p, env), Eval[int64](semiring.Nat, a, w, e, env); got != want {
		t.Errorf("nested sum: polynomial %d, reference %d", got, want)
	}
}

func TestNormalizeVariableShadowing(t *testing.T) {
	// Two independent aggregations over the same variable name must not be
	// conflated: Σ_x u(x) · Σ_x u(x) = (Σ_x u(x))².
	e := Times(Agg([]string{"x"}, W("u", "x")), Agg([]string{"x"}, W("u", "x")))
	p, err := Normalize(e, NormalizeOptions{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	a, w := weightedDigraph(5, 6, 7)
	env := map[string]structure.Element{}
	want := Eval[int64](semiring.Nat, a, w, e, env)
	got := EvalPolynomial[int64](semiring.Nat, a, w, p, env)
	if got != want {
		t.Errorf("shadowed bound variables: polynomial %d, reference %d", got, want)
	}
	if len(p.Monomials) != 1 || len(p.Monomials[0].Bound) != 2 {
		t.Errorf("expected one monomial with two distinct bound variables, got %s", p)
	}
}

func TestNormalizeContradictionsDropped(t *testing.T) {
	e := Agg([]string{"x", "y"}, Times(Guard(logic.R("E", "x", "y")), Guard(logic.Neg(logic.R("E", "x", "y")))))
	p, err := Normalize(e, NormalizeOptions{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if len(p.Monomials) != 0 {
		t.Errorf("contradictory product should normalise to 0, got %s", p)
	}
	// x ≠ x is always false.
	e2 := Agg([]string{"x"}, Guard(logic.Neg(logic.Equal("x", "x"))))
	p2, err := Normalize(e2, NormalizeOptions{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if len(p2.Monomials) != 0 {
		t.Errorf("x≠x should normalise to 0, got %s", p2)
	}
	// Zero constants vanish.
	p3, err := Normalize(Times(N(0), W("u", "x")), NormalizeOptions{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if len(p3.Monomials) != 0 {
		t.Errorf("0·u(x) should normalise to 0")
	}
}

// randomExpr builds a random weighted expression over the signature used by
// weightedDigraph, with bounded aggregation depth.
func randomExpr(r *rand.Rand, vars []string, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return N(int64(r.Intn(3)))
		case 1:
			if len(vars) == 0 {
				return N(1)
			}
			return W("u", vars[r.Intn(len(vars))])
		case 2:
			if len(vars) < 1 {
				return N(1)
			}
			x := vars[r.Intn(len(vars))]
			y := vars[r.Intn(len(vars))]
			return Times(Guard(logic.R("E", x, y)), W("w", x, y))
		default:
			if len(vars) == 0 {
				return N(1)
			}
			x := vars[r.Intn(len(vars))]
			y := vars[r.Intn(len(vars))]
			var f logic.Formula
			switch r.Intn(4) {
			case 0:
				f = logic.R("E", x, y)
			case 1:
				f = logic.Neg(logic.R("E", x, y))
			case 2:
				f = logic.Conj(logic.R("U", x), logic.Neg(logic.Equal(x, y)))
			default:
				f = logic.Disj(logic.R("U", x), logic.R("E", x, y))
			}
			return Guard(f)
		}
	}
	switch r.Intn(3) {
	case 0:
		return Plus(randomExpr(r, vars, depth-1), randomExpr(r, vars, depth-1))
	case 1:
		return Times(randomExpr(r, vars, depth-1), randomExpr(r, vars, depth-1))
	default:
		v := []string{"x", "y", "z", "t"}[r.Intn(4)]
		inner := append(append([]string(nil), vars...), v)
		return Agg([]string{v}, randomExpr(r, inner, depth-1))
	}
}

// TestNormalizePreservesSemantics is the central property test of this
// package: for random expressions, random structures and several semirings,
// the normalised polynomial evaluates to the same value as the original
// expression.
func TestNormalizePreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		e := Agg([]string{"x"}, randomExpr(r, []string{"x"}, 3))
		p, err := Normalize(e, NormalizeOptions{})
		if err != nil {
			t.Fatalf("Normalize(%s): %v", e, err)
		}
		a, w := weightedDigraph(5, 7, int64(trial))
		env := map[string]structure.Element{}

		if got, want := EvalPolynomial[int64](semiring.Nat, a, w, p, env), Eval[int64](semiring.Nat, a, w, e, env); got != want {
			t.Fatalf("trial %d (Nat): polynomial %d, reference %d\nexpr: %s\npoly: %s", trial, got, want, e, p)
		}

		// Min-plus weights: reuse the integer weights as costs.
		wmp := structure.NewWeights[semiring.Ext]()
		w.ForEach(func(k structure.WeightKey, v int64) {
			wmp.Set(k.Weight, structure.ParseTupleKey(k.Tuple), semiring.Fin(v))
		})
		gotMP := EvalPolynomial[semiring.Ext](semiring.MinPlus, a, wmp, p, env)
		wantMP := Eval[semiring.Ext](semiring.MinPlus, a, wmp, e, env)
		if !semiring.MinPlus.Equal(gotMP, wantMP) {
			t.Fatalf("trial %d (MinPlus): polynomial %v, reference %v\nexpr: %s", trial, gotMP, wantMP, e)
		}

		// Boolean semiring.
		wb := structure.NewWeights[bool]()
		w.ForEach(func(k structure.WeightKey, v int64) {
			wb.Set(k.Weight, structure.ParseTupleKey(k.Tuple), v != 0)
		})
		gotB := EvalPolynomial[bool](semiring.Bool, a, wb, p, env)
		wantB := Eval[bool](semiring.Bool, a, wb, e, env)
		if gotB != wantB {
			t.Fatalf("trial %d (Bool): polynomial %v, reference %v\nexpr: %s", trial, gotB, wantB, e)
		}
	}
}

func TestMonomialAccessors(t *testing.T) {
	m := &Monomial{
		Coeff:    2,
		Bound:    []string{"x"},
		Literals: []Literal{{Positive: true, Rel: "E", Args: []string{"x", "y"}}},
		Weights:  []WeightTerm{{W: "u", Args: []string{"x"}}},
	}
	vars := m.Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars = %v", vars)
	}
	free := m.FreeVars()
	if len(free) != 1 || free[0] != "y" {
		t.Errorf("FreeVars = %v", free)
	}
	if m.String() == "" {
		t.Errorf("empty monomial rendering")
	}
	l := Literal{Positive: false, Args: []string{"x", "y"}}
	if !l.IsEquality() || l.String() != "x≠y" {
		t.Errorf("equality literal rendering: %q", l.String())
	}
}

func TestBracketAtomLimit(t *testing.T) {
	// A bracket with more atoms than the limit is rejected.
	var atoms []logic.Formula
	for i := 0; i < 5; i++ {
		atoms = append(atoms, logic.R("U", string(rune('a'+i))))
	}
	e := Guard(logic.Conj(atoms...))
	if _, err := Normalize(e, NormalizeOptions{MaxBracketAtoms: 3}); err == nil {
		t.Errorf("bracket exceeding atom limit should be rejected")
	}
	if _, err := Normalize(e, NormalizeOptions{MaxBracketAtoms: 8}); err != nil {
		t.Errorf("bracket within atom limit rejected: %v", err)
	}
}
