package kc

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/structure"
)

// input is the input gate of weight w at the elements.
func input(c *circuit.Circuit, w string, elems ...int) int {
	return c.Input(w, structure.Ordinary, elems)
}

// smallGraph builds a random sparse directed graph with unary weights u, v
// and binary weight w.
func smallGraph(n, m int, seed int64) (*structure.Structure, *structure.Weights[int64]) {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "R", Arity: 1}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}, {Name: "v", Arity: 1}},
	)
	b := structure.NewBuilder(sig, n)
	weights := structure.NewWeights[int64]()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < m; i++ {
		x, y := r.Intn(n), r.Intn(n)
		if _, dup := weights.Get("w", structure.Tuple{x, y}); x == y || dup {
			continue
		}
		b.MustAddTuple("E", x, y)
		weights.Set("w", structure.Tuple{x, y}, int64(r.Intn(5)+1))
	}
	for x := 0; x < n; x++ {
		if r.Intn(2) == 0 {
			b.MustAddTuple("R", x)
		}
		weights.Set("u", structure.Tuple{x}, int64(r.Intn(4)+1))
		weights.Set("v", structure.Tuple{x}, int64(r.Intn(4)+1))
	}
	return b.Build(), weights
}

func edgePairQuery() expr.Expr {
	// Σ_{x,y} [E(x,y)] · u(x) · v(y): one monomial u(a)·v(b) per edge (a,b).
	return expr.Agg([]string{"x", "y"}, expr.Times(
		expr.Guard(logic.R("E", "x", "y")), expr.W("u", "x"), expr.W("v", "y"),
	))
}

func TestAnalyzeDependencies(t *testing.T) {
	c := circuit.NewBuilder()
	ux := input(c, "u", 0)
	vy := input(c, "v", 1)
	wxy := input(c, "w", 0, 1)
	prod := c.Mul(ux, vy)
	sum := c.Add(prod, wxy)
	c.SetOutput(sum)

	a := Analyze(c.Program())
	if got := a.Program().NumInputs(); got != 3 {
		t.Fatalf("expected 3 variables, got %d", got)
	}
	if got := a.DependencyCount(prod); got != 2 {
		t.Errorf("product should depend on 2 inputs, got %d", got)
	}
	if got := a.DependencyCount(sum); got != 3 {
		t.Errorf("sum should depend on 3 inputs, got %d", got)
	}
}

func TestCheckDecomposableHandBuilt(t *testing.T) {
	// u(0)·v(1) is decomposable; u(0)·u(0) is not.
	good := circuit.NewBuilder()
	g := good.Mul(input(good, "u", 0), input(good, "v", 1))
	good.SetOutput(g)
	if v := Analyze(good.Program()).CheckDecomposable(); len(v) != 0 {
		t.Errorf("decomposable circuit flagged: %v", v)
	}

	bad := circuit.NewBuilder()
	in := input(bad, "u", 0)
	b := bad.Mul(in, in)
	bad.SetOutput(b)
	violations := Analyze(bad.Program()).CheckDecomposable()
	if len(violations) == 0 {
		t.Fatalf("u(0)·u(0) should violate decomposability")
	}
	if violations[0].Property != "decomposable" || !strings.Contains(violations[0].String(), "gate") {
		t.Errorf("unexpected violation rendering: %v", violations[0])
	}

	// A permanent whose two columns share an input is not decomposable.
	sharedPerm := circuit.NewBuilder()
	shared := input(sharedPerm, "u", 0)
	other := input(sharedPerm, "v", 1)
	p := sharedPerm.Perm(2, 2, []circuit.PermEntry{
		{Row: 0, Col: 0, Gate: shared},
		{Row: 1, Col: 0, Gate: other},
		{Row: 0, Col: 1, Gate: shared},
		{Row: 1, Col: 1, Gate: other},
	})
	sharedPerm.SetOutput(p)
	if v := Analyze(sharedPerm.Program()).CheckDecomposable(); len(v) == 0 {
		t.Errorf("permanent with shared columns should violate decomposability")
	}

	// A permanent whose columns use distinct inputs is decomposable.
	okPerm := circuit.NewBuilder()
	p2 := okPerm.Perm(2, 2, []circuit.PermEntry{
		{Row: 0, Col: 0, Gate: input(okPerm, "u", 0)},
		{Row: 1, Col: 0, Gate: input(okPerm, "v", 0)},
		{Row: 0, Col: 1, Gate: input(okPerm, "u", 1)},
		{Row: 1, Col: 1, Gate: input(okPerm, "v", 1)},
	})
	okPerm.SetOutput(p2)
	if v := Analyze(okPerm.Program()).CheckDecomposable(); len(v) != 0 {
		t.Errorf("column-disjoint permanent flagged: %v", v)
	}
}

func TestCompiledCircuitsAreDecomposable(t *testing.T) {
	a, _ := smallGraph(30, 80, 5)
	queries := []expr.Expr{
		edgePairQuery(),
		expr.Agg([]string{"x", "y", "z"}, expr.Times(
			expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
			expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
		)),
		expr.Agg([]string{"x", "y"}, expr.Times(
			expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("R", "y")))),
			expr.W("u", "x"), expr.W("v", "y"),
		)),
	}
	for i, q := range queries {
		res, err := compile.Compile(a, q, compile.Options{})
		if err != nil {
			t.Fatalf("query %d: compile: %v", i, err)
		}
		an := Analyze(res.Program)
		if v := an.CheckDecomposable(); len(v) != 0 {
			t.Errorf("query %d: compiled circuit violates decomposability: %v", i, v[0])
		}
	}
}

func TestCheckDeterministic(t *testing.T) {
	a, _ := smallGraph(25, 60, 9)

	// Each edge contributes the distinct monomial u(x)·v(y): deterministic.
	res, err := compile.Compile(a, edgePairQuery(), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := Analyze(res.Program).CheckDeterministic(); len(v) != 0 {
		t.Errorf("edge-pair circuit should be deterministic, got %v", v[0])
	}

	// Pure counting (no weight factors) adds the empty monomial once per
	// marked vertex, so the top addition gate is not deterministic — which is
	// exactly why the enumeration construction of Theorem 24 multiplies in
	// answer generators.
	counting := expr.Agg([]string{"x"}, expr.Guard(logic.R("R", "x")))
	resCount, err := compile.Compile(a, counting, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	marked := int64(len(a.Tuples("R")))
	if marked < 2 {
		t.Fatalf("test structure should have at least 2 marked vertices")
	}
	if v := Analyze(resCount.Program).CheckDeterministic(); len(v) == 0 {
		t.Errorf("pure counting circuit should not be deterministic")
	}

	// v⁺ and v⁻ of one tuple differ only by their role and are two inputs:
	// their sum produces two distinct monomials.
	c := circuit.NewBuilder()
	c.SetOutput(c.Add(c.Input("R", structure.Member, structure.Tuple{3}), c.Input("R", structure.NonMember, structure.Tuple{3})))
	if v := Analyze(c.Program()).CheckDeterministic(); len(v) != 0 {
		t.Errorf("v⁺ + v⁻ of R(3) should be deterministic, got %v", v[0])
	}
}

func TestFactorizationReport(t *testing.T) {
	a, _ := smallGraph(40, 120, 17)
	res, err := compile.Compile(a, edgePairQuery(), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	answers := int64(len(a.Tuples("E"))) // one answer per edge
	rep := Factorization(res.Program, answers, 2)
	if rep.Answers.Int64() != answers {
		t.Errorf("Answers = %s, want %d", rep.Answers, answers)
	}
	wantFlat := new(big.Int).Mul(rep.Answers, big.NewInt(2))
	if rep.FlatCells.Cmp(wantFlat) != 0 {
		t.Errorf("FlatCells = %s, want %s", rep.FlatCells, wantFlat)
	}
	if rep.CircuitSize <= 0 {
		t.Errorf("CircuitSize should be positive")
	}
	if rep.CompressionRatio <= 0 {
		t.Errorf("CompressionRatio should be positive, got %g", rep.CompressionRatio)
	}
}

func TestDOT(t *testing.T) {
	c := circuit.NewBuilder()
	p := c.Perm(2, 2, []circuit.PermEntry{
		{Row: 0, Col: 0, Gate: input(c, "u", 0)},
		{Row: 1, Col: 0, Gate: input(c, "v", 0)},
		{Row: 0, Col: 1, Gate: input(c, "u", 1)},
		{Row: 1, Col: 1, Gate: input(c, "v", 1)},
	})
	out := c.Add(p, c.ConstInt(3))
	c.SetOutput(out)

	dot := DOT(c.Program())
	for _, want := range []string{"digraph circuit", "perm 2×2", "shape=diamond", "->", "penwidth=2", "label=\"r1c1\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// One node line per gate.
	if got := strings.Count(dot, "\n  g"); got < c.NumGates() {
		t.Errorf("DOT output has %d gate/edge lines, expected at least %d node lines", got, c.NumGates())
	}
}
