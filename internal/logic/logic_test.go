package logic

import (
	"testing"

	"repro/internal/structure"
)

// directedPath builds a structure with a directed edge relation E forming a
// path 0 → 1 → ... → n-1, plus a unary predicate Odd on odd elements.
func directedPath(t *testing.T, n int) *structure.Structure {
	t.Helper()
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "Odd", Arity: 1}},
		nil,
	)
	b := structure.NewBuilder(sig, n)
	for i := 0; i+1 < n; i++ {
		b.MustAddTuple("E", i, i+1)
	}
	for i := 1; i < n; i += 2 {
		b.MustAddTuple("Odd", i)
	}
	return b.Build()
}

func TestFreeVars(t *testing.T) {
	f := Conj(R("E", "x", "y"), Ex([]string{"z"}, Conj(R("E", "y", "z"), Equal("z", "x"))))
	got := FreeVars(f)
	want := []string{"x", "y"}
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeVars = %v, want %v", got, want)
		}
	}
	if vars := FreeVars(True()); len(vars) != 0 {
		t.Errorf("True has free variables %v", vars)
	}
}

func TestEval(t *testing.T) {
	a := directedPath(t, 5)
	env := map[string]structure.Element{"x": 1, "y": 2}

	cases := []struct {
		f    Formula
		want bool
	}{
		{R("E", "x", "y"), true},
		{R("E", "y", "x"), false},
		{R("Odd", "x"), true},
		{R("Odd", "y"), false},
		{Equal("x", "x"), true},
		{Equal("x", "y"), false},
		{Neg(R("E", "y", "x")), true},
		{Conj(R("E", "x", "y"), R("Odd", "x")), true},
		{Conj(R("E", "x", "y"), R("Odd", "y")), false},
		{Disj(R("Odd", "y"), R("Odd", "x")), true},
		{Conj(), true},
		{Disj(), false},
		{True(), true},
		{False(), false},
		// ∃z E(y,z): 2 has successor 3.
		{Ex([]string{"z"}, R("E", "y", "z")), true},
		// ∀z ¬E(z,x): 1 has predecessor 0, so false.
		{All([]string{"z"}, Neg(R("E", "z", "x"))), false},
		// Nested: ∃z (E(y,z) ∧ Odd(z)): successor of 2 is 3, odd.
		{Ex([]string{"z"}, Conj(R("E", "y", "z"), R("Odd", "z"))), true},
	}
	for _, c := range cases {
		if got := Eval(c.f, a, env); got != c.want {
			t.Errorf("Eval(%s) = %v, want %v", c.f, got, c.want)
		}
	}
	// env must be unchanged by quantifier evaluation.
	if env["x"] != 1 || env["y"] != 2 || len(env) != 2 {
		t.Errorf("environment mutated by evaluation: %v", env)
	}
}

func TestQuantifierFree(t *testing.T) {
	if !IsQuantifierFree(Conj(R("E", "x", "y"), Neg(Equal("x", "y")))) {
		t.Errorf("quantifier-free formula misclassified")
	}
	if IsQuantifierFree(Ex([]string{"z"}, R("E", "x", "z"))) {
		t.Errorf("existential formula misclassified")
	}
	if IsQuantifierFree(Neg(All([]string{"z"}, True()))) {
		t.Errorf("universal under negation misclassified")
	}
}

func TestRename(t *testing.T) {
	f := Conj(R("E", "x", "y"), Ex([]string{"x"}, R("E", "x", "y")))
	g := Rename(f, map[string]string{"x": "a", "y": "b"})
	want := "(E(a,b)) ∧ (∃x.(E(x,b)))"
	if g.String() != want {
		t.Errorf("Rename produced %q, want %q", g.String(), want)
	}
}

func TestAnswers(t *testing.T) {
	a := directedPath(t, 4) // edges 0→1,1→2,2→3
	// Pairs (x,y) with an edge.
	ans := Answers(R("E", "x", "y"), a, []string{"x", "y"})
	if len(ans) != 3 {
		t.Fatalf("got %d answers, want 3", len(ans))
	}
	// Paths of length 2.
	phi := Conj(R("E", "x", "y"), R("E", "y", "z"))
	ans = Answers(phi, a, []string{"x", "y", "z"})
	if len(ans) != 2 {
		t.Fatalf("got %d length-2 paths, want 2", len(ans))
	}
	// Elements with no outgoing edge: only 3.
	noOut := Neg(Ex([]string{"y"}, R("E", "x", "y")))
	ans = Answers(noOut, a, []string{"x"})
	if len(ans) != 1 || ans[0][0] != 3 {
		t.Fatalf("sinks = %v, want [[3]]", ans)
	}
}

func TestCollectAtoms(t *testing.T) {
	f := Conj(R("E", "x", "y"), Disj(Neg(R("E", "x", "y")), Equal("x", "y")), Ex([]string{"z"}, R("E", "y", "z")))
	atoms := CollectAtoms(f)
	// E(x,y), x=y, E(y,z): duplicates removed.
	if len(atoms) != 3 {
		t.Fatalf("CollectAtoms returned %d atoms, want 3: %v", len(atoms), atoms)
	}
}

func TestEvalUnderAtoms(t *testing.T) {
	f := Disj(Conj(R("E", "x", "y"), Neg(Equal("x", "y"))), Truth{Value: false})
	truth := map[string]bool{
		Atom{Rel: "E", Args: []string{"x", "y"}}.String(): true,
		Eq{Left: "x", Right: "y"}.String():                false,
	}
	if !EvalUnderAtoms(f, truth) {
		t.Errorf("formula should hold under this atom valuation")
	}
	truth[Eq{Left: "x", Right: "y"}.String()] = true
	if EvalUnderAtoms(f, truth) {
		t.Errorf("formula should fail when x=y is true")
	}
}

func TestStringRendering(t *testing.T) {
	f := Ex([]string{"y"}, Conj(R("E", "x", "y"), Neg(R("Odd", "y"))))
	if f.String() == "" {
		t.Errorf("empty rendering")
	}
	if All([]string{"x"}, True()).String() == "" {
		t.Errorf("empty rendering of universal formula")
	}
}
