package qe

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/structure"
)

func randomStructure(n, m int, seed int64) *structure.Structure {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}, {Name: "U", Arity: 1}},
		nil,
	)
	r := rand.New(rand.NewSource(seed))
	a := structure.NewStructure(sig, n)
	for a.TupleCount() < m {
		x, y := r.Intn(n), r.Intn(n)
		if x != y {
			a.MustAddTuple("E", x, y)
		}
	}
	for v := 0; v < n; v++ {
		if r.Intn(2) == 0 {
			a.MustAddTuple("S", v)
		}
		if r.Intn(3) == 0 {
			a.MustAddTuple("U", v)
		}
	}
	return a
}

// checkEquivalence verifies that the rewritten formula has exactly the same
// answers on the extended structure as the original formula on the original
// structure.
func checkEquivalence(t *testing.T, a *structure.Structure, f logic.Formula, vars []string) {
	t.Helper()
	res, err := Eliminate(a, f, nil)
	if err != nil {
		t.Fatalf("Eliminate(%s): %v", f, err)
	}
	if !logic.IsQuantifierFree(res.Formula) {
		t.Fatalf("Eliminate(%s) left quantifiers: %s", f, res.Formula)
	}
	want := logic.Answers(f, a, vars)
	got := logic.Answers(res.Formula, res.Structure, vars)
	if len(want) != len(got) {
		t.Fatalf("Eliminate(%s): %d answers, want %d\nrewritten: %s", f, len(got), len(want), res.Formula)
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("Eliminate(%s): answer %d is %v, want %v", f, i, got[i], want[i])
		}
	}
	// The extension must not change the domain or the original relations.
	if res.Structure.N != a.N {
		t.Fatalf("domain changed")
	}
	for _, r := range a.Sig.Relations {
		if len(res.Structure.Tuples(r.Name)) != len(a.Tuples(r.Name)) {
			t.Fatalf("relation %s changed", r.Name)
		}
	}
}

func TestEliminateGuardedExistentials(t *testing.T) {
	a := randomStructure(12, 30, 5)
	cases := []struct {
		f    logic.Formula
		vars []string
	}{
		// ∃y E(x,y): x has an out-neighbour.
		{logic.Ex([]string{"y"}, logic.R("E", "x", "y")), []string{"x"}},
		// ∃y E(x,y) ∧ S(y): x has an out-neighbour in S.
		{logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("S", "y"))), []string{"x"}},
		// ∃y (E(x,y) ∨ E(y,x)) ∧ ¬S(y).
		{logic.Ex([]string{"y"}, logic.Conj(logic.Disj(logic.R("E", "x", "y"), logic.R("E", "y", "x")), logic.Neg(logic.R("S", "y")))), []string{"x"}},
		// Non-adjacent witnesses: ∃y ¬E(x,y) ∧ S(y) ∧ x≠y.
		{logic.Ex([]string{"y"}, logic.Conj(logic.Neg(logic.R("E", "x", "y")), logic.R("S", "y"), logic.Neg(logic.Equal("x", "y")))), []string{"x"}},
		// ∀y (E(x,y) → S(y)), i.e. ¬∃y E(x,y) ∧ ¬S(y).
		{logic.All([]string{"y"}, logic.Disj(logic.Neg(logic.R("E", "x", "y")), logic.R("S", "y"))), []string{"x"}},
		// Combination with an outer quantifier-free part.
		{logic.Conj(logic.R("U", "x"), logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("U", "y")))), []string{"x"}},
		// Two independent guarded quantifiers, over two free variables.
		{logic.Conj(
			logic.Ex([]string{"u"}, logic.Conj(logic.R("E", "x", "u"), logic.R("S", "u"))),
			logic.Ex([]string{"v"}, logic.R("E", "v", "z")),
		), []string{"x", "z"}},
		// Sentence-like: ∃y S(y) ∧ U(y).
		{logic.Conj(logic.R("U", "x"), logic.Ex([]string{"y"}, logic.Conj(logic.R("S", "y"), logic.R("U", "y")))), []string{"x"}},
		// Nested guarded quantifiers: ∃y E(x,y) ∧ ∃z E(y,z).
		{logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.Ex([]string{"z"}, logic.R("E", "y", "z")))), []string{"x"}},
		// Already quantifier-free formulas pass through untouched.
		{logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.Equal("x", "y"))), []string{"x", "y"}},
	}
	for _, c := range cases {
		checkEquivalence(t, a, c.f, c.vars)
	}
}

func TestEliminateSmallStructures(t *testing.T) {
	// Exhaustive-ish check across several random structures, including very
	// small ones where corner cases (no witnesses, all witnesses adjacent)
	// are more likely.
	formulas := []struct {
		f    logic.Formula
		vars []string
	}{
		{logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("S", "y")))), []string{"x"}},
		{logic.Ex([]string{"y"}, logic.Conj(logic.Neg(logic.R("E", "x", "y")), logic.Neg(logic.R("E", "y", "x")), logic.R("S", "y"))), []string{"x"}},
		{logic.Neg(logic.Ex([]string{"y"}, logic.R("E", "y", "x"))), []string{"x"}},
	}
	for seed := int64(0); seed < 8; seed++ {
		n := 3 + int(seed)
		a := randomStructure(n, 2*n, seed)
		for _, c := range formulas {
			checkEquivalence(t, a, c.f, c.vars)
		}
	}
}

func TestEliminateRejectsUnsupported(t *testing.T) {
	a := randomStructure(6, 10, 1)
	unsupported := []logic.Formula{
		// y linked to two different free variables.
		logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"))),
		// Free variable besides the guard inside the quantified formula.
		logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("S", "z"))),
	}
	for _, f := range unsupported {
		_, err := Eliminate(a, f, nil)
		if err == nil {
			t.Errorf("Eliminate(%s) should have been rejected", f)
			continue
		}
		// The message states the fragment itself; it must not send the user
		// to a document.
		if msg := err.Error(); !strings.Contains(msg, "single other variable") || strings.Contains(msg, ".md") {
			t.Errorf("Eliminate(%s): error %q should state the supported fragment inline and name no .md file", f, msg)
		}
	}
	// Dynamic relations under a quantifier are rejected.
	f := logic.Ex([]string{"y"}, logic.R("E", "x", "y"))
	if _, err := Eliminate(a, f, []string{"E"}); err == nil {
		t.Errorf("quantification over a dynamic relation should be rejected")
	}
	// But a dynamic relation outside quantifiers is fine.
	g := logic.Conj(logic.R("E", "x", "y"), logic.Ex([]string{"z"}, logic.R("S", "z")))
	if _, err := Eliminate(a, g, []string{"E"}); err != nil {
		t.Errorf("dynamic relation outside quantifiers rejected: %v", err)
	}
}

func TestEliminateDerivedPredicatesAreFresh(t *testing.T) {
	a := randomStructure(8, 16, 3)
	f := logic.Conj(
		logic.Ex([]string{"y"}, logic.R("E", "x", "y")),
		logic.Ex([]string{"y"}, logic.R("E", "y", "x")),
	)
	res, err := Eliminate(a, f, nil)
	if err != nil {
		t.Fatalf("Eliminate: %v", err)
	}
	if len(res.Derived) != 2 {
		t.Fatalf("expected 2 derived predicates, got %v", res.Derived)
	}
	seen := map[string]bool{}
	for _, d := range res.Derived {
		if seen[d] {
			t.Errorf("derived predicate %s repeated", d)
		}
		seen[d] = true
		if _, ok := res.Structure.Sig.Relation(d); !ok {
			t.Errorf("derived predicate %s missing from the extended signature", d)
		}
	}
}
