package qe

import (
	"errors"
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
	b := structure.NewBuilder(sig, n)
	for edges := map[[2]int]bool{}; len(edges) < m; {
		x, y := r.Intn(n), r.Intn(n)
		if x != y {
			edges[[2]int{x, y}] = true
			b.MustAddTuple("E", x, y)
		}
	}
	for v := 0; v < n; v++ {
		if r.Intn(2) == 0 {
			b.MustAddTuple("S", v)
		}
		if r.Intn(3) == 0 {
			b.MustAddTuple("U", v)
		}
	}
	return b.Build()
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
	x := []string{"x"}
	ex := func(f logic.Formula) logic.Formula { return logic.Ex([]string{"y"}, f) }
	formulas := []struct {
		f    logic.Formula
		vars []string
	}{
		{logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("S", "y")))), []string{"x"}},
		{logic.Ex([]string{"y"}, logic.Conj(logic.Neg(logic.R("E", "x", "y")), logic.Neg(logic.R("E", "y", "x")), logic.R("S", "y"))), []string{"x"}},
		{logic.Neg(logic.Ex([]string{"y"}, logic.R("E", "y", "x"))), []string{"x"}},
		// ∃y true is false on the empty domain and true on every other.
		{ex(logic.True()), nil},
		// Atoms on y alone, which a far witness is judged by: loops, the
		// diagonal of a ternary relation, and the equality with the guard.
		// On the structures without T its atoms are false.
		{ex(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "y"))), x},
		{ex(logic.Conj(logic.Neg(logic.R("E", "x", "y")), logic.R("E", "y", "y"))), x},
		{ex(logic.R("T", "x", "y", "y")), x},
		{ex(logic.Conj(logic.R("T", "y", "y", "y"), logic.Neg(logic.R("E", "y", "x")))), x},
		{ex(logic.Conj(logic.Neg(logic.R("T", "x", "y", "y")), logic.R("T", "y", "y", "y"), logic.Neg(logic.R("E", "y", "y")))), x},
		{ex(logic.Conj(logic.Equal("x", "y"), logic.R("E", "y", "y"))), x},
		{ex(logic.Conj(logic.Neg(logic.Equal("x", "y")), logic.R("T", "y", "y", "y"), logic.Neg(logic.R("S", "y")))), x},
		{ex(logic.Disj(logic.Conj(logic.R("E", "y", "y"), logic.R("U", "x")), logic.Conj(logic.R("T", "x", "x", "y"), logic.R("S", "y")))), x},
		{logic.All([]string{"y"}, logic.Disj(logic.Neg(logic.R("E", "y", "y")), logic.R("E", "x", "y"), logic.R("S", "y"))), x},
		{logic.Conj(logic.R("U", "x"), ex(logic.Conj(logic.R("T", "y", "y", "y"), logic.R("E", "y", "y")))), x},
	}
	structures := []*structure.Structure{randomStructure(0, 0, 0)}
	for seed := int64(0); seed < 8; seed++ {
		n := 3 + int(seed)
		structures = append(structures, randomStructure(n, 2*n, seed), loopStructure(n, seed))
	}
	for _, a := range structures {
		for _, c := range formulas {
			checkEquivalence(t, a, c.f, c.vars)
		}
	}
}

// loopStructure is randomStructure with loops E(v,v), a ternary relation T
// whose tuples include the diagonal ones (v,v,v) and (u,v,v), and element 0
// as a hub adjacent to every other: diagonal atoms such as E(y,y) and
// T(y,y,y) split the domain into several types, and every witness of the hub
// is a named one.
func loopStructure(n int, seed int64) *structure.Structure {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}, {Name: "U", Arity: 1}, {Name: "T", Arity: 3}},
		nil,
	)
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(sig, n)
	for v := 1; v < n; v++ {
		b.MustAddTuple("E", 0, v)
	}
	for range 2 * n {
		b.MustAddTuple("E", r.Intn(n), r.Intn(n))
	}
	for v := 0; v < n; v++ {
		if r.Intn(3) == 0 {
			b.MustAddTuple("E", v, v)
		}
		if r.Intn(2) == 0 {
			b.MustAddTuple("S", v)
		}
		if r.Intn(3) == 0 {
			b.MustAddTuple("U", v)
		}
		if r.Intn(3) == 0 {
			b.MustAddTuple("T", v, v, v)
		}
		if r.Intn(3) == 0 {
			b.MustAddTuple("T", r.Intn(n), v, v)
		}
		b.MustAddTuple("T", r.Intn(n), r.Intn(n), v)
	}
	return b.Build()
}

// TestEliminateAllocations wants one guarded ∃ over a bounded-degree
// structure to allocate about as many objects at n = 8,000 as at n = 1,000:
// the witness search reads the cached Gaifman graph and one type per
// element, and only the growth of the derived relation depends on n.
func TestEliminateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("S", "y")))
	allocs := func(n int) float64 {
		b := structure.NewBuilder(randomStructure(0, 0, 0).Sig, n)
		for v := 0; v < n; v++ {
			b.MustAddTuple("E", v, (v+1)%n)
			b.MustAddTuple("E", v, (v+7)%n)
			if v%5 == 0 {
				b.MustAddTuple("S", v)
			}
		}
		a := b.Build()
		a.Gaifman()
		return testing.AllocsPerRun(3, func() {
			if _, err := Eliminate(a, f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); large > small+64 {
		t.Errorf("Eliminate allocates %.0f objects at n = 1,000 and %.0f at n = 8,000, want at most 64 more", small, large)
	}
}

// TestEliminateSharesTheGaifmanGraph: the derived predicates of nested
// quantifiers extend views of the input structure, which read its Gaifman
// graph instead of building their own.
func TestEliminateSharesTheGaifmanGraph(t *testing.T) {
	a := randomStructure(40, 80, 5)
	f := logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.Ex([]string{"z"}, logic.Conj(logic.R("E", "y", "z"), logic.R("S", "z")))))
	res, err := Eliminate(a, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Derived) != 2 || res.Structure == a || res.Structure.Gaifman() != a.Gaifman() {
		t.Errorf("Eliminate derived %v on a structure with a Gaifman graph of its own", res.Derived)
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
	// So is one whose atom does not mention the quantified variable:
	// materialising ∃y E(x,y) ∧ S(x) would freeze S into the derived
	// predicate.
	h := logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("S", "x")))
	var qeErr *Error
	if _, err := Eliminate(a, h, []string{"S"}); !errors.As(err, &qeErr) || qeErr.Var != "y" || !strings.Contains(qeErr.Detail, "S") {
		t.Errorf("Eliminate(%s) with S dynamic: %v, want a *qe.Error on y naming S", h, err)
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
