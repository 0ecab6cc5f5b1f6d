package nested

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// randomNestedDB builds a random bounded-degree digraph with a total unary
// guard V, a Nat-valued vertex weight u and a MinPlus-valued vertex cost c.
func randomNestedDB(t *testing.T, n int, seed int64) *Database {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
		nil,
	)
	b := structure.NewBuilder(sig, n)
	for v := 0; v < n; v++ {
		b.MustAddTuple("V", v)
		deg := r.Intn(3) + 1
		for i := 0; i < deg; i++ {
			if u := r.Intn(n); u != v {
				b.MustAddTuple("E", v, u)
			}
		}
	}
	a := b.Build()
	db := NewDatabase(a)
	if err := db.DeclareSRelation("u", NatSemiring, 1); err != nil {
		t.Fatalf("declare u: %v", err)
	}
	if err := db.DeclareSRelation("c", MinPlus, 1); err != nil {
		t.Fatalf("declare c: %v", err)
	}
	for v := 0; v < n; v++ {
		if err := db.SetValue("u", structure.Tuple{v}, int64(r.Intn(9))); err != nil {
			t.Fatalf("set u(%d): %v", v, err)
		}
		if err := db.SetValue("c", structure.Tuple{v}, semiring.Fin(int64(r.Intn(20)))); err != nil {
			t.Fatalf("set c(%d): %v", v, err)
		}
	}
	return db
}

// differentialQueries returns closed and unary query shapes exercising every
// formula constructor and the builtin connectives, across the Nat, MinPlus,
// MaxPlus and boolean carriers.
func differentialQueries() map[string]Formula {
	edgeSumU := func(x string) Formula {
		return Sum([]string{"y"}, Times(Bracket(NatSemiring, B("E", x, "y")), S(NatSemiring, "u", "y")))
	}
	degree := Sum([]string{"y"}, Bracket(NatSemiring, B("E", "x", "y")))
	avg := Guard("V", []string{"x"}, RatioNat, edgeSumU("x"), degree)
	cheapestNeighbour := Sum([]string{"y"},
		Times(Bracket(MinPlus, B("E", "x", "y")), S(MinPlus, "c", "y")))
	heavy := Guard("V", []string{"y"}, GreaterThan(NatSemiring),
		S(NatSemiring, "u", "y"),
		Sum([]string{"z"}, Times(Bracket(NatSemiring, B("E", "y", "z")), S(NatSemiring, "u", "z"))))
	return map[string]Formula{
		// Closed Nat aggregation with a constant and an addition.
		"closed-nat": Sum([]string{"x"}, Plus(edgeSumU("x"), Val(NatSemiring, int64(1)))),
		// The introduction's max-average query: ratio + max-plus connectives.
		"closed-max-avg": Sum([]string{"x"}, Guard("V", []string{"x"}, IntoMaxPlus, avg)),
		// Unary Nat aggregation evaluated pointwise.
		"unary-nat": edgeSumU("x"),
		// Unary MinPlus aggregation: cheapest out-neighbour cost.
		"unary-minplus": cheapestNeighbour,
		// Boolean query with negation under an existential.
		"unary-bool": Exists([]string{"y"}, Times(B("E", "x", "y"), Neg(B("E", "y", "x")))),
		// Nested boolean query: has an out-neighbour heavier than its own
		// out-neighbourhood (a guarded comparison two levels deep).
		"unary-heavy": Exists([]string{"y"}, Times(B("E", "x", "y"), heavy)),
		// AtLeast connective against a constant threshold.
		"unary-atleast": Guard("V", []string{"x"}, AtLeast(NatSemiring), edgeSumU("x"), Val(NatSemiring, int64(8))),
	}
}

// TestEvaluatorMatchesReference cross-checks the Program-backed evaluator
// against the direct-recursion reference semantics on random databases, for
// closed formulas and pointwise over every element for unary ones.
func TestEvaluatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db := randomNestedDB(t, 16+int(seed)*7, seed)
		for name, f := range differentialQueries() {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				out := f.Out()
				if len(FreeVars(f)) == 0 {
					got, err := evalClosed(db, f)
					if err != nil {
						t.Fatalf("EvalClosed: %v", err)
					}
					want, err := ReferenceEvalClosed(db, f)
					if err != nil {
						t.Fatalf("ReferenceEvalClosed: %v", err)
					}
					if !out.Equal(got, want) {
						t.Fatalf("closed: got %s, reference %s", out.Format(got), out.Format(want))
					}
					return
				}
				tuples := make([]structure.Tuple, db.A.N)
				for v := 0; v < db.A.N; v++ {
					tuples[v] = structure.Tuple{v}
				}
				got, err := evalAt(db, f, []string{"x"}, tuples)
				if err != nil {
					t.Fatalf("EvalAt: %v", err)
				}
				for v := 0; v < db.A.N; v++ {
					want, err := ReferenceEvalAt(db, f, map[string]structure.Element{"x": structure.Element(v)})
					if err != nil {
						t.Fatalf("ReferenceEvalAt(%d): %v", v, err)
					}
					if !out.Equal(got[v], want) {
						t.Fatalf("at x=%d: got %s, reference %s", v, out.Format(got[v]), out.Format(want))
					}
				}
			})
		}
	}
}

// TestGuardWiderThanArgument evaluates connective arguments that mention only
// x under the guard E(x,y): y must not become a parameter of the argument's
// closure (with it the three-path count would join five variables per
// monomial, over compile.Options' default MaxVars of 4).
func TestGuardWiderThanArgument(t *testing.T) {
	edge := func(x, y string) Formula { return Bracket(NatSemiring, B("E", x, y)) }
	threePaths := Sum([]string{"a", "b", "c"}, Times(Times(edge("x", "a"), edge("a", "b")), edge("b", "c")))
	hasTwoPath := Exists([]string{"a"}, Times(B("E", "x", "a"), Exists([]string{"b"}, B("E", "a", "b"))))
	holds := Connective{Name: "holds", Out: BoolSemiring, Apply: func(args []any) any { return args[0] }}
	queries := map[string]Formula{
		"semiring": Sum([]string{"x", "y"}, Guard("E", []string{"x", "y"}, IntoMaxPlus, threePaths)),
		"boolean":  Exists([]string{"x", "y"}, Times(Neg(B("E", "y", "x")), Guard("E", []string{"x", "y"}, holds, hasTwoPath))),
	}
	for seed := int64(1); seed <= 3; seed++ {
		db := randomNestedDB(t, 12, seed)
		for name, f := range queries {
			got, err := evalClosed(db, f)
			if err != nil {
				t.Fatalf("%s/seed%d: EvalClosed: %v", name, seed, err)
			}
			want, err := ReferenceEvalClosed(db, f)
			if err != nil {
				t.Fatalf("%s/seed%d: ReferenceEvalClosed: %v", name, seed, err)
			}
			if !f.Out().Equal(got, want) {
				t.Errorf("%s/seed%d: got %s, reference %s", name, seed, f.Out().Format(got), f.Out().Format(want))
			}
		}
	}
}

// TestEnumerateBoolMatchesReference checks that the answer set enumerated for
// a boolean nested query is exactly the set of elements where the reference
// recursion returns true.
func TestEnumerateBoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db := randomNestedDB(t, 24, seed*11)
		heavy := Guard("V", []string{"y"}, GreaterThan(NatSemiring),
			S(NatSemiring, "u", "y"),
			Sum([]string{"z"}, Times(Bracket(NatSemiring, B("E", "y", "z")), S(NatSemiring, "u", "z"))))
		f := Exists([]string{"y"}, Times(B("E", "x", "y"), heavy))

		ans, err := enumerateBool(db, f, []string{"x"})
		if err != nil {
			t.Fatalf("EnumerateBool: %v", err)
		}
		got := map[int]bool{}
		cur := ans.Cursor()
		for {
			tpl, ok := cur.Next()
			if !ok {
				break
			}
			if got[tpl[0]] {
				t.Fatalf("element %d enumerated twice", tpl[0])
			}
			got[tpl[0]] = true
		}
		for v := 0; v < db.A.N; v++ {
			want, err := ReferenceEvalAt(db, f, map[string]structure.Element{"x": structure.Element(v)})
			if err != nil {
				t.Fatalf("ReferenceEvalAt(%d): %v", v, err)
			}
			if got[v] != want.(bool) {
				t.Fatalf("seed %d, x=%d: enumerated=%v, reference=%v", seed, v, got[v], want)
			}
		}
	}
}
