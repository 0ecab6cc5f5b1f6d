package nested

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// testGraph builds a directed graph with edge relation E, a unary "vertex"
// relation V on every element (used as a trivial guard), and an ℕ-valued
// unary weight "weight".
func testGraph(n, m int, seed int64) (*Database, []int64) {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
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
		b.MustAddTuple("V", v)
	}
	db := NewDatabase(b.Build())
	if err := db.DeclareSRelation("weight", NatSemiring, 1); err != nil {
		panic(err)
	}
	weights := make([]int64, n)
	for v := 0; v < n; v++ {
		weights[v] = int64(r.Intn(9) + 1)
		if err := db.SetValue("weight", structure.Tuple{v}, weights[v]); err != nil {
			panic(err)
		}
	}
	return db, weights
}

func TestValidation(t *testing.T) {
	db, _ := testGraph(6, 10, 1)

	bad := []Formula{
		B("missing", "x"),
		B("E", "x"),
		S(NatSemiring, "missing", "x"),
		S(MaxPlus, "weight", "x"),
		Neg(S(NatSemiring, "weight", "x")),
		Plus(S(NatSemiring, "weight", "x"), Bracket(MaxPlus, B("V", "x"))),
		// Connective argument with a free variable outside the guard.
		Guard("V", []string{"x"}, GreaterThan(NatSemiring),
			S(NatSemiring, "weight", "y"), Val(NatSemiring, int64(1))),
	}
	for _, f := range bad {
		if _, err := evalAt(db, f, freeVars(f), nil); err == nil {
			t.Errorf("formula %s should have been rejected", f)
		}
	}
	// Free variables must be declared for EvalClosed.
	if _, err := evalClosed(db, S(NatSemiring, "weight", "x")); err == nil {
		t.Errorf("EvalClosed on an open formula should fail")
	}
	// Declaring a duplicate or clashing S-relation fails.
	if err := db.DeclareSRelation("weight", NatSemiring, 1); err == nil {
		t.Errorf("duplicate S-relation accepted")
	}
	if err := db.DeclareSRelation("E", NatSemiring, 2); err == nil {
		t.Errorf("S-relation clashing with a boolean relation accepted")
	}
	if err := db.SetValue("weight", structure.Tuple{0, 1}, int64(1)); err == nil {
		t.Errorf("arity mismatch in SetValue accepted")
	}
}

func TestSimpleAggregation(t *testing.T) {
	db, weights := testGraph(8, 16, 3)

	// Σ_x weight(x): total weight.
	total, err := evalClosed(db, Sum([]string{"x"}, S(NatSemiring, "weight", "x")))
	if err != nil {
		t.Fatalf("EvalClosed: %v", err)
	}
	var want int64
	for _, w := range weights {
		want += w
	}
	if total.(int64) != want {
		t.Fatalf("total weight = %v, want %d", total, want)
	}

	// Σ_{x,y} [E(x,y)]_N · weight(y): weighted in-degree mass.
	f := Sum([]string{"x", "y"}, Times(Bracket(NatSemiring, B("E", "x", "y")), S(NatSemiring, "weight", "y")))
	got, err := evalClosed(db, f)
	if err != nil {
		t.Fatalf("EvalClosed: %v", err)
	}
	want = 0
	for _, e := range db.A.Tuples("E") {
		want += weights[e[1]]
	}
	if got.(int64) != want {
		t.Fatalf("weighted edge mass = %v, want %d", got, want)
	}

	// Boolean sentence: ∃x,y E(x,y).
	b, err := evalClosed(db, Exists([]string{"x", "y"}, B("E", "x", "y")))
	if err != nil {
		t.Fatalf("EvalClosed: %v", err)
	}
	if b.(bool) != (len(db.A.Tuples("E")) > 0) {
		t.Fatalf("existence sentence evaluated to %v", b)
	}
}

// TestMaxAverageNeighborWeight reproduces the introduction's nested query
//
//	max_x ( Σ_y [E(x,y)]·w(y) ) / ( Σ_y [E(x,y)] )
//
// with the integer-ratio connective and a max-plus outer aggregation.
func TestMaxAverageNeighborWeight(t *testing.T) {
	db, weights := testGraph(10, 26, 5)

	sumW := Sum([]string{"y"}, Times(Bracket(NatSemiring, B("E", "x", "y")), S(NatSemiring, "weight", "y")))
	degree := Sum([]string{"y"}, Bracket(NatSemiring, B("E", "x", "y")))
	avg := Guard("V", []string{"x"}, RatioNat, sumW, degree)
	// Lift the ℕ-valued average into max-plus and take the maximum over x.
	query := Sum([]string{"x"}, Guard("V", []string{"x"}, IntoMaxPlus, avg))

	got, err := evalClosed(db, query)
	if err != nil {
		t.Fatalf("EvalClosed: %v", err)
	}

	// Naive reference.
	n := db.A.N
	best := semiring.Infinite
	for x := 0; x < n; x++ {
		var sum, deg int64
		for _, e := range db.A.Tuples("E") {
			if e[0] == x {
				sum += weights[e[1]]
				deg++
			}
		}
		var ratio int64
		if deg > 0 {
			ratio = sum / deg
		}
		best = semiring.MaxPlus.Add(best, semiring.Fin(ratio))
	}
	if !semiring.MaxPlus.Equal(got.(semiring.Ext), best) {
		t.Fatalf("max average neighbour weight = %v, want %v", got, best)
	}
}

// TestHeavyNeighborQuery reproduces the introduction's boolean nested query
//
//	f(x) = ∃y E(x,y) ∧ ( w(y) > Σ_z [E(y,z)]·w(z) )
//
// including its constant-delay enumeration (result (E)).
func TestHeavyNeighborQuery(t *testing.T) {
	db, weights := testGraph(9, 22, 7)

	neighbourSum := Sum([]string{"z"}, Times(Bracket(NatSemiring, B("E", "y", "z")), S(NatSemiring, "weight", "z")))
	heavy := Guard("V", []string{"y"}, GreaterThan(NatSemiring), S(NatSemiring, "weight", "y"), neighbourSum)
	f := Exists([]string{"y"}, Times(B("E", "x", "y"), heavy))

	// Reference: which x have a heavy out-neighbour?
	n := db.A.N
	isHeavy := make([]bool, n)
	for y := 0; y < n; y++ {
		var sum int64
		for _, e := range db.A.Tuples("E") {
			if e[0] == y {
				sum += weights[e[1]]
			}
		}
		isHeavy[y] = weights[y] > sum
	}
	wantSet := map[int]bool{}
	for _, e := range db.A.Tuples("E") {
		if isHeavy[e[1]] {
			wantSet[e[0]] = true
		}
	}

	// Point evaluation at every element.
	var tuples []structure.Tuple
	for x := 0; x < n; x++ {
		tuples = append(tuples, structure.Tuple{x})
	}
	vals, err := evalAt(db, f, []string{"x"}, tuples)
	if err != nil {
		t.Fatalf("EvalAt: %v", err)
	}
	for x := 0; x < n; x++ {
		if vals[x].(bool) != wantSet[x] {
			t.Fatalf("f(%d) = %v, want %v", x, vals[x], wantSet[x])
		}
	}

	// Enumeration of the answer set (result E).
	ans, err := enumerateBool(db, f, []string{"x"})
	if err != nil {
		t.Fatalf("EnumerateBool: %v", err)
	}
	var got []int
	for _, t := range ans.Collect(0) {
		got = append(got, t[0])
	}
	sort.Ints(got)
	var want []int
	for x := 0; x < n; x++ {
		if wantSet[x] {
			want = append(want, x)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("enumerated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enumerated %v, want %v", got, want)
		}
	}
	// EnumerateBool rejects non-boolean formulas.
	if _, err := enumerateBool(db, S(NatSemiring, "weight", "x"), []string{"x"}); err == nil {
		t.Errorf("EnumerateBool on a non-boolean formula should fail")
	}
}

func TestNestedConnectivesWithBinaryWeights(t *testing.T) {
	// A binary ℕ-valued relation (edge costs) feeding a min-plus aggregate:
	// the cheapest outgoing edge per vertex, then the maximum over vertices
	// ("minimax" style nesting with two semiring switches).
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
		nil,
	)
	r := rand.New(rand.NewSource(11))
	n := 8
	b := structure.NewBuilder(sig, n)
	for v := 0; v < n; v++ {
		b.MustAddTuple("V", v)
	}
	for edges := map[[2]int]bool{}; len(edges) < 18; {
		x, y := r.Intn(n), r.Intn(n)
		if x != y {
			edges[[2]int{x, y}] = true
			b.MustAddTuple("E", x, y)
		}
	}
	a := b.Build()
	db := NewDatabase(a)
	if err := db.DeclareSRelation("cost", MinPlus, 2); err != nil {
		t.Fatal(err)
	}
	costs := map[[2]int]int64{}
	for _, e := range a.Tuples("E") {
		c := int64(r.Intn(20) + 1)
		costs[[2]int(e)] = c
		if err := db.SetValue("cost", e, semiring.Fin(c)); err != nil {
			t.Fatal(err)
		}
	}
	// Setting a cost on a non-edge violates the Gaifman discipline.
	if err := db.SetValue("cost", structure.Tuple{0, 0}, semiring.Fin(1)); err == nil {
		t.Errorf("cost on a non-tuple accepted")
	}

	// cheapest(x) = Σ^{min-plus}_y [E(x,y)]·cost(x,y)
	cheapest := Sum([]string{"y"}, Times(Bracket(MinPlus, B("E", "x", "y")), S(MinPlus, "cost", "x", "y")))
	// Convert to max-plus via a connective and maximise over x.
	toMax := Connective{
		Name: "minToMax",
		Out:  MaxPlus,
		Apply: func(args []any) any {
			v := args[0].(semiring.Ext)
			if v.Inf {
				// No outgoing edge: contribute the max-plus zero (−∞).
				return semiring.Infinite
			}
			return v
		},
	}
	query := Sum([]string{"x"}, Guard("V", []string{"x"}, toMax, cheapest))
	got, err := evalClosed(db, query)
	if err != nil {
		t.Fatalf("EvalClosed: %v", err)
	}

	want := semiring.Infinite // max-plus zero
	for x := 0; x < n; x++ {
		best := semiring.Infinite // min-plus zero
		for _, e := range a.Tuples("E") {
			if e[0] == x {
				best = semiring.MinPlus.Add(best, semiring.Fin(costs[[2]int(e)]))
			}
		}
		if !best.Inf {
			want = semiring.MaxPlus.Add(want, best)
		}
	}
	if !semiring.MaxPlus.Equal(got.(semiring.Ext), want) {
		t.Fatalf("minimax cheapest edge = %v, want %v", got, want)
	}
}
