package semiring

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// axiomChecker verifies the commutative-semiring axioms for a semiring over
// T, drawing random elements from gen.
func axiomChecker[T any](t *testing.T, name string, s Semiring[T], gen func(r *rand.Rand) T) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	const rounds = 200
	for i := 0; i < rounds; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if !s.Equal(s.Add(a, b), s.Add(b, a)) {
			t.Fatalf("%s: addition not commutative: %s vs %s", name, s.Format(a), s.Format(b))
		}
		if !s.Equal(s.Mul(a, b), s.Mul(b, a)) {
			t.Fatalf("%s: multiplication not commutative", name)
		}
		if !s.Equal(s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c))) {
			t.Fatalf("%s: addition not associative", name)
		}
		if !s.Equal(s.Mul(s.Mul(a, b), c), s.Mul(a, s.Mul(b, c))) {
			t.Fatalf("%s: multiplication not associative", name)
		}
		if !s.Equal(s.Add(a, s.Zero()), a) {
			t.Fatalf("%s: zero is not an additive identity", name)
		}
		if !s.Equal(s.Mul(a, s.One()), a) {
			t.Fatalf("%s: one is not a multiplicative identity", name)
		}
		if !s.Equal(s.Mul(a, s.Zero()), s.Zero()) {
			t.Fatalf("%s: zero is not absorbing", name)
		}
		lhs := s.Mul(a, s.Add(b, c))
		rhs := s.Add(s.Mul(a, b), s.Mul(a, c))
		if !s.Equal(lhs, rhs) {
			t.Fatalf("%s: multiplication does not distribute over addition: a=%s b=%s c=%s lhs=%s rhs=%s",
				name, s.Format(a), s.Format(b), s.Format(c), s.Format(lhs), s.Format(rhs))
		}
	}
}

func TestSemiringAxioms(t *testing.T) {
	smallInt := func(r *rand.Rand) int64 { return int64(r.Intn(21) - 10) }
	smallNat := func(r *rand.Rand) int64 { return int64(r.Intn(11)) }

	axiomChecker[bool](t, "Boolean", Bool, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
	axiomChecker[int64](t, "Natural", Nat, smallNat)
	axiomChecker[int64](t, "IntRing", Int, smallInt)
	axiomChecker[*big.Int](t, "BigInt", Big, func(r *rand.Rand) *big.Int { return big.NewInt(int64(r.Intn(41) - 20)) })
	axiomChecker[*big.Rat](t, "Rational", Rat, func(r *rand.Rand) *big.Rat {
		return big.NewRat(int64(r.Intn(21)-10), int64(r.Intn(9)+1))
	})
	axiomChecker[float64](t, "Float", Float, func(r *rand.Rand) float64 { return float64(r.Intn(16)) })

	genExt := func(r *rand.Rand) Ext {
		if r.Intn(6) == 0 {
			return Infinite
		}
		return Fin(int64(r.Intn(30)))
	}
	axiomChecker[Ext](t, "MinPlus", MinPlus, genExt)
	axiomChecker[Ext](t, "MaxPlus", MaxPlus, genExt)

	mod7 := NewModular(7)
	axiomChecker[int64](t, "Modular7", mod7, func(r *rand.Rand) int64 { return int64(r.Intn(7)) })
	mod2 := NewModular(2)
	axiomChecker[int64](t, "Modular2", mod2, func(r *rand.Rand) int64 { return int64(r.Intn(2)) })

	trunc := NewTruncated(5)
	axiomChecker[int64](t, "Truncated5", trunc, func(r *rand.Rand) int64 { return int64(r.Intn(6)) })
}

func TestRingInterfaces(t *testing.T) {
	rings := []struct {
		name string
		ok   bool
	}{
		{"IntRing", checkRing[int64](Int)},
		{"BigInt", checkRing[*big.Int](Big)},
		{"Rational", checkRing[*big.Rat](Rat)},
		{"Modular", checkRing[int64](NewModular(5))},
	}
	for _, r := range rings {
		if !r.ok {
			t.Errorf("%s does not satisfy Ring", r.name)
		}
	}
	if checkRing[bool](Bool) {
		t.Errorf("Boolean unexpectedly satisfies Ring")
	}
	if checkRing[Ext](MinPlus) {
		t.Errorf("MinPlus unexpectedly satisfies Ring")
	}
}

func checkRing[T any](s Semiring[T]) bool {
	_, ok := s.(Ring[T])
	return ok
}

func TestRingNegation(t *testing.T) {
	check := func(a int64) bool {
		return Int.Equal(Int.Add(a, Int.Neg(a)), Int.Zero())
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	mod := NewModular(9)
	checkMod := func(a int64) bool {
		return mod.Equal(mod.Add(a, mod.Neg(a)), mod.Zero())
	}
	if err := quick.Check(checkMod, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalarMul(t *testing.T) {
	for n := int64(0); n < 50; n++ {
		want := 3 * n
		got := ScalarMul[int64](Nat, n, 3)
		if got != want {
			t.Fatalf("ScalarMul(Nat, %d, 3) = %d, want %d", n, got, want)
		}
	}
	// In the boolean semiring n·true is true for n ≥ 1 and false for n = 0.
	if ScalarMul[bool](Bool, 0, true) != false {
		t.Errorf("0·true should be false")
	}
	if ScalarMul[bool](Bool, 7, true) != true {
		t.Errorf("7·true should be true")
	}
	// Min-plus: n·a = min(a, ..., a) = a for n ≥ 1.
	if got := ScalarMul[Ext](MinPlus, 4, Fin(5)); !MinPlus.Equal(got, Fin(5)) {
		t.Errorf("4·5 in min-plus = %v, want 5", got)
	}
	if got := ScalarMul[Ext](MinPlus, 0, Fin(5)); !MinPlus.Equal(got, Infinite) {
		t.Errorf("0·5 in min-plus = %v, want +inf", got)
	}
	// Modular arithmetic wraps.
	mod5 := NewModular(5)
	if got := ScalarMul[int64](mod5, 12, 3); got != mod5.norm(36) {
		t.Errorf("12·3 mod 5 = %d, want %d", got, mod5.norm(36))
	}
	// Big multipliers.
	n := new(big.Int).Exp(big.NewInt(10), big.NewInt(18), nil)
	got := ScalarMulBig[*big.Int](Big, n, big.NewInt(2))
	want := new(big.Int).Mul(n, big.NewInt(2))
	if got.Cmp(want) != 0 {
		t.Errorf("ScalarMulBig(10^18, 2) = %s, want %s", got, want)
	}
}

func TestIverson(t *testing.T) {
	if Iverson[int64](Nat, true) != 1 || Iverson[int64](Nat, false) != 0 {
		t.Errorf("Iverson bracket in Nat incorrect")
	}
	if !MinPlus.Equal(Iverson[Ext](MinPlus, true), Fin(0)) {
		t.Errorf("Iverson true in MinPlus should be 0 (the unit)")
	}
	if !MinPlus.Equal(Iverson[Ext](MinPlus, false), Infinite) {
		t.Errorf("Iverson false in MinPlus should be +inf (the zero)")
	}
}

func TestFiniteElements(t *testing.T) {
	mod3 := NewModular(3)
	if got := len(mod3.Elements()); got != 3 {
		t.Errorf("Modular(3) has %d elements, want 3", got)
	}
	tr := NewTruncated(4)
	if got := len(tr.Elements()); got != 5 {
		t.Errorf("Truncated(4) has %d elements, want 5", got)
	}
	if got := len(Bool.Elements()); got != 2 {
		t.Errorf("Boolean has %d elements, want 2", got)
	}
}

func TestTruncatedSaturation(t *testing.T) {
	tr := NewTruncated(10)
	if got := tr.Add(7, 8); got != 10 {
		t.Errorf("7+8 truncated at 10 = %d, want 10", got)
	}
	if got := tr.Mul(1000000000, 1000000000); got != 10 {
		t.Errorf("overflow-prone Mul should saturate, got %d", got)
	}
	if got := tr.Mul(3, 3); got != 9 {
		t.Errorf("3·3 = %d, want 9", got)
	}
}

func TestOrderedSemirings(t *testing.T) {
	if !MinPlus.Less(Fin(3), Fin(5)) || MinPlus.Less(Fin(5), Fin(3)) {
		t.Errorf("MinPlus ordering broken")
	}
	if !MinPlus.Less(Fin(3), Infinite) || MinPlus.Less(Infinite, Fin(3)) {
		t.Errorf("MinPlus infinity ordering broken")
	}
	if !MaxPlus.Less(Infinite, Fin(-100)) {
		t.Errorf("MaxPlus -inf should be smallest")
	}
	if !Nat.Less(2, 3) || Nat.Less(3, 2) {
		t.Errorf("Nat ordering broken")
	}
}

// TestFormatMatchesSprintf pins the printed form of the integer and boolean
// carriers, formatted with strconv on the read path, to the fmt verbs they
// print as.
func TestFormatMatchesSprintf(t *testing.T) {
	ints := []int64{math.MinInt64, -12345, -100, -99, -1, 0, 1, 7, 99, 100, 12345, math.MaxInt64}
	trunc, mod := NewTruncated(1000), NewModular(7)
	for _, a := range ints {
		for _, c := range []struct{ name, got, want string }{
			{"Natural", Nat.Format(a), fmt.Sprintf("%d", a)},
			{"IntRing", Int.Format(a), fmt.Sprintf("%d", a)},
			{"Truncated", trunc.Format(a), fmt.Sprintf("%d", trunc.clamp(a))},
			{"Modular", mod.Format(a), fmt.Sprintf("%d (mod %d)", mod.norm(a), mod.M)},
			{"MinPlus", MinPlus.Format(Fin(a)), fmt.Sprintf("%d", a)},
			{"MaxPlus", MaxPlus.Format(Fin(a)), fmt.Sprintf("%d", a)},
		} {
			if c.got != c.want {
				t.Errorf("%s.Format(%d) = %q, want %q", c.name, a, c.got, c.want)
			}
		}
	}
	for _, b := range []bool{false, true} {
		if got, want := Bool.Format(b), fmt.Sprintf("%v", b); got != want {
			t.Errorf("Boolean.Format(%v) = %q, want %q", b, got, want)
		}
	}
	if got := MinPlus.Format(Infinite); got != "+inf" {
		t.Errorf("MinPlus.Format(∞) = %q, want +inf", got)
	}
}
