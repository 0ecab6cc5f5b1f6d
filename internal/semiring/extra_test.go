package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExtraSemiringAxioms(t *testing.T) {
	genUnit := func(r *rand.Rand) float64 { return float64(r.Intn(5)) / 4 }
	axiomChecker[float64](t, "MaxTimes", MaxTimes, genUnit)
	axiomChecker[float64](t, "Fuzzy", Fuzzy, genUnit)
	axiomChecker[bool](t, "GF2", GF2, func(r *rand.Rand) bool { return r.Intn(2) == 0 })

	genCC := func(r *rand.Rand) CostCount {
		if r.Intn(6) == 0 {
			return CostCount{Cost: Infinite}
		}
		return CC(int64(r.Intn(10)), int64(r.Intn(4)+1))
	}
	axiomChecker[CostCount](t, "CountingTropical", CountingTropical, genCC)

	for _, k := range []int{1, 2, 3, 5} {
		kb := NewKBest(k)
		gen := func(r *rand.Rand) []int64 {
			n := r.Intn(k + 2)
			cs := make([]int64, n)
			for i := range cs {
				cs[i] = int64(r.Intn(15))
			}
			return kb.Costs(cs...)
		}
		axiomChecker[[]int64](t, "KBest", kb, gen)
	}

	prod := NewProduct[int64, Ext](Nat, MinPlus)
	axiomChecker[Pair[int64, Ext]](t, "Nat×MinPlus", prod, func(r *rand.Rand) Pair[int64, Ext] {
		p := Pair[int64, Ext]{First: int64(r.Intn(8)), Second: Fin(int64(r.Intn(12)))}
		if r.Intn(5) == 0 {
			p.Second = Infinite
		}
		return p
	})
}

func TestGF2IsRingAndFinite(t *testing.T) {
	if !checkRing[bool](GF2) {
		t.Fatalf("GF2 should satisfy Ring")
	}
	if _, ok := any(GF2).(Finite[bool]); !ok {
		t.Fatalf("GF2 should satisfy Finite")
	}
	if GF2.Add(true, true) != false {
		t.Errorf("1+1 in GF(2) should be 0")
	}
	// a + a = 0 for every element.
	check := func(a bool) bool { return GF2.Equal(GF2.Add(a, GF2.Neg(a)), GF2.Zero()) }
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountingTropicalSemantics(t *testing.T) {
	// min(3,5) with the 3 achieved twice.
	a := CC(3, 1)
	b := CC(5, 2)
	c := CC(3, 1)
	sum := CountingTropical.Add(CountingTropical.Add(a, b), c)
	if !CountingTropical.Equal(sum, CC(3, 2)) {
		t.Fatalf("expected cost 3 count 2, got %s", CountingTropical.Format(sum))
	}
	// Multiplication adds costs and multiplies counts.
	prod := CountingTropical.Mul(CC(3, 2), CC(4, 3))
	if !CountingTropical.Equal(prod, CC(7, 6)) {
		t.Fatalf("expected cost 7 count 6, got %s", CountingTropical.Format(prod))
	}
	// Anything times zero is zero.
	z := CountingTropical.Mul(CC(3, 2), CountingTropical.Zero())
	if !CountingTropical.Equal(z, CountingTropical.Zero()) {
		t.Fatalf("zero not absorbing: %s", CountingTropical.Format(z))
	}
}

func TestKBestSemantics(t *testing.T) {
	kb := NewKBest(3)
	a := kb.Costs(5, 1, 9, 2)
	if !kb.Equal(a, []int64{1, 2, 5}) {
		t.Fatalf("Costs should keep the 3 smallest sorted, got %v", a)
	}
	sum := kb.Add(kb.Costs(1, 4), kb.Costs(2, 3, 7))
	if !kb.Equal(sum, []int64{1, 2, 3}) {
		t.Fatalf("Add should merge and keep 3 smallest, got %v", sum)
	}
	prod := kb.Mul(kb.Costs(0, 10), kb.Costs(1, 2))
	if !kb.Equal(prod, []int64{1, 2, 11}) {
		t.Fatalf("Mul should form pairwise sums, got %v", prod)
	}
	if got := kb.Mul(kb.Costs(1), nil); got != nil {
		t.Fatalf("multiplying by zero should give zero, got %v", got)
	}
	if got := kb.Format(kb.Costs(2, 1)); got != "{1,2}" {
		t.Fatalf("Format = %q", got)
	}
	if got := kb.Format(nil); got != "{}" {
		t.Fatalf("Format(zero) = %q", got)
	}
}

func TestKBestDuplicatesKept(t *testing.T) {
	kb := NewKBest(2)
	// Two distinct answers of the same cost are both reported.
	sum := kb.Add(kb.Costs(4), kb.Costs(4))
	if !kb.Equal(sum, []int64{4, 4}) {
		t.Fatalf("duplicate costs should be kept with multiplicity, got %v", sum)
	}
}

func TestProductSemiringComputesAverages(t *testing.T) {
	// Sum and count in one pass: the product semiring Nat × Nat with weights
	// (value, 1) accumulates (Σ value, count).
	prod := NewProduct[int64, int64](Nat, Nat)
	values := []int64{4, 8, 15, 16, 23, 42}
	acc := prod.Zero()
	for _, v := range values {
		acc = prod.Add(acc, Pair[int64, int64]{First: v, Second: 1})
	}
	if acc.First != 108 || acc.Second != 6 {
		t.Fatalf("expected (108, 6), got %s", prod.Format(acc))
	}
}

func TestViterbiAndFuzzySemantics(t *testing.T) {
	// Viterbi: probability of the best derivation.
	best := MaxTimes.Add(MaxTimes.Mul(0.5, 0.5), MaxTimes.Mul(0.9, 0.2))
	if best != 0.25 {
		t.Fatalf("Viterbi best = %g, want 0.25", best)
	}
	// Fuzzy: strongest alternative of weakest links.
	f := Fuzzy.Add(Fuzzy.Mul(0.7, 0.4), Fuzzy.Mul(0.6, 0.5))
	if f != 0.5 {
		t.Fatalf("Fuzzy value = %g, want 0.5", f)
	}
}

func TestKBestQuickProperties(t *testing.T) {
	kb := NewKBest(4)
	mk := func(raw []int8) []int64 {
		cs := make([]int64, 0, len(raw))
		for _, v := range raw {
			cs = append(cs, int64(v)%32)
		}
		return kb.Costs(cs...)
	}
	// Addition is idempotent-free but bounded: the result never exceeds K
	// elements and is always sorted.
	sortedAndBounded := func(ra, rb []int8) bool {
		out := kb.Add(mk(ra), mk(rb))
		if len(out) > kb.K {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i-1] > out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(sortedAndBounded, nil); err != nil {
		t.Error(err)
	}
	// The best (first) element of a sum is the min of the bests.
	bestOfSum := func(ra, rb []int8) bool {
		a, b := mk(ra), mk(rb)
		out := kb.Add(a, b)
		if len(a) == 0 && len(b) == 0 {
			return len(out) == 0
		}
		want := int64(math.MaxInt64)
		if len(a) > 0 {
			want = a[0]
		}
		if len(b) > 0 && b[0] < want {
			want = b[0]
		}
		return len(out) > 0 && out[0] == want
	}
	if err := quick.Check(bestOfSum, nil); err != nil {
		t.Error(err)
	}
}
