// Additional semiring instances beyond the core set in semiring.go.
//
// These are not required by the paper's theorems but exercise the
// "plug in any commutative semiring" universality of the compiled circuits
// (Theorem 6): probabilistic inference (Viterbi), fuzzy logic, parity
// counting, k-best optimisation, counting tropical optimisation, and products
// of semirings.
package semiring

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// Viterbi semiring ([0,1], max, ·)
// ---------------------------------------------------------------------------

// MaxTimesSemiring is the Viterbi semiring ([0,1], max, ·) on float64.  The
// value of a weighted query is the probability of the most probable answer
// when weights are independent probabilities.
type MaxTimesSemiring struct{}

// MaxTimes is the canonical MaxTimesSemiring instance.
var MaxTimes = MaxTimesSemiring{}

func (MaxTimesSemiring) Zero() float64            { return 0 }
func (MaxTimesSemiring) One() float64             { return 1 }
func (MaxTimesSemiring) Add(a, b float64) float64 { return math.Max(a, b) }
func (MaxTimesSemiring) Mul(a, b float64) float64 { return a * b }
func (MaxTimesSemiring) Equal(a, b float64) bool  { return a == b }
func (MaxTimesSemiring) Format(a float64) string  { return fmt.Sprintf("%g", a) }
func (MaxTimesSemiring) Less(a, b float64) bool   { return a < b }

// ---------------------------------------------------------------------------
// Fuzzy (Gödel) semiring ([0,1], max, min)
// ---------------------------------------------------------------------------

// FuzzySemiring is the Gödel fuzzy semiring ([0,1], max, min) on float64.
// Conjunction is the weakest link; disjunction is the strongest alternative.
type FuzzySemiring struct{}

// Fuzzy is the canonical FuzzySemiring instance.
var Fuzzy = FuzzySemiring{}

func (FuzzySemiring) Zero() float64            { return 0 }
func (FuzzySemiring) One() float64             { return 1 }
func (FuzzySemiring) Add(a, b float64) float64 { return math.Max(a, b) }
func (FuzzySemiring) Mul(a, b float64) float64 { return math.Min(a, b) }
func (FuzzySemiring) Equal(a, b float64) bool  { return a == b }
func (FuzzySemiring) Format(a float64) string  { return fmt.Sprintf("%g", a) }
func (FuzzySemiring) Less(a, b float64) bool   { return a < b }

// ---------------------------------------------------------------------------
// GF(2): the two-element field ({0,1}, xor, and)
// ---------------------------------------------------------------------------

// GF2Field is the two-element field ({0,1}, ⊕, ∧).  Evaluating a counting
// query in GF(2) yields the parity of the number of answers, the building
// block of FO+MOD-style queries.
type GF2Field struct{}

// GF2 is the canonical GF2Field instance.
var GF2 = GF2Field{}

func (GF2Field) Zero() bool           { return false }
func (GF2Field) One() bool            { return true }
func (GF2Field) Add(a, b bool) bool   { return a != b }
func (GF2Field) Mul(a, b bool) bool   { return a && b }
func (GF2Field) Neg(a bool) bool      { return a }
func (GF2Field) Equal(a, b bool) bool { return a == b }
func (GF2Field) Format(a bool) string {
	if a {
		return "1"
	}
	return "0"
}
func (GF2Field) Elements() []bool { return []bool{false, true} }

// ---------------------------------------------------------------------------
// Counting tropical semiring: min cost together with its multiplicity
// ---------------------------------------------------------------------------

// CostCount is an element of the counting tropical semiring: the minimum
// cost of an answer together with the number of answers attaining it.
type CostCount struct {
	// Cost is the minimum cost; the infinite cost is the additive zero.
	Cost Ext
	// Count is the number of monomials attaining Cost.  It is 0 exactly
	// when Cost is infinite.
	Count int64
}

// CC returns the counting-tropical element with finite cost c achieved k
// times.
func CC(c, k int64) CostCount { return CostCount{Cost: Fin(c), Count: k} }

// CountingTropicalSemiring is the semiring whose elements are pairs
// (minimum cost, number of ways to achieve it).  Addition keeps the smaller
// cost and adds counts on ties; multiplication adds costs and multiplies
// counts.  Evaluating the weighted triangle query in this semiring yields
// both the cheapest triangle cost and how many triangles attain it.
type CountingTropicalSemiring struct{}

// CountingTropical is the canonical CountingTropicalSemiring instance.
var CountingTropical = CountingTropicalSemiring{}

func (CountingTropicalSemiring) Zero() CostCount { return CostCount{Cost: Infinite} }
func (CountingTropicalSemiring) One() CostCount  { return CostCount{Cost: Fin(0), Count: 1} }

func (CountingTropicalSemiring) Add(a, b CostCount) CostCount {
	switch {
	case a.Cost.Inf:
		return b
	case b.Cost.Inf:
		return a
	case a.Cost.V < b.Cost.V:
		return a
	case b.Cost.V < a.Cost.V:
		return b
	default:
		return CostCount{Cost: a.Cost, Count: a.Count + b.Count}
	}
}

func (CountingTropicalSemiring) Mul(a, b CostCount) CostCount {
	if a.Cost.Inf || b.Cost.Inf {
		return CostCount{Cost: Infinite}
	}
	return CostCount{Cost: Fin(a.Cost.V + b.Cost.V), Count: a.Count * b.Count}
}

func (CountingTropicalSemiring) Equal(a, b CostCount) bool {
	if a.Cost.Inf || b.Cost.Inf {
		return a.Cost.Inf == b.Cost.Inf
	}
	return a.Cost.V == b.Cost.V && a.Count == b.Count
}

func (CountingTropicalSemiring) Format(a CostCount) string {
	if a.Cost.Inf {
		return "+inf"
	}
	return fmt.Sprintf("%d×%d", a.Cost.V, a.Count)
}

// ---------------------------------------------------------------------------
// k-best tropical semiring: the k smallest costs, with multiplicity
// ---------------------------------------------------------------------------

// KBest is the k-best tropical semiring.  An element is the multiset of the
// K smallest costs of the monomials summed so far, represented as a sorted
// slice of at most K values.  Addition merges two multisets and keeps the K
// smallest; multiplication forms all pairwise sums and keeps the K smallest.
// Evaluating a weighted query in this semiring yields the costs of the K
// cheapest answers.
type KBest struct {
	// K is the number of costs to retain; must be ≥ 1.
	K int
}

// NewKBest returns the k-best tropical semiring retaining k costs.
func NewKBest(k int) KBest {
	if k < 1 {
		panic("semiring: KBest requires k ≥ 1")
	}
	return KBest{K: k}
}

// Costs returns a k-best element holding the given finite costs (at most K
// of the smallest are retained).
func (s KBest) Costs(cs ...int64) []int64 {
	out := append([]int64(nil), cs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > s.K {
		out = out[:s.K]
	}
	return out
}

func (s KBest) Zero() []int64 { return nil }
func (s KBest) One() []int64  { return []int64{0} }

func (s KBest) Add(a, b []int64) []int64 {
	out := make([]int64, 0, min(len(a)+len(b), s.K))
	i, j := 0, 0
	for len(out) < s.K && (i < len(a) || j < len(b)) {
		switch {
		case i == len(a):
			out = append(out, b[j])
			j++
		case j == len(b):
			out = append(out, a[i])
			i++
		case a[i] <= b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}

func (s KBest) Mul(a, b []int64) []int64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	sums := make([]int64, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			sums = append(sums, x+y)
		}
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i] < sums[j] })
	if len(sums) > s.K {
		sums = sums[:s.K]
	}
	return sums
}

func (s KBest) Equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s KBest) Format(a []int64) string {
	if len(a) == 0 {
		return "{}"
	}
	parts := make([]string, len(a))
	for i, v := range a {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ---------------------------------------------------------------------------
// Product of two semirings
// ---------------------------------------------------------------------------

// Pair is an element of the product of two semirings.
type Pair[A, B any] struct {
	// First is the component in the first factor.
	First A
	// Second is the component in the second factor.
	Second B
}

// ProductSemiring is the componentwise product of two commutative semirings.
// A common use is Nat × Nat for computing a sum together with a count (and
// hence an average) in a single evaluation pass.
type ProductSemiring[A, B any] struct {
	// SA is the first factor.
	SA Semiring[A]
	// SB is the second factor.
	SB Semiring[B]
}

// NewProduct returns the product semiring of sa and sb.
func NewProduct[A, B any](sa Semiring[A], sb Semiring[B]) ProductSemiring[A, B] {
	return ProductSemiring[A, B]{SA: sa, SB: sb}
}

func (s ProductSemiring[A, B]) Zero() Pair[A, B] {
	return Pair[A, B]{First: s.SA.Zero(), Second: s.SB.Zero()}
}

func (s ProductSemiring[A, B]) One() Pair[A, B] {
	return Pair[A, B]{First: s.SA.One(), Second: s.SB.One()}
}

func (s ProductSemiring[A, B]) Add(a, b Pair[A, B]) Pair[A, B] {
	return Pair[A, B]{First: s.SA.Add(a.First, b.First), Second: s.SB.Add(a.Second, b.Second)}
}

func (s ProductSemiring[A, B]) Mul(a, b Pair[A, B]) Pair[A, B] {
	return Pair[A, B]{First: s.SA.Mul(a.First, b.First), Second: s.SB.Mul(a.Second, b.Second)}
}

func (s ProductSemiring[A, B]) Equal(a, b Pair[A, B]) bool {
	return s.SA.Equal(a.First, b.First) && s.SB.Equal(a.Second, b.Second)
}

func (s ProductSemiring[A, B]) Format(a Pair[A, B]) string {
	return "(" + s.SA.Format(a.First) + ", " + s.SB.Format(a.Second) + ")"
}
