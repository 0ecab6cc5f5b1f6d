// Package semiring defines commutative semirings and a collection of
// concrete instances used throughout the library.
//
// The paper "Aggregate Queries on Sparse Databases" (Toruńczyk, PODS 2020)
// evaluates weighted queries over arbitrary commutative semirings.  A
// semiring here is a set S with two commutative, associative operations +
// and · with neutral elements 0 and 1, where · distributes over + and
// 0·s = 0 for all s.
//
// Circuits compiled by internal/compile are independent of the semiring;
// they are evaluated against any Semiring[T] implementation.  Additional
// capabilities are expressed as interface upgrades:
//
//   - Ring[T]    : additive inverses exist (enables constant-time permanent
//     maintenance via inclusion–exclusion, Lemma 15 of the paper).
//   - Finite[T]  : the carrier is finite (enables constant-time permanent
//     maintenance via column-type counting, Lemma 18).
//   - Ordered[T] : a total order compatible with the intended use of the
//     semiring (used by nested queries for comparison connectives).
package semiring

import (
	"fmt"
	"math/big"
)

// Semiring is a commutative semiring over carrier type T.
//
// Implementations must be value types that are cheap to copy; all operations
// must be free of side effects on their arguments.
type Semiring[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// One returns the multiplicative identity.
	One() T
	// Add returns a + b.
	Add(a, b T) T
	// Mul returns a · b.
	Mul(a, b T) T
	// Equal reports whether two elements are equal.  It is used by tests
	// and by zero-detection in dynamic data structures.
	Equal(a, b T) bool
	// Format renders an element for diagnostics.
	Format(a T) string
}

// Ring is a semiring with additive inverses.
type Ring[T any] interface {
	Semiring[T]
	// Neg returns the additive inverse of a.
	Neg(a T) T
}

// Finite is a semiring with a finite carrier.
type Finite[T any] interface {
	Semiring[T]
	// Elements enumerates every element of the carrier.
	Elements() []T
}

// Ordered is a semiring whose carrier has a natural total order.  It is used
// by nested weighted queries for comparison connectives such as < and ≤.
type Ordered[T any] interface {
	Semiring[T]
	// Less reports whether a < b in the natural order of the carrier.
	Less(a, b T) bool
}

// IsZero reports whether a equals the additive identity of s.
func IsZero[T any](s Semiring[T], a T) bool { return s.Equal(a, s.Zero()) }

// Iverson maps a boolean to 0 or 1 of the semiring (the Iverson bracket
// [·] of the paper).
func Iverson[T any](s Semiring[T], b bool) T {
	if b {
		return s.One()
	}
	return s.Zero()
}

// ScalarMul returns n·a, the n-fold sum a + a + ... + a, computed with
// O(log n) semiring additions (doubling).  n must be non-negative.  Unlike
// ScalarMulBig it performs no big.Int arithmetic, so it is allocation-free
// for allocation-free semirings and safe on update hot paths.
func ScalarMul[T any](s Semiring[T], n int64, a T) T {
	if n < 0 {
		panic("semiring: ScalarMul with negative multiplier")
	}
	result := s.Zero()
	acc := a
	for n > 0 {
		if n&1 == 1 {
			result = s.Add(result, acc)
		}
		n >>= 1
		if n > 0 {
			acc = s.Add(acc, acc)
		}
	}
	return result
}

// ScalarMulBig returns n·a for an arbitrary-precision non-negative n.
func ScalarMulBig[T any](s Semiring[T], n *big.Int, a T) T {
	if n.Sign() < 0 {
		panic("semiring: ScalarMulBig with negative multiplier")
	}
	result := s.Zero()
	acc := a
	// Binary decomposition of n, least significant bit first.
	m := new(big.Int).Set(n)
	zero := new(big.Int)
	two := big.NewInt(2)
	bit := new(big.Int)
	for m.Cmp(zero) > 0 {
		m.QuoRem(m, two, bit)
		if bit.Sign() != 0 {
			result = s.Add(result, acc)
		}
		if m.Cmp(zero) > 0 {
			acc = s.Add(acc, acc)
		}
	}
	return result
}

// ---------------------------------------------------------------------------
// Boolean semiring B = ({false,true}, ∨, ∧)
// ---------------------------------------------------------------------------

// Boolean is the two-element semiring ({false, true}, ∨, ∧).
type Boolean struct{}

// Bool is the canonical Boolean semiring instance.
var Bool = Boolean{}

func (Boolean) Zero() bool           { return false }
func (Boolean) One() bool            { return true }
func (Boolean) Add(a, b bool) bool   { return a || b }
func (Boolean) Mul(a, b bool) bool   { return a && b }
func (Boolean) Equal(a, b bool) bool { return a == b }
func (Boolean) Format(a bool) string { return fmt.Sprintf("%v", a) }
func (Boolean) Elements() []bool     { return []bool{false, true} }
func (Boolean) Less(a, b bool) bool  { return !a && b }

// ---------------------------------------------------------------------------
// Natural numbers (ℕ, +, ·) on int64
// ---------------------------------------------------------------------------

// Natural is the semiring (ℕ, +, ·) represented on int64.  Overflow is the
// caller's responsibility; use BigNat for arbitrary precision.
type Natural struct{}

// Nat is the canonical Natural semiring instance.
var Nat = Natural{}

func (Natural) Zero() int64           { return 0 }
func (Natural) One() int64            { return 1 }
func (Natural) Add(a, b int64) int64  { return a + b }
func (Natural) Mul(a, b int64) int64  { return a * b }
func (Natural) Equal(a, b int64) bool { return a == b }
func (Natural) Format(a int64) string { return fmt.Sprintf("%d", a) }
func (Natural) Less(a, b int64) bool  { return a < b }

// ---------------------------------------------------------------------------
// Integer ring (ℤ, +, ·) on int64
// ---------------------------------------------------------------------------

// IntRing is the ring (ℤ, +, ·) represented on int64.
type IntRing struct{}

// Int is the canonical IntRing instance.
var Int = IntRing{}

func (IntRing) Zero() int64           { return 0 }
func (IntRing) One() int64            { return 1 }
func (IntRing) Add(a, b int64) int64  { return a + b }
func (IntRing) Mul(a, b int64) int64  { return a * b }
func (IntRing) Neg(a int64) int64     { return -a }
func (IntRing) Equal(a, b int64) bool { return a == b }
func (IntRing) Format(a int64) string { return fmt.Sprintf("%d", a) }
func (IntRing) Less(a, b int64) bool  { return a < b }

// ---------------------------------------------------------------------------
// Big-integer semiring (ℕ or ℤ, +, ·) on *big.Int
// ---------------------------------------------------------------------------

// BigInt is the ring (ℤ, +, ·) on arbitrary-precision integers.  It is used
// when counts may exceed int64, e.g. counting answers of queries with many
// free variables on large databases.
type BigInt struct{}

// Big is the canonical BigInt instance.
var Big = BigInt{}

func (BigInt) Zero() *big.Int { return new(big.Int) }
func (BigInt) One() *big.Int  { return big.NewInt(1) }
func (BigInt) Add(a, b *big.Int) *big.Int {
	return new(big.Int).Add(a, b)
}
func (BigInt) Mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mul(a, b)
}
func (BigInt) Neg(a *big.Int) *big.Int  { return new(big.Int).Neg(a) }
func (BigInt) Equal(a, b *big.Int) bool { return a.Cmp(b) == 0 }
func (BigInt) Format(a *big.Int) string { return a.String() }
func (BigInt) Less(a, b *big.Int) bool  { return a.Cmp(b) < 0 }

// ---------------------------------------------------------------------------
// Rational field (ℚ, +, ·) on *big.Rat
// ---------------------------------------------------------------------------

// Rational is the field (ℚ, +, ·) on *big.Rat.  Used for the PageRank
// example (Example 9) and probability computations (Example 4).
type Rational struct{}

// Rat is the canonical Rational instance.
var Rat = Rational{}

func (Rational) Zero() *big.Rat { return new(big.Rat) }
func (Rational) One() *big.Rat  { return big.NewRat(1, 1) }
func (Rational) Add(a, b *big.Rat) *big.Rat {
	return new(big.Rat).Add(a, b)
}
func (Rational) Mul(a, b *big.Rat) *big.Rat {
	return new(big.Rat).Mul(a, b)
}
func (Rational) Neg(a *big.Rat) *big.Rat  { return new(big.Rat).Neg(a) }
func (Rational) Equal(a, b *big.Rat) bool { return a.Cmp(b) == 0 }
func (Rational) Format(a *big.Rat) string { return a.RatString() }
func (Rational) Less(a, b *big.Rat) bool  { return a.Cmp(b) < 0 }

// ---------------------------------------------------------------------------
// Float ring (ℝ, +, ·) on float64
// ---------------------------------------------------------------------------

// FloatRing is the ring (ℝ, +, ·) on float64.  Exactness caveats apply; it
// exists for numeric workloads where big.Rat is too slow.
type FloatRing struct{}

// Float is the canonical FloatRing instance.
var Float = FloatRing{}

func (FloatRing) Zero() float64            { return 0 }
func (FloatRing) One() float64             { return 1 }
func (FloatRing) Add(a, b float64) float64 { return a + b }
func (FloatRing) Mul(a, b float64) float64 { return a * b }
func (FloatRing) Neg(a float64) float64    { return -a }
func (FloatRing) Equal(a, b float64) bool  { return a == b }
func (FloatRing) Format(a float64) string  { return fmt.Sprintf("%g", a) }
func (FloatRing) Less(a, b float64) bool   { return a < b }

// ---------------------------------------------------------------------------
// Extended integers with an infinity, shared by the tropical semirings
// ---------------------------------------------------------------------------

// Ext is an integer extended with an "infinite" element.  The meaning of the
// infinity (+∞ or −∞) depends on the semiring using it.
type Ext struct {
	// Inf marks the infinite element; V is ignored when Inf is set.
	Inf bool
	// V is the finite value.
	V int64
}

// Fin returns the finite extended integer v.
func Fin(v int64) Ext { return Ext{V: v} }

// Infinite is the infinite extended integer.
var Infinite = Ext{Inf: true}

func formatExt(a Ext, infSym string) string {
	if a.Inf {
		return infSym
	}
	return fmt.Sprintf("%d", a.V)
}

// ---------------------------------------------------------------------------
// MinPlus semiring (ℕ ∪ {+∞}, min, +): shortest paths / minimum cost
// ---------------------------------------------------------------------------

// MinPlusSemiring is the tropical semiring (ℤ ∪ {+∞}, min, +) in which the
// paper's example computes the minimum total cost of a directed triangle.
type MinPlusSemiring struct{}

// MinPlus is the canonical MinPlusSemiring instance.
var MinPlus = MinPlusSemiring{}

func (MinPlusSemiring) Zero() Ext { return Infinite }
func (MinPlusSemiring) One() Ext  { return Fin(0) }
func (MinPlusSemiring) Add(a, b Ext) Ext {
	switch {
	case a.Inf:
		return b
	case b.Inf:
		return a
	case a.V <= b.V:
		return a
	default:
		return b
	}
}
func (MinPlusSemiring) Mul(a, b Ext) Ext {
	if a.Inf || b.Inf {
		return Infinite
	}
	return Fin(a.V + b.V)
}
func (MinPlusSemiring) Equal(a, b Ext) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return a.V == b.V
}
func (MinPlusSemiring) Format(a Ext) string { return formatExt(a, "+inf") }
func (MinPlusSemiring) Less(a, b Ext) bool {
	// +∞ is the largest element.
	if a.Inf {
		return false
	}
	if b.Inf {
		return true
	}
	return a.V < b.V
}

// ---------------------------------------------------------------------------
// MaxPlus semiring (ℤ ∪ {−∞}, max, +): maximum reward
// ---------------------------------------------------------------------------

// MaxPlusSemiring is the semiring (ℤ ∪ {−∞}, max, +), used by the nested
// query example computing a maximum of averages.
type MaxPlusSemiring struct{}

// MaxPlus is the canonical MaxPlusSemiring instance.
var MaxPlus = MaxPlusSemiring{}

func (MaxPlusSemiring) Zero() Ext { return Infinite }
func (MaxPlusSemiring) One() Ext  { return Fin(0) }
func (MaxPlusSemiring) Add(a, b Ext) Ext {
	switch {
	case a.Inf:
		return b
	case b.Inf:
		return a
	case a.V >= b.V:
		return a
	default:
		return b
	}
}
func (MaxPlusSemiring) Mul(a, b Ext) Ext {
	if a.Inf || b.Inf {
		return Infinite
	}
	return Fin(a.V + b.V)
}
func (MaxPlusSemiring) Equal(a, b Ext) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return a.V == b.V
}
func (MaxPlusSemiring) Format(a Ext) string { return formatExt(a, "-inf") }
func (MaxPlusSemiring) Less(a, b Ext) bool {
	// −∞ is the smallest element.
	if b.Inf {
		return false
	}
	if a.Inf {
		return true
	}
	return a.V < b.V
}

// ---------------------------------------------------------------------------
// Modular ring ℤ/m on int64, a finite (semi)ring
// ---------------------------------------------------------------------------

// Modular is the finite ring ℤ/m of integers modulo m > 0.
type Modular struct {
	// M is the modulus; must be positive.
	M int64
}

// NewModular returns the ring ℤ/m.
func NewModular(m int64) Modular {
	if m <= 0 {
		panic("semiring: modulus must be positive")
	}
	return Modular{M: m}
}

func (r Modular) norm(a int64) int64 {
	a %= r.M
	if a < 0 {
		a += r.M
	}
	return a
}

func (r Modular) Zero() int64          { return 0 }
func (r Modular) One() int64           { return r.norm(1) }
func (r Modular) Add(a, b int64) int64 { return r.norm(a + b) }
func (r Modular) Mul(a, b int64) int64 { return r.norm(a * b) }
func (r Modular) Neg(a int64) int64    { return r.norm(-a) }
func (r Modular) Equal(a, b int64) bool {
	return r.norm(a) == r.norm(b)
}
func (r Modular) Format(a int64) string { return fmt.Sprintf("%d (mod %d)", r.norm(a), r.M) }
func (r Modular) Elements() []int64 {
	out := make([]int64, r.M)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Bounded counting semiring: ℕ truncated at a cap, a finite semiring
// ---------------------------------------------------------------------------

// Truncated is the finite semiring {0, 1, ..., Cap} with saturating addition
// and multiplication ("count up to Cap").  It is useful for threshold
// queries ("are there at least t answers?") and exercises the
// finite-semiring fast path of the dynamic permanent (Lemma 18).
type Truncated struct {
	// Cap is the saturation bound; must be ≥ 1.
	Cap int64
}

// NewTruncated returns the counting semiring saturated at cap.
func NewTruncated(cap int64) Truncated {
	if cap < 1 {
		panic("semiring: truncation cap must be at least 1")
	}
	return Truncated{Cap: cap}
}

func (t Truncated) clamp(a int64) int64 {
	if a > t.Cap {
		return t.Cap
	}
	if a < 0 {
		return 0
	}
	return a
}

func (t Truncated) Zero() int64          { return 0 }
func (t Truncated) One() int64           { return 1 }
func (t Truncated) Add(a, b int64) int64 { return t.clamp(a + b) }
func (t Truncated) Mul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > t.Cap/b+1 {
		return t.Cap
	}
	return t.clamp(a * b)
}
func (t Truncated) Equal(a, b int64) bool { return t.clamp(a) == t.clamp(b) }
func (t Truncated) Format(a int64) string { return fmt.Sprintf("%d", t.clamp(a)) }
func (t Truncated) Less(a, b int64) bool  { return t.clamp(a) < t.clamp(b) }
func (t Truncated) Elements() []int64 {
	out := make([]int64, t.Cap+1)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
