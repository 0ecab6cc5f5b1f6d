package perm

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/semiring"
)

func randomNatMatrix(r *rand.Rand, rows, cols int) *Matrix[int64] {
	m := NewMatrix[int64](semiring.Nat, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, int64(r.Intn(4)))
		}
	}
	return m
}

func TestPermSmallExamples(t *testing.T) {
	s := semiring.Nat
	// 1×n matrix: permanent is the sum of the entries.
	m := NewMatrix[int64](s, 1, 4)
	for j := 0; j < 4; j++ {
		m.Set(0, j, int64(j+1))
	}
	if got := Perm[int64](s, m); got != 10 {
		t.Errorf("perm of 1×4 = %d, want 10", got)
	}
	// 2×2 matrix [[a,b],[c,d]]: permanent is ad + bc.
	m2 := NewMatrix[int64](s, 2, 2)
	m2.Set(0, 0, 2)
	m2.Set(0, 1, 3)
	m2.Set(1, 0, 5)
	m2.Set(1, 1, 7)
	if got := Perm[int64](s, m2); got != 2*7+3*5 {
		t.Errorf("perm of 2×2 = %d, want %d", got, 2*7+3*5)
	}
	// k > n gives zero.
	m3 := NewMatrix[int64](s, 3, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			m3.Set(i, j, 1)
		}
	}
	if got := Perm[int64](s, m3); got != 0 {
		t.Errorf("perm with more rows than columns = %d, want 0", got)
	}
	// 0 rows gives one.
	m4 := NewMatrix[int64](s, 0, 5)
	if got := Perm[int64](s, m4); got != 1 {
		t.Errorf("perm of empty-row matrix = %d, want 1", got)
	}
	// All-ones 3×5: number of injective maps = 5·4·3.
	m5 := NewMatrix[int64](s, 3, 5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			m5.Set(i, j, 1)
		}
	}
	if got := Perm[int64](s, m5); got != 60 {
		t.Errorf("perm of all-ones 3×5 = %d, want 60", got)
	}
}

func TestPermMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		rows := r.Intn(4) + 1
		cols := r.Intn(6) + 1
		m := randomNatMatrix(r, rows, cols)
		want := PermNaive[int64](semiring.Nat, m)
		if got := Perm[int64](semiring.Nat, m); got != want {
			t.Fatalf("Perm = %d, PermNaive = %d (rows=%d cols=%d)", got, want, rows, cols)
		}
	}
}

func TestPermMinPlusIsAssignmentProblem(t *testing.T) {
	// In the min-plus semiring the permanent is the minimum-cost assignment
	// of rows to distinct columns.
	s := semiring.MinPlus
	m := NewMatrix[semiring.Ext](s, 2, 3)
	costs := [2][3]int64{{4, 1, 9}, {2, 8, 3}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, semiring.Fin(costs[i][j]))
		}
	}
	// Best assignment: row0→col1 (1), row1→col0 (2) = 3.
	if got := Perm[semiring.Ext](s, m); !s.Equal(got, semiring.Fin(3)) {
		t.Errorf("min-plus permanent = %v, want 3", got)
	}
}

func TestPermBooleanIsMatching(t *testing.T) {
	// In the boolean semiring the permanent asks for a system of distinct
	// representatives (a perfect matching of rows into columns).
	s := semiring.Bool
	m := NewMatrix[bool](s, 2, 2)
	m.Set(0, 0, true)
	m.Set(1, 0, true)
	// Both rows only compatible with column 0: no matching.
	if Perm[bool](s, m) {
		t.Errorf("boolean permanent should be false without a matching")
	}
	m.Set(1, 1, true)
	if !Perm[bool](s, m) {
		t.Errorf("boolean permanent should be true once a matching exists")
	}
}

// exerciseMaintainer applies random updates to a maintainer and cross-checks
// the value against recomputation from scratch in the same semiring.
func exerciseMaintainer(t *testing.T, name string, r *rand.Rand, ref semiring.Semiring[int64], mk func(m *Matrix[int64]) Maintainer[int64], genValue func() int64) {
	t.Helper()
	for trial := 0; trial < 30; trial++ {
		rows := r.Intn(3) + 1
		cols := r.Intn(8) + 1
		m := NewMatrix[int64](ref, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, genValue())
			}
		}
		d := mk(m)
		if got, want := d.Value(), Perm[int64](ref, m); !ref.Equal(got, want) {
			t.Fatalf("%s: initial value %d, want %d", name, got, want)
		}
		for step := 0; step < 20; step++ {
			row, col := r.Intn(rows), r.Intn(cols)
			v := genValue()
			d.Update(row, col, v)
			m.Set(row, col, v)
			if got, want := d.Value(), Perm[int64](ref, m); !ref.Equal(got, want) {
				t.Fatalf("%s: after update value %d, want %d (rows=%d cols=%d)", name, got, want, rows, cols)
			}
		}
	}
}

func TestDynamicGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	exerciseMaintainer(t, "Dynamic", r, semiring.Nat,
		func(m *Matrix[int64]) Maintainer[int64] { return NewDynamic[int64](semiring.Nat, m.Clone()) },
		func() int64 { return int64(r.Intn(5)) })
}

func TestRingDynamic(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	exerciseMaintainer(t, "RingDynamic", r, semiring.Int,
		func(m *Matrix[int64]) Maintainer[int64] { return NewRingDynamic[int64](semiring.Int, m.Clone()) },
		func() int64 { return int64(r.Intn(7) - 3) })
}

func TestFiniteDynamic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	mod5 := semiring.NewModular(5)
	exerciseMaintainer(t, "FiniteDynamic", r, mod5,
		func(m *Matrix[int64]) Maintainer[int64] { return NewFiniteDynamic[int64](mod5, m.Clone()) },
		func() int64 { return int64(r.Intn(5)) })
}

func TestFiniteDynamicTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tr := semiring.NewTruncated(6)
	exerciseMaintainer(t, "FiniteDynamicTruncated", r, tr,
		func(m *Matrix[int64]) Maintainer[int64] { return NewFiniteDynamic[int64](tr, m.Clone()) },
		func() int64 { return int64(r.Intn(4)) })
}

func TestFiniteDynamicBooleanMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		rows := r.Intn(3) + 1
		cols := r.Intn(7) + 1
		m := NewMatrix[bool](semiring.Bool, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.Intn(2) == 0)
			}
		}
		d := NewFiniteDynamic[bool](semiring.Bool, m.Clone())
		if got, want := d.Value(), PermNaive[bool](semiring.Bool, m); got != want {
			t.Fatalf("boolean finite dynamic: %v, want %v", got, want)
		}
		for step := 0; step < 10; step++ {
			row, col := r.Intn(rows), r.Intn(cols)
			v := r.Intn(2) == 0
			d.Update(row, col, v)
			m.Set(row, col, v)
			if got, want := d.Value(), PermNaive[bool](semiring.Bool, m); got != want {
				t.Fatalf("boolean finite dynamic after update: %v, want %v", got, want)
			}
		}
	}
}

func TestDynamicMinPlus(t *testing.T) {
	// The generic maintainer must work for the min-plus semiring, which is
	// neither a ring nor finite (this is the case where logarithmic updates
	// are provably necessary, Proposition 14).
	r := rand.New(rand.NewSource(23))
	s := semiring.MinPlus
	for trial := 0; trial < 20; trial++ {
		rows := r.Intn(3) + 1
		cols := r.Intn(8) + 1
		m := NewMatrix[semiring.Ext](s, rows, cols)
		gen := func() semiring.Ext {
			if r.Intn(5) == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(int64(r.Intn(20)))
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, gen())
			}
		}
		d := NewDynamic[semiring.Ext](s, m.Clone())
		if got, want := d.Value(), PermNaive[semiring.Ext](s, m); !s.Equal(got, want) {
			t.Fatalf("min-plus dynamic initial: %v, want %v", got, want)
		}
		for step := 0; step < 15; step++ {
			row, col := r.Intn(rows), r.Intn(cols)
			v := gen()
			d.Update(row, col, v)
			m.Set(row, col, v)
			if got, want := d.Value(), PermNaive[semiring.Ext](s, m); !s.Equal(got, want) {
				t.Fatalf("min-plus dynamic after update: %v, want %v", got, want)
			}
		}
	}
}

func TestRingDynamicRational(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	s := semiring.Rat
	m := NewMatrix[*big.Rat](s, 3, 6)
	gen := func() *big.Rat { return big.NewRat(int64(r.Intn(9)-4), int64(r.Intn(3)+1)) }
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, gen())
		}
	}
	d := NewRingDynamic[*big.Rat](s, m.Clone())
	if got, want := d.Value(), PermNaive[*big.Rat](s, m); !s.Equal(got, want) {
		t.Fatalf("rational ring dynamic initial: %s, want %s", s.Format(got), s.Format(want))
	}
	for step := 0; step < 10; step++ {
		row, col := r.Intn(3), r.Intn(6)
		v := gen()
		d.Update(row, col, v)
		m.Set(row, col, v)
		if got, want := d.Value(), PermNaive[*big.Rat](s, m); !s.Equal(got, want) {
			t.Fatalf("rational ring dynamic after update: %s, want %s", s.Format(got), s.Format(want))
		}
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := NewMatrix[int64](semiring.Nat, 2, 3)
	m.Set(1, 2, 9)
	c := m.Clone()
	c.Set(1, 2, 4)
	if m.At(1, 2) != 9 {
		t.Errorf("Clone aliases original")
	}
}

// TestConstantTimeUpdateZeroAllocs is the allocation guard of the ring and
// finite strategies: after warm-up, an Update followed by a Value read
// allocates nothing, however often a column type disappears and returns.
func TestConstantTimeUpdateZeroAllocs(t *testing.T) {
	const rows, cols = 3, 64
	r := rand.New(rand.NewSource(41))
	mod7 := semiring.NewModular(7)
	b := NewMatrix[bool](semiring.Bool, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			b.Set(i, j, r.Intn(2) == 0)
		}
	}
	guardUpdateAllocs(t, "RingDynamic/Int", NewRingDynamic[int64](semiring.Int, randomNatMatrix(r, rows, cols)),
		rows, cols, func(step int) int64 { return int64(step%7 - 3) })
	guardUpdateAllocs(t, "FiniteDynamic/Modular(7)", NewFiniteDynamic[int64](mod7, randomNatMatrix(r, rows, cols)),
		rows, cols, func(step int) int64 { return int64(step % 7) })
	guardUpdateAllocs(t, "FiniteDynamic/Bool", NewFiniteDynamic[bool](semiring.Bool, b),
		rows, cols, func(step int) bool { return step%3 == 0 })
}

func guardUpdateAllocs[T any](t *testing.T, name string, d Maintainer[T], rows, cols int, val func(step int) T) {
	t.Helper()
	step := 0
	update := func() {
		step++
		d.Update(step%rows, (step*7)%cols, val(step))
		_ = d.Value()
	}
	for i := 0; i < 4*rows*cols; i++ {
		update()
	}
	if allocs := testing.AllocsPerRun(500, update); allocs != 0 {
		t.Errorf("%s: Update+Value allocates %.2f objects, want 0", name, allocs)
	}
}
