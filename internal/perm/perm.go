// Package perm implements permanents of rectangular matrices over
// commutative semirings, together with dynamic maintenance structures.
//
// The permanent of a k×n matrix M is
//
//	perm(M) = Σ_f Π_{r} M[r, f(r)],
//
// where f ranges over injective functions from rows to columns (equation (1)
// of the paper).  The paper reduces the evaluation and maintenance of
// arbitrary weighted queries on sparse databases to the evaluation and
// maintenance of permanents with a bounded number of rows (Theorem 6), so
// this package is the algebraic engine behind Theorems 8, 22 and 24:
//
//   - Perm evaluates a k×n permanent with O(2^k·k·n) semiring operations
//     (linear in n for fixed k, as required by Section 4).
//   - Dynamic maintains a permanent under single-entry updates in
//     O(3^k·log n) semiring operations (the divide-and-conquer circuit of
//     Lemma 10/11 and Corollary 13).
//   - RingDynamic maintains a permanent over a ring in O(2^k) operations per
//     update and O(3^k) per read of a changed value (the inclusion–exclusion
//     circuit of Lemma 15, Corollary 17).
//   - FiniteDynamic maintains a permanent over a finite semiring in O(k·|S|)
//     operations per update and O(types present · 3^k) per read of a changed
//     value, plus O(k·log n) additions per type to lift its count into S
//     (the column-type counting argument of Lemma 18, Corollary 20).
//
// The constant-time strategies keep their bookkeeping in machine integers:
// subset masks, factorials up to (maxRows−1)! and column counts.  A count
// enters the semiring only as n·1, through semiring.ScalarMul.
package perm

import (
	"fmt"
	"math/bits"

	"repro/internal/semiring"
)

// Matrix is a dense k×n matrix of semiring values, with a small fixed number
// of rows and an unbounded number of columns.
type Matrix[T any] struct {
	Rows, Cols int
	data       []T
}

// NewMatrix returns a rows×cols matrix filled with zero.
func NewMatrix[T any](s semiring.Semiring[T], rows, cols int) *Matrix[T] {
	if rows < 0 || cols < 0 {
		panic("perm: negative matrix dimension")
	}
	m := &Matrix[T]{Rows: rows, Cols: cols, data: make([]T, rows*cols)}
	z := s.Zero()
	for i := range m.data {
		m.data[i] = z
	}
	return m
}

// At returns M[r, c].
func (m *Matrix[T]) At(r, c int) T { return m.data[r*m.Cols+c] }

// Set assigns M[r, c] = v.
func (m *Matrix[T]) Set(r, c int, v T) { m.data[r*m.Cols+c] = v }

// Clone returns a deep copy of the matrix.
func (m *Matrix[T]) Clone() *Matrix[T] {
	return &Matrix[T]{Rows: m.Rows, Cols: m.Cols, data: append([]T(nil), m.data...)}
}

// checkUpdate panics unless (row, col) is an entry of m.
func (m *Matrix[T]) checkUpdate(row, col int) {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic("perm: update out of range")
	}
}

// maxRows bounds the supported number of rows.  The number of rows equals
// the number of query variables in a monomial after compilation, so small
// values suffice; the bound keeps the 2^k and 3^k blow-ups in check.
const maxRows = 12

func checkRows(rows int) {
	if rows > maxRows {
		panic(fmt.Sprintf("perm: %d rows exceeds the supported maximum of %d", rows, maxRows))
	}
}

// PermNaive computes the permanent by brute force over all injective
// functions, in O(n^k) time.  It is the test oracle for the other
// implementations.
func PermNaive[T any](s semiring.Semiring[T], m *Matrix[T]) T {
	checkRows(m.Rows)
	used := make([]bool, m.Cols)
	var rec func(row int) T
	rec = func(row int) T {
		if row == m.Rows {
			return s.One()
		}
		acc := s.Zero()
		for c := 0; c < m.Cols; c++ {
			if used[c] {
				continue
			}
			used[c] = true
			acc = s.Add(acc, s.Mul(m.At(row, c), rec(row+1)))
			used[c] = false
		}
		return acc
	}
	return rec(0)
}

// Perm computes the permanent of a k×n matrix with O(2^k·k·n) semiring
// operations by dynamic programming over columns: state[S] is the permanent
// of the submatrix with rows S and the columns processed so far, where every
// row of S must be matched.
func Perm[T any](s semiring.Semiring[T], m *Matrix[T]) T {
	checkRows(m.Rows)
	k := m.Rows
	if k == 0 {
		return s.One()
	}
	size := 1 << uint(k)
	state := make([]T, size)
	for i := range state {
		state[i] = s.Zero()
	}
	state[0] = s.One()
	next := make([]T, size)
	for c := 0; c < m.Cols; c++ {
		copy(next, state)
		for sub := 0; sub < size; sub++ {
			if semiring.IsZero(s, state[sub]) {
				continue
			}
			for r := 0; r < k; r++ {
				bit := 1 << uint(r)
				if sub&bit != 0 {
					continue
				}
				next[sub|bit] = s.Add(next[sub|bit], s.Mul(state[sub], m.At(r, c)))
			}
		}
		state, next = next, state
	}
	return state[size-1]
}

// Maintainer is a dynamic permanent: it reports the current permanent value
// and accepts single-entry updates.
//
// The three implementations trade generality for update time, exactly as in
// Section 4 of the paper: Dynamic works for every semiring with logarithmic
// updates, RingDynamic and FiniteDynamic achieve constant-time updates for
// rings and finite semirings respectively.
type Maintainer[T any] interface {
	// Value returns the permanent of the current matrix.
	Value() T
	// Update sets entry (row, col) to v and refreshes the value.
	Update(row, col int, v T)
}

// subsetProducts writes into prod, for every subset S of the rows, the
// product Π_{r∈S} at(r): 2^rows multiplications, nothing allocated.
func subsetProducts[T any](s semiring.Semiring[T], prod []T, at func(r int) T) {
	prod[0] = s.One()
	for set := 1; set < len(prod); set++ {
		low := set & -set
		prod[set] = s.Mul(prod[set^low], at(bits.TrailingZeros(uint(low))))
	}
}

// ---------------------------------------------------------------------------
// Generic semirings: segment tree over columns (Lemma 10/11, Corollary 13)
// ---------------------------------------------------------------------------

// Dynamic maintains the permanent of a k×n matrix over an arbitrary
// semiring.  Internally it is a segment tree over the columns; each node
// stores, for every subset S of rows, the "partial permanent" over the
// node's column range in which exactly the rows of S are matched.  Merging
// two children is the identity of Lemma 10 generalised to subsets
// (a subset-split convolution with 3^k terms), so updates cost
// O(3^k · log n) semiring operations and the value is read in O(1).
type Dynamic[T any] struct {
	s      semiring.Semiring[T]
	rows   int
	cols   int
	size   int // number of leaves (power of two ≥ cols, ≥ 1)
	full   int
	vecLen int
	// tree[i] is the subset vector of node i (1-based heap layout).
	tree [][]T
	// entries holds the current matrix, which the leaves are built from.
	entries *Matrix[T]
}

// NewDynamic builds the dynamic permanent structure for the given matrix in
// O(3^k · n) semiring operations.  It adopts m as its entry store: the caller
// must not use m afterwards (clone it first to keep a copy).
func NewDynamic[T any](s semiring.Semiring[T], m *Matrix[T]) *Dynamic[T] {
	checkRows(m.Rows)
	d := &Dynamic[T]{
		s:       s,
		rows:    m.Rows,
		cols:    m.Cols,
		full:    1<<uint(m.Rows) - 1,
		vecLen:  1 << uint(m.Rows),
		entries: m,
	}
	d.size = 1
	for d.size < m.Cols {
		d.size *= 2
	}
	d.tree = make([][]T, 2*d.size)
	// Leaves.
	for c := 0; c < d.size; c++ {
		d.tree[d.size+c] = make([]T, d.vecLen)
		d.leafVectorInto(d.tree[d.size+c], c)
	}
	// Internal nodes.
	for i := d.size - 1; i >= 1; i-- {
		d.tree[i] = make([]T, d.vecLen)
		d.mergeInto(d.tree[i], d.tree[2*i], d.tree[2*i+1])
	}
	return d
}

// leafVectorInto writes the subset vector of column c into vec: the empty
// subset has value 1, singletons {r} have value M[r,c], larger subsets are 0
// (a single column cannot match two rows).  It reuses the slice so that
// updates allocate nothing.
func (d *Dynamic[T]) leafVectorInto(vec []T, c int) {
	for i := range vec {
		vec[i] = d.s.Zero()
	}
	vec[0] = d.s.One()
	if c < d.cols {
		for r := 0; r < d.rows; r++ {
			vec[1<<uint(r)] = d.entries.At(r, c)
		}
	}
}

// mergeInto writes the merge of two adjacent column ranges,
// out[S] = Σ_{T ⊆ S} left[T] · right[S\T], into out; out must not alias
// either operand (tree nodes never alias their children, so Update can reuse
// the existing node vectors).
func (d *Dynamic[T]) mergeInto(out, left, right []T) {
	for i := range out {
		out[i] = d.s.Zero()
	}
	for set := 0; set < d.vecLen; set++ {
		// Enumerate subsets of set.
		for sub := set; ; sub = (sub - 1) & set {
			out[set] = d.s.Add(out[set], d.s.Mul(left[sub], right[set^sub]))
			if sub == 0 {
				break
			}
		}
	}
}

// Value returns the permanent of the current matrix.
func (d *Dynamic[T]) Value() T {
	if d.rows == 0 {
		return d.s.One()
	}
	return d.tree[1][d.full]
}

// Update sets entry (row, col) to v and refreshes the structure in
// O(3^rows · log cols) semiring operations, rewriting the affected tree
// vectors in place so steady-state updates allocate nothing.
func (d *Dynamic[T]) Update(row, col int, v T) {
	d.entries.checkUpdate(row, col)
	d.entries.Set(row, col, v)
	i := d.size + col
	d.leafVectorInto(d.tree[i], col)
	for i >= 2 {
		i /= 2
		d.mergeInto(d.tree[i], d.tree[2*i], d.tree[2*i+1])
	}
}

// ---------------------------------------------------------------------------
// Rings: inclusion–exclusion over set partitions (Lemma 15, Corollary 17)
// ---------------------------------------------------------------------------

// factorials[i] is i!, for the Möbius coefficients of blocks of up to
// maxRows rows.
var factorials = func() (f [maxRows]int64) {
	f[0] = 1
	for i := 1; i < maxRows; i++ {
		f[i] = f[i-1] * int64(i)
	}
	return f
}()

// RingDynamic maintains the permanent of a k×n matrix over a ring with
// O(2^k) ring operations per update.  It maintains, for every non-empty
// subset B of rows, the column sum S_B = Σ_c Π_{r∈B} M[r,c]; the permanent
// is recovered by Möbius inversion over set partitions:
//
//	perm(M) = Σ_{partitions π of the rows} Π_{B∈π} (−1)^{|B|−1}(|B|−1)!·S_B.
//
// For k = 2 this is the familiar Σa·Σb − Σab identity shown in the paper.
// Value sums the partitions by a dynamic program over subsets rather than
// listing them, and both scratch vectors belong to the maintainer, so over an
// allocation-free ring neither Update nor Value allocates.
type RingDynamic[T any] struct {
	s       semiring.Ring[T]
	sums    []T // S_B, indexed by subset B (entry 0 unused)
	scratch []T // a column's subset products (Update), the signed S_B (Value)
	parts   []T // parts[R]: the inversion restricted to the rows of R (Value)
	entries *Matrix[T]
	value   T
	dirty   bool
}

// NewRingDynamic builds the structure in O(2^k·n) ring operations.  It adopts
// m as its entry store: the caller must not use m afterwards.
func NewRingDynamic[T any](s semiring.Ring[T], m *Matrix[T]) *RingDynamic[T] {
	checkRows(m.Rows)
	size := 1 << uint(m.Rows)
	buf := make([]T, 3*size) // one allocation for the three vectors
	r := &RingDynamic[T]{
		s:       s,
		sums:    buf[:size],
		scratch: buf[size : 2*size],
		parts:   buf[2*size:],
		entries: m,
		dirty:   true,
	}
	for i := range r.sums {
		r.sums[i] = s.Zero()
	}
	for c := 0; c < m.Cols; c++ {
		r.addColumn(c, false)
	}
	return r
}

// addColumn adds (or subtracts) the contribution Π_{r∈B} M[r,c] of column c
// to every subset sum S_B.
func (r *RingDynamic[T]) addColumn(c int, subtract bool) {
	subsetProducts(r.s, r.scratch, func(row int) T { return r.entries.At(row, c) })
	for set := 1; set < len(r.sums); set++ {
		p := r.scratch[set]
		if subtract {
			p = r.s.Neg(p)
		}
		r.sums[set] = r.s.Add(r.sums[set], p)
	}
}

// Update sets entry (row, col) to v in O(2^rows) ring operations.
func (r *RingDynamic[T]) Update(row, col int, v T) {
	r.entries.checkUpdate(row, col)
	r.addColumn(col, true)
	r.entries.Set(row, col, v)
	r.addColumn(col, false)
	r.dirty = true
}

// Value returns the permanent, recomputed from the subset sums when needed
// in O(3^k) ring operations, independent of n.  With μ(B) =
// (−1)^{|B|−1}(|B|−1)!, the partitions of a row set R are those of R∖B
// extended by the block B that holds R's lowest row, so
//
//	parts(∅) = 1,  parts(R) = Σ_{B ⊆ R, min R ∈ B} μ(B)·S_B·parts(R∖B),
//
// and the permanent is parts(all rows).
func (r *RingDynamic[T]) Value() T {
	if !r.dirty {
		return r.value
	}
	signed := r.scratch
	for set := 1; set < len(signed); set++ {
		size := bits.OnesCount(uint(set))
		signed[set] = semiring.ScalarMul(r.s, factorials[size-1], r.sums[set])
		if size%2 == 0 {
			signed[set] = r.s.Neg(signed[set])
		}
	}
	r.parts[0] = r.s.One()
	for set := 1; set < len(r.parts); set++ {
		low := set & -set
		rest := set ^ low
		acc := r.s.Zero()
		for sub := rest; ; sub = (sub - 1) & rest {
			acc = r.s.Add(acc, r.s.Mul(signed[sub|low], r.parts[rest^sub]))
			if sub == 0 {
				break
			}
		}
		r.parts[set] = acc
	}
	r.value = r.parts[len(r.parts)-1]
	r.dirty = false
	return r.value
}

// ---------------------------------------------------------------------------
// Finite semirings: column-type counting (Lemma 18, Corollary 20)
// ---------------------------------------------------------------------------

// colType is a column's type: the carrier index of each row's entry, rows
// past the matrix's zero.
type colType [maxRows]int32

// FiniteDynamic maintains the permanent of a k×n matrix over a finite
// semiring with update time independent of n.  The permanent only depends on
// how many columns realise each possible column type (a vector in S^k), so
// the structure maintains these counts and recomputes the permanent by
// dynamic programming over the distinct types present.
//
// A count c enters the semiring only through the falling factorial
// c·(c−1)···(c−j+1) of the ways to give j rows distinct columns of one type,
// applied as a product of the (c−i)·1.  Because n ↦ n·1 is a semiring
// homomorphism ℕ → S, that is exact in every carrier and never leaves int64.
type FiniteDynamic[T any] struct {
	s       semiring.Semiring[T]
	entries *Matrix[T]
	elems   []T // the carrier; a type holds indices into it
	counts  map[colType]int64
	// Value's scratch: state over row subsets, one type's weighted subset
	// products, and its ways to fill 0..k rows.
	state, prod, ways []T
	value             T
	dirty             bool
}

// NewFiniteDynamic builds the structure in O(n·k·|S|) time.  It adopts m as
// its entry store: the caller must not use m afterwards.
func NewFiniteDynamic[T any](s semiring.Finite[T], m *Matrix[T]) *FiniteDynamic[T] {
	checkRows(m.Rows)
	size := 1 << uint(m.Rows)
	buf := make([]T, 2*size+m.Rows+1) // one allocation for Value's scratch
	f := &FiniteDynamic[T]{
		s:       s,
		entries: m,
		elems:   s.Elements(),
		counts:  make(map[colType]int64),
		state:   buf[:size],
		prod:    buf[size : 2*size],
		ways:    buf[2*size:],
		dirty:   true,
	}
	for c := 0; c < m.Cols; c++ {
		f.counts[f.typeOf(c)]++
	}
	return f
}

// typeOf returns the type of column c, resolving each entry by a linear Equal
// scan of the carrier (registered finite carriers are tiny).
func (f *FiniteDynamic[T]) typeOf(c int) colType {
	var t colType
	for r := 0; r < f.entries.Rows; r++ {
		v := f.entries.At(r, c)
		i := 0
		for i < len(f.elems) && !f.s.Equal(f.elems[i], v) {
			i++
		}
		if i == len(f.elems) {
			panic("perm: value outside the finite semiring carrier")
		}
		t[r] = int32(i)
	}
	return t
}

// Update sets entry (row, col) to v; the cost is independent of the number
// of columns (it depends only on k and |S|).
func (f *FiniteDynamic[T]) Update(row, col int, v T) {
	f.entries.checkUpdate(row, col)
	old := f.typeOf(col)
	if f.counts[old]--; f.counts[old] == 0 {
		delete(f.counts, old)
	}
	f.entries.Set(row, col, v)
	f.counts[f.typeOf(col)]++
	f.dirty = true
}

// Value returns the permanent, recomputed from the type counts when dirty.
func (f *FiniteDynamic[T]) Value() T {
	if !f.dirty {
		return f.value
	}
	f.value = f.recompute()
	f.dirty = false
	return f.value
}

// recompute runs the DP over the distinct column types present:
// state[R] sums over the assignments of the rows in R to distinct columns
// among the types processed so far, each type costing O(k·log n + 3^k)
// semiring operations.
func (f *FiniteDynamic[T]) recompute() T {
	s, state, prod, ways := f.s, f.state, f.prod, f.ways
	for i := range state {
		state[i] = s.Zero()
	}
	state[0] = s.One()
	for t, count := range f.counts {
		// ways[j] = count·(count−1)···(count−j+1) ways to give j rows
		// distinct columns of this type.
		ways[0] = s.One()
		for j := 1; j < len(ways); j++ {
			if c := count - int64(j) + 1; c > 0 {
				ways[j] = s.Mul(ways[j-1], semiring.ScalarMul(s, c, s.One()))
			} else {
				ways[j] = s.Zero()
			}
		}
		// prod[R] = ways[|R|]·Π_{r∈R} t[r].
		subsetProducts(s, prod, func(r int) T { return f.elems[t[r]] })
		for set := range prod {
			prod[set] = s.Mul(ways[bits.OnesCount(uint(set))], prod[set])
		}
		// In decreasing order, state[R∖sub] still holds the previous types'
		// value when state[R] is rewritten.
		for set := len(state) - 1; set > 0; set-- {
			acc := state[set]
			for sub := set; sub != 0; sub = (sub - 1) & set {
				acc = s.Add(acc, s.Mul(state[set^sub], prod[sub]))
			}
			state[set] = acc
		}
	}
	return state[len(state)-1]
}
