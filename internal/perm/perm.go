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
//     update (the inclusion–exclusion circuit of Lemma 15, Corollary 17).
//   - FiniteDynamic maintains a permanent over a finite semiring in time
//     independent of n per update (the column-type counting argument of
//     Lemma 18, Corollary 20).
package perm

import (
	"fmt"
	"math/big"

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

// Column returns the c-th column as a fresh slice.
func (m *Matrix[T]) Column(c int) []T {
	col := make([]T, m.Rows)
	for r := 0; r < m.Rows; r++ {
		col[r] = m.At(r, c)
	}
	return col
}

// Clone returns a deep copy of the matrix.
func (m *Matrix[T]) Clone() *Matrix[T] {
	return &Matrix[T]{Rows: m.Rows, Cols: m.Cols, data: append([]T(nil), m.data...)}
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

// PermColumns computes the permanent of a matrix given as a sequence of
// columns (each of length k), without materialising a Matrix.  It is used by
// the circuit evaluator for permanent gates.
func PermColumns[T any](s semiring.Semiring[T], k int, columns func(c int) []T, n int) T {
	checkRows(k)
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
	for c := 0; c < n; c++ {
		col := columns(c)
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
				next[sub|bit] = s.Add(next[sub|bit], s.Mul(state[sub], col[r]))
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
	// At returns the current entry (row, col).
	At(row, col int) T
	// Dims returns the matrix dimensions.
	Dims() (rows, cols int)
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
	// entries holds the current matrix for At.
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
	if d.size < 1 {
		d.size = 1
	}
	d.tree = make([][]T, 2*d.size)
	for i := range d.tree {
		d.tree[i] = nil
	}
	// Leaves.
	for c := 0; c < d.size; c++ {
		d.tree[d.size+c] = d.leafVector(c)
	}
	// Internal nodes.
	for i := d.size - 1; i >= 1; i-- {
		d.tree[i] = d.merge(d.tree[2*i], d.tree[2*i+1])
	}
	return d
}

// leafVector returns the subset vector of a single column: the empty subset
// has value 1, singletons {r} have value M[r,c], larger subsets are 0
// (a single column cannot match two rows).
func (d *Dynamic[T]) leafVector(c int) []T {
	vec := make([]T, d.vecLen)
	d.leafVectorInto(vec, c)
	return vec
}

// leafVectorInto writes the subset vector of column c into vec, reusing the
// slice so that updates allocate nothing.
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

// merge combines the subset vectors of two adjacent column ranges:
// out[S] = Σ_{T ⊆ S} left[T] · right[S\T].
func (d *Dynamic[T]) merge(left, right []T) []T {
	out := make([]T, d.vecLen)
	d.mergeInto(out, left, right)
	return out
}

// mergeInto writes the merge of left and right into out; out must not alias
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
	if row < 0 || row >= d.rows || col < 0 || col >= d.cols {
		panic("perm: update out of range")
	}
	d.entries.Set(row, col, v)
	i := d.size + col
	d.leafVectorInto(d.tree[i], col)
	for i >= 2 {
		i /= 2
		d.mergeInto(d.tree[i], d.tree[2*i], d.tree[2*i+1])
	}
}

// At returns the current entry (row, col).
func (d *Dynamic[T]) At(row, col int) T { return d.entries.At(row, col) }

// Dims returns the matrix dimensions.
func (d *Dynamic[T]) Dims() (int, int) { return d.rows, d.cols }

// ---------------------------------------------------------------------------
// Rings: inclusion–exclusion over set partitions (Lemma 15, Corollary 17)
// ---------------------------------------------------------------------------

// RingDynamic maintains the permanent of a k×n matrix over a ring with
// O(2^k) ring operations per update.  It maintains, for every non-empty
// subset B of rows, the column sum S_B = Σ_c Π_{r∈B} M[r,c]; the permanent
// is recovered by Möbius inversion over set partitions:
//
//	perm(M) = Σ_{partitions π of the rows} Π_{B∈π} (−1)^{|B|−1}(|B|−1)!·S_B.
//
// For k = 2 this is the familiar Σa·Σb − Σab identity shown in the paper.
type RingDynamic[T any] struct {
	s       semiring.Ring[T]
	rows    int
	cols    int
	sums    []T // indexed by subset (non-empty)
	entries *Matrix[T]
	parts   [][]int // set partitions of [rows], each as a list of subset masks
	coeffs  []*big.Int
	value   T
	dirty   bool
}

// NewRingDynamic builds the structure in O(2^k·n) ring operations.  It adopts
// m as its entry store: the caller must not use m afterwards.
func NewRingDynamic[T any](s semiring.Ring[T], m *Matrix[T]) *RingDynamic[T] {
	checkRows(m.Rows)
	r := &RingDynamic[T]{
		s:       s,
		rows:    m.Rows,
		cols:    m.Cols,
		entries: m,
	}
	size := 1 << uint(m.Rows)
	r.sums = make([]T, size)
	for i := range r.sums {
		r.sums[i] = s.Zero()
	}
	for c := 0; c < m.Cols; c++ {
		r.addColumn(c, false)
	}
	r.parts, r.coeffs = setPartitions(m.Rows)
	r.dirty = true
	return r
}

// addColumn adds (or subtracts) the contribution of column c to every
// subset sum.
func (r *RingDynamic[T]) addColumn(c int, subtract bool) {
	size := 1 << uint(r.rows)
	// prod[S] = Π_{r∈S} M[r,c]
	prod := make([]T, size)
	prod[0] = r.s.One()
	for set := 1; set < size; set++ {
		low := set & (-set)
		rowIdx := trailingZeros(low)
		prod[set] = r.s.Mul(prod[set^low], r.entries.At(rowIdx, c))
	}
	for set := 1; set < size; set++ {
		if subtract {
			r.sums[set] = r.s.Add(r.sums[set], r.s.Neg(prod[set]))
		} else {
			r.sums[set] = r.s.Add(r.sums[set], prod[set])
		}
	}
}

func trailingZeros(x int) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// Update sets entry (row, col) to v in O(2^rows) ring operations.
func (r *RingDynamic[T]) Update(row, col int, v T) {
	if row < 0 || row >= r.rows || col < 0 || col >= r.cols {
		panic("perm: update out of range")
	}
	r.addColumn(col, true)
	r.entries.Set(row, col, v)
	r.addColumn(col, false)
	r.dirty = true
}

// Value returns the permanent, recomputed from the subset sums when needed
// (O(Bell(k)·k) ring operations, independent of n).
func (r *RingDynamic[T]) Value() T {
	if !r.dirty {
		return r.value
	}
	if r.rows == 0 {
		r.value = r.s.One()
		r.dirty = false
		return r.value
	}
	total := r.s.Zero()
	for i, part := range r.parts {
		term := r.s.One()
		for _, block := range part {
			term = r.s.Mul(term, r.sums[block])
		}
		coeff := r.coeffs[i]
		scaled := semiring.ScalarMulBig(r.s, new(big.Int).Abs(coeff), term)
		if coeff.Sign() < 0 {
			scaled = r.s.Neg(scaled)
		}
		total = r.s.Add(total, scaled)
	}
	r.value = total
	r.dirty = false
	return total
}

// At returns the current entry (row, col).
func (r *RingDynamic[T]) At(row, col int) T { return r.entries.At(row, col) }

// Dims returns the matrix dimensions.
func (r *RingDynamic[T]) Dims() (int, int) { return r.rows, r.cols }

// setPartitions enumerates all set partitions of {0..k-1} together with the
// Möbius coefficient Π_B (−1)^{|B|−1}(|B|−1)! of each partition.
func setPartitions(k int) ([][]int, []*big.Int) {
	var parts [][]int
	var coeffs []*big.Int
	blocks := []int{}
	var rec func(elem int)
	rec = func(elem int) {
		if elem == k {
			part := append([]int(nil), blocks...)
			coeff := big.NewInt(1)
			for _, b := range part {
				size := popcount(b)
				f := factorial(size - 1)
				if (size-1)%2 == 1 {
					f.Neg(f)
				}
				coeff.Mul(coeff, f)
			}
			parts = append(parts, part)
			coeffs = append(coeffs, coeff)
			return
		}
		// Add elem to an existing block or start a new block.
		for i := range blocks {
			blocks[i] |= 1 << uint(elem)
			rec(elem + 1)
			blocks[i] &^= 1 << uint(elem)
		}
		blocks = append(blocks, 1<<uint(elem))
		rec(elem + 1)
		blocks = blocks[:len(blocks)-1]
	}
	if k == 0 {
		return [][]int{{}}, []*big.Int{big.NewInt(1)}
	}
	rec(0)
	return parts, coeffs
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

// ---------------------------------------------------------------------------
// Finite semirings: column-type counting (Lemma 18, Corollary 20)
// ---------------------------------------------------------------------------

// FiniteDynamic maintains the permanent of a k×n matrix over a finite
// semiring with update time independent of n.  The permanent only depends on
// how many columns realise each possible column type (a vector in S^k), so
// the structure maintains these counts and recomputes the permanent by
// dynamic programming over the distinct types present.
type FiniteDynamic[T any] struct {
	s       semiring.Semiring[T]
	rows    int
	cols    int
	entries *Matrix[T]
	// elements of the carrier and a lookup from formatted value to index.
	elems []T
	// typeCounts maps an encoded column type to the number of columns of
	// that type; typeVecs stores the decoded type vectors.
	typeCounts map[string]*big.Int
	typeVecs   map[string][]T
	value      T
	dirty      bool
}

// NewFiniteDynamic builds the structure in O(n·k) time plus a
// data-independent DP.  It adopts m as its entry store: the caller must not
// use m afterwards.
func NewFiniteDynamic[T any](s semiring.Finite[T], m *Matrix[T]) *FiniteDynamic[T] {
	checkRows(m.Rows)
	f := &FiniteDynamic[T]{
		s:          s,
		rows:       m.Rows,
		cols:       m.Cols,
		entries:    m,
		elems:      s.Elements(),
		typeCounts: make(map[string]*big.Int),
		typeVecs:   make(map[string][]T),
	}
	for c := 0; c < m.Cols; c++ {
		f.addColumn(c, 1)
	}
	f.dirty = true
	return f
}

func (f *FiniteDynamic[T]) typeKey(col []T) string {
	key := ""
	for _, v := range col {
		key += fmt.Sprintf("%d,", f.elemIndex(v))
	}
	return key
}

func (f *FiniteDynamic[T]) elemIndex(v T) int {
	for i, e := range f.elems {
		if f.s.Equal(e, v) {
			return i
		}
	}
	panic("perm: value outside the finite semiring carrier")
}

func (f *FiniteDynamic[T]) addColumn(c int, delta int64) {
	col := f.entries.Column(c)
	key := f.typeKey(col)
	cnt, ok := f.typeCounts[key]
	if !ok {
		cnt = new(big.Int)
		f.typeCounts[key] = cnt
		f.typeVecs[key] = col
	}
	cnt.Add(cnt, big.NewInt(delta))
	if cnt.Sign() == 0 {
		delete(f.typeCounts, key)
		delete(f.typeVecs, key)
	}
}

// Update sets entry (row, col) to v; the cost is independent of the number
// of columns (it depends only on |S|^k and 2^k).
func (f *FiniteDynamic[T]) Update(row, col int, v T) {
	if row < 0 || row >= f.rows || col < 0 || col >= f.cols {
		panic("perm: update out of range")
	}
	f.addColumn(col, -1)
	f.entries.Set(row, col, v)
	f.addColumn(col, 1)
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

func (f *FiniteDynamic[T]) recompute() T {
	if f.rows == 0 {
		return f.s.One()
	}
	// DP over the distinct column types: state[S] = sum over assignments of
	// the rows in S to distinct columns among the types processed so far.
	size := 1 << uint(f.rows)
	state := make([]T, size)
	for i := range state {
		state[i] = f.s.Zero()
	}
	state[0] = f.s.One()
	for key, count := range f.typeCounts {
		colType := f.typeVecs[key]
		next := make([]T, size)
		copy(next, state)
		// For each subset R of rows assigned to columns of this type, the
		// rows pick distinct columns: count·(count−1)···(count−|R|+1) ways,
		// each contributing Π_{r∈R} colType[r].
		for set := 0; set < size; set++ {
			if semiring.IsZero(f.s, state[set]) {
				continue
			}
			free := (size - 1) &^ set
			for sub := free; sub != 0; sub = (sub - 1) & free {
				j := popcount(sub)
				ways := fallingFactorial(count, j)
				if ways.Sign() == 0 {
					continue
				}
				prod := f.s.One()
				for r := 0; r < f.rows; r++ {
					if sub&(1<<uint(r)) != 0 {
						prod = f.s.Mul(prod, colType[r])
					}
				}
				contrib := semiring.ScalarMulBig(f.s, ways, f.s.Mul(state[set], prod))
				next[set|sub] = f.s.Add(next[set|sub], contrib)
			}
		}
		state = next
	}
	return state[size-1]
}

func fallingFactorial(n *big.Int, k int) *big.Int {
	result := big.NewInt(1)
	cur := new(big.Int).Set(n)
	for i := 0; i < k; i++ {
		if cur.Sign() <= 0 {
			return new(big.Int)
		}
		result.Mul(result, cur)
		cur = new(big.Int).Sub(cur, big.NewInt(1))
	}
	return result
}

// At returns the current entry (row, col).
func (f *FiniteDynamic[T]) At(row, col int) T { return f.entries.At(row, col) }

// Dims returns the matrix dimensions.
func (f *FiniteDynamic[T]) Dims() (int, int) { return f.rows, f.cols }
