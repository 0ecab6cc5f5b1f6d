package graph

import (
	"math"
	"math/bits"
)

// Coloring is a (not necessarily proper) vertex colouring: Color[v] is the
// colour of vertex v, colours are 0..NumColors-1.
type Coloring struct {
	Color     []int
	NumColors int
}

// arcs is an acyclic orientation of a graph, held in rank space: vertex i is
// the i-th vertex of one degeneracy order of the input graph, and every arc
// points up that order, so each edge lives exactly once, in the out-list of
// its lower-rank endpoint.  The lists are flat (CSR): the out-neighbours of i
// are dst[off[i]:off[i+1]], each greater than i.
type arcs struct {
	order []int // order[i] is the input vertex of rank i
	off   []int32
	dst   []int32
}

func (a *arcs) out(i int) []int32 { return a.dst[a.off[i]:a.off[i+1]] }

// orient directs every edge of g from its earlier to its later endpoint in a
// degeneracy order of g, which bounds every out-degree by the degeneracy.
func orient(g *Graph) *arcs {
	order, _ := g.DegeneracyOrder()
	rank := make([]int32, g.N())
	for i, v := range order {
		rank[v] = int32(i)
	}
	a := &arcs{order: order, off: make([]int32, g.N()+1), dst: make([]int32, 0, g.M())}
	for i, v := range order {
		for _, w := range g.Neighbors(v) {
			if r := rank[w]; r > int32(i) {
				a.dst = append(a.dst, r)
			}
		}
		a.off[i+1] = int32(len(a.dst))
	}
	return a
}

// transpose returns the in-lists of a in the same flat layout: the tails of
// the arcs into i, in increasing order.  off[i] first counts up to the end of
// i's list, and placing the tails from the highest down walks it back to the
// list's start.
func (a *arcs) transpose() (off, src []int32) {
	n := len(a.order)
	off = make([]int32, n+1)
	for _, w := range a.dst {
		off[w]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	src = make([]int32, len(a.dst))
	for u := n - 1; u >= 0; u-- {
		for _, w := range a.out(u) {
			off[w]--
			src[off[w]] = int32(u)
		}
	}
	return off, src
}

// augment applies one round of transitive–fraternal augmentation: for every
// pair of arcs u→w→x the transitive arc u→x, and for every pair v→u, v→w out
// of one vertex — the side whose degree the orientation bounds, so a vertex
// of out-degree d contributes at most d² pairs — the fraternal edge {u, w},
// directed up the order like every other arc.  The order never changes, so
// the orientation stays acyclic round after round and nothing is re-derived.
//
// The new out-list of u holds u's out-neighbours, the heads of the arcs out
// of them, and the out-neighbours above u of u's in-neighbours, each once:
// stamp[x] == u+1 marks the heads appended for u.  The new lists share one
// array, sized once by a bound: each arc, each path u→w→x and each pair of
// arcs out of one vertex adds at most one head.
func (a *arcs) augment() {
	n := len(a.order)
	inOff, in := a.transpose()
	size := 0
	for w := 0; w < n; w++ {
		d, into := int(a.off[w+1]-a.off[w]), int(inOff[w+1]-inOff[w])
		size += into*(1+d) + d*(d-1)/2
	}
	if size > math.MaxInt32 {
		panic("graph: augmentation exceeds 2³¹ arcs")
	}
	stamp := make([]int32, n)
	off := make([]int32, n+1)
	dst := make([]int32, 0, size)
	for u := 0; u < n; u++ {
		mark := int32(u) + 1
		for _, w := range a.out(u) {
			if stamp[w] != mark {
				stamp[w] = mark
				dst = append(dst, w)
			}
			for _, x := range a.out(int(w)) {
				if stamp[x] != mark {
					stamp[x] = mark
					dst = append(dst, x)
				}
			}
		}
		for _, v := range in[inOff[u]:inOff[u+1]] {
			for _, w := range a.out(int(v)) {
				if int(w) > u && stamp[w] != mark {
					stamp[w] = mark
					dst = append(dst, w)
				}
			}
		}
		off[u+1] = int32(len(dst))
	}
	a.off, a.dst = off, dst
}

// augmented returns g oriented by degeneracy and augmented rounds times.
func augmented(g *Graph, rounds int) *arcs {
	a := orient(g)
	for i := 0; i < rounds; i++ {
		a.augment()
	}
	return a
}

// LowTreedepthColoring computes a colouring of g intended to have the
// low-treedepth property for parameter p: the subgraph induced by any set of
// at most p colour classes should have small treedepth.
//
// The construction applies p-1 rounds of transitive–fraternal augmentation
// along one degeneracy orientation of g and properly colours the result
// greedily down that order (Nešetřil–Ossona de Mendez; Proposition 1 of the
// paper): when a vertex's turn comes, the neighbours already coloured are
// exactly its out-neighbours, so the colours used are at most one more than
// the largest augmented out-degree, which stays bounded on a graph from a
// bounded-expansion class.  For p = 1 this is a plain proper colouring (every
// single class is an independent set, treedepth 1); for p = 2 the colouring
// is a star colouring (every two classes induce a star forest, treedepth ≤ 2)
// whenever the augmentation closure is reached.  The decomposition identity
// used by the compiler is exact for any colouring, so colouring quality
// affects only performance, never correctness.
//
// The last round is never built.  Each vertex v keeps a colour summary
// acc(v), a bitset of W words: a vertex's colour is set in its own summary
// and, for p ≥ 2, in those of its in-neighbours.  Vertices are coloured down
// the order, so when i's turn comes acc(w) for an out-neighbour w holds the
// colours of w and of every head of an arc out of w (the last round's
// transitive arcs out of i), and acc(v) for an in-neighbour v holds the
// colours of v's out-neighbours above i (its fraternal arcs).  i takes the
// least colour none of these summaries holds, which costs W words per arc of
// the last round built and no walk over arcs of arcs; W grows by one word
// whenever the colours outgrow it.
func LowTreedepthColoring(g *Graph, p int) *Coloring {
	n := g.N()
	a := augmented(g, max(p-2, 0))
	var inOff, in []int32
	if p >= 2 {
		inOff, in = a.transpose()
	}
	c := &Coloring{Color: make([]int, n)}
	words := 1
	acc := make([]uint64, n) // acc[v*words:(v+1)*words] is v's colour summary
	used := make([]uint64, words)
	for i := n - 1; i >= 0; i-- {
		clear(used)
		for _, w := range a.out(i) {
			orRow(used, acc[int(w)*words:])
		}
		var into []int32
		if p >= 2 {
			into = in[inOff[i]:inOff[i+1]]
			for _, v := range into {
				orRow(used, acc[int(v)*words:])
			}
		}
		col := 64 * words
		for k, x := range used {
			if x != ^uint64(0) {
				col = 64*k + bits.TrailingZeros64(^x)
				break
			}
		}
		if col == 64*words {
			acc = restride(acc, n, words)
			words++
			used = make([]uint64, words)
		}
		k, bit := col>>6, uint64(1)<<(col&63)
		acc[i*words+k] |= bit
		for _, v := range into {
			acc[int(v)*words+k] |= bit
		}
		c.Color[a.order[i]] = col
		c.NumColors = max(c.NumColors, col+1)
	}
	return c
}

// orRow ORs the first len(dst) words of src into dst.
func orRow(dst, src []uint64) {
	src = src[:len(dst)]
	for k, x := range src {
		dst[k] |= x
	}
}

// restride copies n rows of words words each into rows one word wider.
func restride(acc []uint64, n, words int) []uint64 {
	wide := make([]uint64, n*(words+1))
	for v := 0; v < n; v++ {
		copy(wide[v*(words+1):], acc[v*words:(v+1)*words])
	}
	return wide
}
