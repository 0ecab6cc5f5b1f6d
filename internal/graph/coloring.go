package graph

import "slices"

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
	off   []int
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
	a := &arcs{order: order, off: make([]int, g.N()+1), dst: make([]int32, 0, g.M())}
	for i, v := range order {
		for _, w := range g.Neighbors(v) {
			if r := rank[w]; r > int32(i) {
				a.dst = append(a.dst, r)
			}
		}
		a.off[i+1] = len(a.dst)
	}
	return a
}

// transpose returns the in-lists of a in the same flat layout: the tails of
// the arcs into i, in increasing order.
func (a *arcs) transpose() (off []int, src []int32) {
	n := len(a.order)
	off = make([]int, n+1)
	for _, w := range a.dst {
		off[w+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	src = make([]int32, len(a.dst))
	next := slices.Clone(off[:n])
	for u := 0; u < n; u++ {
		for _, w := range a.out(u) {
			src[next[w]] = int32(u)
			next[w]++
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
// stamp[x] == u+1 marks the heads appended for u.
func (a *arcs) augment() {
	n := len(a.order)
	stamp := make([]int32, n)
	inOff, in := a.transpose()
	off := make([]int, n+1)
	dst := make([]int32, 0, 2*len(a.dst))
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
		off[u+1] = len(dst)
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
// The last round is never built: the greedy pass reads each vertex's
// out-neighbours in it off the round before and marks their colours, so a
// neighbour reached twice marks its colour twice, which changes nothing.
func LowTreedepthColoring(g *Graph, p int) *Coloring {
	n := g.N()
	a := augmented(g, max(p-2, 0))
	var inOff []int
	var in []int32
	if p >= 2 {
		inOff, in = a.transpose()
	}
	c := &Coloring{Color: make([]int, n)}
	byRank := make([]int32, n)
	used := make([]int32, n+1) // used[c] == i+1 iff an out-neighbour of i has colour c
	for i := n - 1; i >= 0; i-- {
		mark := int32(i) + 1
		for _, w := range a.out(i) {
			used[byRank[w]] = mark
			if p >= 2 { // the last round's transitive arcs
				for _, x := range a.out(int(w)) {
					used[byRank[x]] = mark
				}
			}
		}
		if p >= 2 { // and its fraternal ones
			for _, v := range in[inOff[i]:inOff[i+1]] {
				for _, w := range a.out(int(v)) {
					if int(w) > i {
						used[byRank[w]] = mark
					}
				}
			}
		}
		col := 0
		for used[col] == mark {
			col++
		}
		byRank[i] = int32(col)
		c.Color[a.order[i]] = col
		c.NumColors = max(c.NumColors, col+1)
	}
	return c
}

// SubsetStatistics describes the treedepth quality of a colouring for a
// particular colour subset.
type SubsetStatistics struct {
	// Colors is the colour subset.
	Colors []int
	// Vertices is the number of vertices in the induced subgraph.
	Vertices int
	// Edges is the number of edges in the induced subgraph.
	Edges int
	// ForestDepth is the depth of the heuristic elimination forest of the
	// induced subgraph, roots at depth 0: one less than its number of levels,
	// which bounds the subgraph's treedepth from above.
	ForestDepth int
}

// ColoringQuality computes elimination-forest depth statistics for every
// colour subset of size at most p.  It is used by experiment E9 and by
// tests validating the colouring heuristics.
func ColoringQuality(g *Graph, c *Coloring, p int) []SubsetStatistics {
	classes := make([][]int, c.NumColors)
	for v, col := range c.Color {
		classes[col] = append(classes[col], v)
	}
	b := NewForestBuilder(g)
	var vertices []int
	var stats []SubsetStatistics
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) > 0 {
			vertices = vertices[:0]
			for _, col := range chosen {
				vertices = append(vertices, classes[col]...)
			}
			slices.Sort(vertices)
			f := b.Forest(vertices)
			stats = append(stats, SubsetStatistics{
				Colors:      append([]int(nil), chosen...),
				Vertices:    len(vertices),
				Edges:       b.sub.M(),
				ForestDepth: f.MaxDepth,
			})
		}
		if len(chosen) == p {
			return
		}
		for col := start; col < c.NumColors; col++ {
			rec(col+1, append(chosen, col))
		}
	}
	rec(0, nil)
	return stats
}

// MaxForestDepth returns the maximum elimination-forest depth over all
// colour subsets of size at most p, a practical proxy for the treedepth
// guarantee of Proposition 1.
func MaxForestDepth(g *Graph, c *Coloring, p int) int {
	max := 0
	for _, s := range ColoringQuality(g, c, p) {
		if s.ForestDepth > max {
			max = s.ForestDepth
		}
	}
	return max
}
