package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// graphFromEdgeList builds a graph over n vertices from a raw byte slice,
// interpreting consecutive byte pairs as edges; used by testing/quick
// properties.  The pairs may repeat, reversed or not, and may be loops.
func graphFromEdgeList(raw []uint8, n int) *Graph { return FromEdges(n, edgeList(raw, n)) }

func edgeList(raw []uint8, n int) [][2]int {
	var edges [][2]int
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, [2]int{int(raw[i]) % n, int(raw[i+1]) % n})
	}
	return edges
}

// randomEdges draws m random vertex pairs, loops and repeats included.
func randomEdges(r *rand.Rand, n, m int) [][2]int {
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	return edges
}

// refGraph is the reference FromEdges must agree with: adjacency lists grown
// by appending, one edge at a time, with a set of the edges seen so far to
// drop loops and repeats in either orientation.
type refGraph struct {
	adj  [][]int
	seen map[[2]int]bool
	m    int
}

func newRefGraph(n int) *refGraph {
	return &refGraph{adj: make([][]int, n), seen: map[[2]int]bool{}}
}

func (r *refGraph) add(u, v int) {
	key := [2]int{min(u, v), max(u, v)}
	if u == v || r.seen[key] {
		return
	}
	r.seen[key] = true
	r.adj[u] = append(r.adj[u], v)
	r.adj[v] = append(r.adj[v], u)
	r.m++
}

func refFromEdges(n int, edges [][2]int) *refGraph {
	r := newRefGraph(n)
	for _, e := range edges {
		r.add(e[0], e[1])
	}
	return r
}

// sameAsRef reports whether g and r have equal N and M, every vertex's
// neighbours in the same order, and equal HasEdge on every pair.
func sameAsRef(g *Graph, r *refGraph) bool {
	if g.N() != len(r.adj) || g.M() != r.m {
		return false
	}
	for u := range r.adj {
		if !slices.Equal(g.Neighbors(u), r.adj[u]) || g.Degree(u) != len(r.adj[u]) {
			return false
		}
		for v := range r.adj {
			if g.HasEdge(u, v) != r.seen[[2]int{min(u, v), max(u, v)}] {
				return false
			}
		}
	}
	return true
}

// TestFromEdgesMatchesAppender pins the order every colouring, forest and
// Program depends on: FromEdges lists each vertex's neighbours exactly as
// appending the edges one by one, dropping loops and repeats, does.  Twelve
// vertices make repeats, reversed repeats and loops common.
func TestFromEdgesMatchesAppender(t *testing.T) {
	prop := func(raw []uint8) bool {
		edges := edgeList(raw, 12)
		return sameAsRef(FromEdges(12, edges), refFromEdges(12, edges))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSubgraphIsFromEdges wants a ForestBuilder's induced subgraph, which
// its forests are built over, to be FromEdges of the
// induced edge list — {i, j}, i < j, by i and then in the order of vertex
// i's neighbours — and so equal to appending those edges one by one.
func TestSubgraphIsFromEdges(t *testing.T) {
	const n = 16
	prop := func(raw []uint8, pick []uint8) bool {
		edges := edgeList(raw, n)
		g, ref := FromEdges(n, edges), refFromEdges(n, edges)
		pos := make([]int, n)
		var vertices []int
		for _, b := range pick {
			if v := int(b) % n; pos[v] == 0 {
				vertices = append(vertices, v)
				pos[v] = len(vertices)
			}
		}
		var induced [][2]int
		for i, v := range vertices {
			for _, w := range ref.adj[v] {
				if j := pos[w] - 1; j > i {
					induced = append(induced, [2]int{i, j})
				}
			}
		}
		sub := NewForestBuilder(g).induce(vertices)
		want := FromEdges(len(vertices), induced)
		return sameAsRef(want, refFromEdges(len(vertices), induced)) &&
			sameAsRef(sub, refFromEdges(len(vertices), induced))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDegeneracyOrientationProperties(t *testing.T) {
	prop := func(raw []uint8) bool {
		g := graphFromEdgeList(raw, 24)
		_, degeneracy := g.DegeneracyOrder()
		a := augmented(g, 0)
		// Every edge is oriented exactly once, up the order (acyclicity), and
		// out-degrees are bounded by the degeneracy.
		if arcsError(g, a) != "" || len(a.dst) != g.M() {
			return false
		}
		for i := range a.order {
			if len(a.out(i)) > degeneracy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestGreedyColoringProperOnRandomGraphs(t *testing.T) {
	prop := func(raw []uint8) bool {
		g := graphFromEdgeList(raw, 20)
		_, degeneracy := g.DegeneracyOrder()
		c := LowTreedepthColoring(g, 1)
		if !IsProperColoring(g, c) {
			return false
		}
		// Greedy colouring along a reverse degeneracy order uses at most
		// degeneracy+1 colours.
		return c.NumColors <= degeneracy+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEliminationForestValidOnRandomGraphs(t *testing.T) {
	prop := func(raw []uint8) bool {
		g := graphFromEdgeList(raw, 18)
		return ValidEliminationForest(g, eliminationForest(g))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAugmentationIsSupergraphOnRandomGraphs(t *testing.T) {
	prop := func(raw []uint8) bool {
		g := graphFromEdgeList(raw, 16)
		for rounds := 1; rounds <= 3; rounds++ {
			if arcsError(g, augmented(g, rounds)) != "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestLowTreedepthColoringCoversAllVertices(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for round := 0; round < 30; round++ {
		n := r.Intn(40) + 10
		g := FromEdges(n, randomEdges(r, n, r.Intn(3*n)))
		for p := 1; p <= 3; p++ {
			c := LowTreedepthColoring(g, p)
			if len(c.Color) != n {
				t.Fatalf("round %d p=%d: colouring covers %d vertices, want %d", round, p, len(c.Color), n)
			}
			if c.NumColors < 1 {
				t.Fatalf("round %d p=%d: no colours used", round, p)
			}
			for v := 0; v < n; v++ {
				if c.Color[v] < 0 || c.Color[v] >= c.NumColors {
					t.Fatalf("round %d p=%d: colour %d of vertex %d out of range [0,%d)", round, p, c.Color[v], v, c.NumColors)
				}
			}
			// The per-subset statistics must account for every ≤p-subset of
			// colours and report consistent forest depths.
			stats := ColoringQuality(g, c, p)
			if len(stats) == 0 && c.NumColors > 0 {
				t.Fatalf("round %d p=%d: no subset statistics", round, p)
			}
			for _, s := range stats {
				if s.ForestDepth < 0 || s.Vertices < 0 || s.Vertices > n {
					t.Fatalf("round %d p=%d: implausible subset statistics %+v", round, p, s)
				}
			}
		}
	}
}

// TestConnectedComponentsPartitionVertices wants the trees of an elimination
// forest to be the connected components: every vertex in exactly one tree,
// the endpoints of every edge in the same one, and as many trees as a
// union–find over the edges counts components.
func TestConnectedComponentsPartitionVertices(t *testing.T) {
	prop := func(raw []uint8) bool {
		g := graphFromEdgeList(raw, 25)
		f := eliminationForest(g)
		seen := make([]bool, g.N())
		total := 0
		for _, r := range f.Roots() {
			for stack := []int{r}; len(stack) > 0; {
				v := stack[len(stack)-1]
				stack = append(stack[:len(stack)-1], f.Children(v)...)
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		if total != g.N() {
			return false
		}
		for _, e := range g.Edges() {
			if f.Ancestor(e[0], g.N()) != f.Ancestor(e[1], g.N()) {
				return false
			}
		}
		return len(f.Roots()) == componentCount(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func componentCount(g *Graph) int {
	rep := make([]int, g.N())
	for v := range rep {
		rep[v] = v
	}
	var find func(v int) int
	find = func(v int) int {
		if rep[v] != v {
			rep[v] = find(rep[v])
		}
		return rep[v]
	}
	count := g.N()
	for _, e := range g.Edges() {
		if a, b := find(e[0]), find(e[1]); a != b {
			rep[a] = b
			count--
		}
	}
	return count
}

// TestForestBuilderIsReusable runs one builder over vertex subsets that grow
// and shrink and wants every forest equal, parent for parent and child list
// for child list, to a fresh builder's on the same subset, and a valid
// elimination forest of the subgraph: scratch left stale by a larger or a
// smaller call would show as a difference.
func TestForestBuilderIsReusable(t *testing.T) {
	const n = 20
	prop := func(raw []uint8, seed int64) bool {
		g := graphFromEdgeList(raw, n)
		r := rand.New(rand.NewSource(seed))
		b := NewForestBuilder(g)
		for _, k := range []int{5, 14, 20, 2, 0, 9, 20, 1, 17, 6} {
			vertices := r.Perm(n)[:k]
			if r.Intn(2) == 0 {
				slices.Sort(vertices)
			}
			got := b.Forest(vertices)
			want := NewForestBuilder(g).Forest(vertices)
			if !sameForest(got, want) || !ValidEliminationForest(NewForestBuilder(g).induce(vertices), got) {
				t.Logf("k=%d vertices=%v: parents %v, want %v", k, vertices, got.Parent, want.Parent)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sameForest(f, g *Forest) bool {
	if !slices.Equal(f.Parent, g.Parent) || !slices.Equal(f.Depth, g.Depth) || f.MaxDepth != g.MaxDepth ||
		!slices.Equal(f.Roots(), g.Roots()) {
		return false
	}
	for v := range f.Parent {
		if !slices.Equal(f.Children(v), g.Children(v)) {
			return false
		}
	}
	return true
}

// TestColoringIsGreedyOverTheAugmentation wants LowTreedepthColoring, which
// reads the last augmentation round off the one before instead of building
// it, to colour exactly as the greedy pass over augmented(g, p−1) does, and
// to count that round's arcs.
func TestColoringIsGreedyOverTheAugmentation(t *testing.T) {
	prop := func(raw []uint8) bool {
		g := graphFromEdgeList(raw, 16)
		for p := 1; p <= 4; p++ {
			got, want := LowTreedepthColoring(g, p), greedyColoring(augmented(g, p-1))
			if !slices.Equal(got.Color, want.Color) || got.NumColors != want.NumColors || got.AugmentedArcs != want.AugmentedArcs {
				t.Logf("p=%d: %d colours and %d arcs, want %d and %d", p, got.NumColors, got.AugmentedArcs, want.NumColors, want.AugmentedArcs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// greedyColoring colours every vertex, down the order, with the least colour
// none of its out-neighbours has.
func greedyColoring(a *arcs) *Coloring {
	n := len(a.order)
	c := &Coloring{Color: make([]int, n), AugmentedArcs: len(a.dst)}
	byRank := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		used := map[int]bool{}
		for _, w := range a.out(i) {
			used[byRank[w]] = true
		}
		col := 0
		for used[col] {
			col++
		}
		byRank[i], c.Color[a.order[i]] = col, col
		c.NumColors = max(c.NumColors, col+1)
	}
	return c
}
