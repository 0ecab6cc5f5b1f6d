package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func pathGraph(n int) *Graph { return FromEdges(n, pathEdges(n)) }

func pathEdges(n int) [][2]int {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edges
}

func cycleGraph(n int) *Graph {
	edges := pathEdges(n)
	if n > 2 {
		edges = append(edges, [2]int{n - 1, 0})
	}
	return FromEdges(n, edges)
}

func gridGraph(w, h int) *Graph {
	var edges [][2]int
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, [2]int{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, [2]int{id(x, y), id(x, y+1)})
			}
		}
	}
	return FromEdges(w*h, edges)
}

func completeGraph(n int) *Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return FromEdges(n, edges)
}

// randomSparseGraph draws random pairs until m of them are distinct edges.
func randomSparseGraph(n, m int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	ref := newRefGraph(n)
	var edges [][2]int
	for ref.m < m {
		e := [2]int{r.Intn(n), r.Intn(n)}
		ref.add(e[0], e[1])
		edges = append(edges, e)
	}
	return FromEdges(n, edges)
}

func TestBasicOperations(t *testing.T) {
	// A repeat, a reversed repeat and a self-loop are dropped.
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {0, 1}, {2, 1}, {3, 3}})
	if g.N() != 5 || g.M() != 2 {
		t.Fatalf("N, M = %d, %d, want 5, 2", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Errorf("HasEdge(0,1) should hold in both directions")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 3) || g.HasEdge(1, 1) {
		t.Errorf("HasEdge holds on a non-edge or a self-loop")
	}
	if g.Degree(1) != 2 || !slices.Equal(g.Neighbors(1), []int{0, 2}) {
		t.Errorf("neighbours of 1 are %v, want [0 2]", g.Neighbors(1))
	}
	if !slices.Equal(g.Edges(), [][2]int{{0, 1}, {1, 2}}) {
		t.Errorf("Edges() = %v, want [[0 1] [1 2]]", g.Edges())
	}
	if e := FromEdges(0, nil); e.N() != 0 || e.M() != 0 || len(e.Edges()) != 0 {
		t.Errorf("the empty graph has %d vertices and %d edges", e.N(), e.M())
	}
}

// TestConnectedComponents wants one tree per connected component, the
// isolated vertices being roots of their own.
func TestConnectedComponents(t *testing.T) {
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}}) // 5 and 6 isolated
	f := eliminationForest(g)
	if !slices.Equal(f.Roots(), []int{1, 3, 5, 6}) {
		t.Fatalf("roots %v, want [1 3 5 6]: the middles of 0-1-2 and of 3-4, then 5 and 6", f.Roots())
	}
	sizes := map[int]int{}
	for _, r := range f.Roots() {
		sizes[treeSize(f, r)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 2 {
		t.Errorf("unexpected tree size distribution: %v", sizes)
	}
}

func treeSize(f *Forest, v int) int {
	size := 1
	for _, w := range f.Children(v) {
		size += treeSize(f, w)
	}
	return size
}

func TestInducedSubgraph(t *testing.T) {
	g := cycleGraph(6)
	sub := NewForestBuilder(g).induce([]int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("subgraph has %d vertices, want 4", sub.N())
	}
	// Edges 0-1 and 1-2 survive; 4 is isolated in the subgraph.
	if sub.M() != 2 || !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.Degree(3) != 0 {
		t.Errorf("subgraph has edges %v, want 0-1 and 1-2", sub.Edges())
	}
}

// TestForestBuilderAllocations wants a ForestBuilder to allocate nothing once
// a call as large as any later one has grown its scratch.
func TestForestBuilderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	b := NewForestBuilder(gridGraph(50, 40))
	prefix := make([]int, 1000)
	for i := range prefix {
		prefix[i] = 2 * i
	}
	b.Forest(prefix)
	for _, k := range []int{10, 500, 1000} {
		if allocs := testing.AllocsPerRun(5, func() { b.Forest(prefix[:k]) }); allocs != 0 {
			t.Errorf("Forest of %d vertices allocates %.0f objects after a warm-up, want 0", k, allocs)
		}
	}
}

func TestDegeneracy(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path", pathGraph(10), 1},
		{"cycle", cycleGraph(10), 2},
		{"grid5x5", gridGraph(5, 5), 2},
		{"complete5", completeGraph(5), 4},
		{"empty", FromEdges(4, nil), 0},
		{"single", FromEdges(1, nil), 0},
	}
	for _, c := range cases {
		order, d := c.g.DegeneracyOrder()
		if d != c.want {
			t.Errorf("%s: degeneracy = %d, want %d", c.name, d, c.want)
		}
		if len(order) != c.g.N() {
			t.Errorf("%s: order has %d vertices, want %d", c.name, len(order), c.g.N())
		}
		seen := map[int]bool{}
		for _, v := range order {
			if seen[v] {
				t.Errorf("%s: vertex %d repeated in degeneracy order", c.name, v)
			}
			seen[v] = true
		}
	}
}

// TestDegeneracyOrientation checks the orientation every augmentation starts
// from: each edge once, up the order, out-degrees within the degeneracy.
func TestDegeneracyOrientation(t *testing.T) {
	for _, g := range []*Graph{pathGraph(20), cycleGraph(15), gridGraph(6, 7), randomSparseGraph(100, 250, 1)} {
		a := checkArcs(t, g, 0)
		_, d := g.DegeneracyOrder()
		for i := range a.order {
			if len(a.out(i)) > d {
				t.Errorf("out-degree %d exceeds degeneracy %d", len(a.out(i)), d)
			}
		}
		if len(a.dst) != g.M() {
			t.Errorf("orientation has %d arcs, want %d", len(a.dst), g.M())
		}
	}
}

// checkArcs augments g rounds times and checks what every round must keep:
// the order is a permutation, every out-list is duplicate-free and points up
// the order, and every edge of g is still there.
func checkArcs(t *testing.T, g *Graph, rounds int) *arcs {
	t.Helper()
	a := augmented(g, rounds)
	if err := arcsError(g, a); err != "" {
		t.Fatalf("%d rounds: %s", rounds, err)
	}
	return a
}

func arcsError(g *Graph, a *arcs) string {
	rank := make([]int, g.N())
	for v := range rank {
		rank[v] = -1
	}
	for i, v := range a.order {
		rank[v] = i
	}
	if len(a.order) != g.N() || slices.Contains(rank, -1) {
		return fmt.Sprintf("order %v is not a permutation of the vertices", a.order)
	}
	for i := range a.order {
		out := slices.Clone(a.out(i))
		slices.Sort(out)
		if len(slices.Compact(out)) != len(a.out(i)) {
			return fmt.Sprintf("out-list of rank %d repeats a head: %v", i, a.out(i))
		}
		if len(out) > 0 && int(out[0]) <= i {
			return fmt.Sprintf("out-list of rank %d points down the order: %v", i, a.out(i))
		}
	}
	for _, e := range g.Edges() {
		lo, hi := rank[e[0]], rank[e[1]]
		if lo > hi {
			lo, hi = hi, lo
		}
		if !slices.Contains(a.out(lo), int32(hi)) {
			return fmt.Sprintf("edge %v is missing", e)
		}
	}
	return ""
}

func TestForestBasics(t *testing.T) {
	// A forest: 0 is root of {0,1,2,3}, 4 is root of {4,5}.
	parent := []int{0, 0, 1, 1, 4, 4}
	f := NewForest(parent)
	if f.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", f.MaxDepth)
	}
	if !f.IsRoot(0) || !f.IsRoot(4) || f.IsRoot(1) {
		t.Errorf("root detection broken")
	}
	if got := len(f.Roots()); got != 2 {
		t.Errorf("Roots() returned %d roots, want 2", got)
	}
	if f.Ancestor(2, 1) != 1 || f.Ancestor(2, 2) != 0 || f.Ancestor(2, 5) != 0 {
		t.Errorf("Ancestor computation broken")
	}
	if f.AncestorAtDepth(3, 0) != 0 || f.AncestorAtDepth(3, 1) != 1 || f.AncestorAtDepth(3, 2) != 3 {
		t.Errorf("AncestorAtDepth computation broken")
	}
	if f.AncestorAtDepth(3, 5) != -1 {
		t.Errorf("AncestorAtDepth beyond node depth should be -1")
	}
	if !f.IsAncestor(0, 3) || !f.IsAncestor(3, 3) || f.IsAncestor(3, 0) || f.IsAncestor(4, 3) {
		t.Errorf("IsAncestor broken")
	}
	if got := len(f.Children(1)); got != 2 {
		t.Errorf("Children(1) has %d entries, want 2", got)
	}
}

func TestEliminationForest(t *testing.T) {
	cases := []struct {
		name     string
		g        *Graph
		maxDepth int // loose upper bound we expect from the heuristic
	}{
		{"path64", pathGraph(64), 7},
		{"star", starGraph(50), 2},
		{"cycle64", cycleGraph(64), 8},
		{"tree", randomTree(200, 3), 12},
		{"sparse", randomSparseGraph(120, 150, 3), 40},
		{"grid4x4", gridGraph(4, 4), 10},
	}
	for _, c := range cases {
		f := eliminationForest(c.g)
		if !ValidEliminationForest(c.g, f) {
			t.Errorf("%s: invalid elimination forest", c.name)
		}
		if f.MaxDepth > c.maxDepth {
			t.Errorf("%s: elimination forest depth %d exceeds expected bound %d", c.name, f.MaxDepth, c.maxDepth)
		}
	}
}

func starGraph(n int) *Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return FromEdges(n, edges)
}

func randomTree(n int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v, r.Intn(v)})
	}
	return FromEdges(n, edges)
}

func TestGreedyColoringProper(t *testing.T) {
	for _, g := range []*Graph{pathGraph(30), cycleGraph(21), gridGraph(8, 8), completeGraph(6), randomSparseGraph(150, 300, 5)} {
		c := LowTreedepthColoring(g, 1) // no augmentation: greedy along a reverse degeneracy order
		if !IsProperColoring(g, c) {
			t.Errorf("greedy colouring is not proper")
		}
		_, d := g.DegeneracyOrder()
		if c.NumColors > d+1 {
			t.Errorf("greedy colouring uses %d colours, want at most degeneracy+1 = %d", c.NumColors, d+1)
		}
		if len(c.Color) != g.N() {
			t.Errorf("%d vertices coloured, want %d", len(c.Color), g.N())
		}
	}
}

// TestAugmentationIsSupergraph also wants each round to add something to a
// random sparse graph and nothing to K5, which is closed.
func TestAugmentationIsSupergraph(t *testing.T) {
	g := randomSparseGraph(80, 160, 11)
	arcs := g.M()
	for rounds := 1; rounds <= 3; rounds++ {
		a := checkArcs(t, g, rounds)
		if len(a.dst) <= arcs {
			t.Errorf("round %d left %d arcs, had %d", rounds, len(a.dst), arcs)
		}
		arcs = len(a.dst)
	}
	if a := checkArcs(t, completeGraph(5), 2); len(a.dst) != 10 {
		t.Errorf("K5 augmented to %d arcs, want 10", len(a.dst))
	}
	// The leaves of a star precede its hub, so no two arcs share a tail and
	// nothing is added: pairs are joined on the side the orientation bounds.
	if a := checkArcs(t, starGraph(50), 2); len(a.dst) != 49 {
		t.Errorf("K1,49 augmented to %d arcs, want 49", len(a.dst))
	}
}

func TestLowTreedepthColoringQuality(t *testing.T) {
	// For p = 2 on trees, grids and sparse random graphs, the induced
	// subgraphs on any two classes should have small elimination-forest
	// depth.  These are heuristic bounds chosen loosely enough to be stable.
	cases := []struct {
		name  string
		g     *Graph
		p     int
		bound int
	}{
		{"path", pathGraph(100), 2, 3},
		{"tree", randomTree(150, 13), 2, 4},
		{"grid6x6", gridGraph(6, 6), 2, 5},
		{"sparse", randomSparseGraph(100, 140, 17), 2, 8},
	}
	for _, c := range cases {
		col := LowTreedepthColoring(c.g, c.p)
		if !IsProperColoring(c.g, col) {
			t.Errorf("%s: low-treedepth colouring is not proper", c.name)
		}
		depth := MaxForestDepth(c.g, col, c.p)
		if depth > c.bound {
			t.Errorf("%s: max forest depth over %d-subsets is %d, want ≤ %d (colours=%d)",
				c.name, c.p, depth, c.bound, col.NumColors)
		}
	}
}

func TestColoringQualityStats(t *testing.T) {
	g := gridGraph(4, 4)
	col := LowTreedepthColoring(g, 2)
	stats := ColoringQuality(g, col, 2)
	wantSubsets := col.NumColors + col.NumColors*(col.NumColors-1)/2
	if len(stats) != wantSubsets {
		t.Errorf("got %d subset statistics, want %d", len(stats), wantSubsets)
	}
	for _, s := range stats {
		if s.Vertices < 0 || s.Edges < 0 || s.ForestDepth < 0 {
			t.Errorf("negative statistic: %+v", s)
		}
	}
}

func TestEliminationForestCoversAllVertices(t *testing.T) {
	g := randomSparseGraph(500, 900, 23)
	f := eliminationForest(g)
	if f.N() != g.N() {
		t.Fatalf("size mismatch")
	}
	for v := 0; v < f.N(); v++ {
		if f.Depth[v] < 0 {
			t.Errorf("vertex %d has no depth assigned", v)
		}
	}
	if !ValidEliminationForest(g, f) {
		t.Errorf("invalid elimination forest on random sparse graph")
	}
}

// Ancestor returns the ancestor of v exactly i levels above it, clamped at
// the root (parent^i with the paper's convention parent(root) = root).
func (f *Forest) Ancestor(v, i int) int {
	for ; i > 0; i-- {
		p := f.Parent[v]
		if p == v {
			return v
		}
		v = p
	}
	return v
}

// AncestorAtDepth returns the ancestor of v at the given depth, or -1 when
// depth exceeds the depth of v.
func (f *Forest) AncestorAtDepth(v, depth int) int {
	if depth > f.Depth[v] {
		return -1
	}
	return f.Ancestor(v, f.Depth[v]-depth)
}

// IsAncestor reports whether a is an ancestor of v (including a == v).
func (f *Forest) IsAncestor(a, v int) bool {
	if f.Depth[a] > f.Depth[v] {
		return false
	}
	return f.AncestorAtDepth(v, f.Depth[a]) == a
}

// IsProperColoring reports whether c is a proper colouring of g.
func IsProperColoring(g *Graph, c *Coloring) bool {
	for _, e := range g.Edges() {
		if c.Color[e[0]] == c.Color[e[1]] {
			return false
		}
	}
	return true
}

// eliminationForest returns a fresh builder's forest of all of g.
func eliminationForest(g *Graph) *Forest {
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	return NewForestBuilder(g).Forest(all)
}

// ValidEliminationForest reports whether f is a valid elimination forest for
// g: every edge of g must connect a vertex with one of its ancestors.
func ValidEliminationForest(g *Graph, f *Forest) bool {
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if !f.IsAncestor(u, v) && !f.IsAncestor(v, u) {
			return false
		}
	}
	return true
}
