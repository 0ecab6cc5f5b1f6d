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

// TestSubgraphIsFromEdges wants Inducer.Subgraph to be FromEdges of the
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
		sub, toOrig := NewInducer(g).Subgraph(vertices)
		want := FromEdges(len(vertices), induced)
		return slices.Equal(toOrig, vertices) && sameAsRef(want, refFromEdges(len(vertices), induced)) &&
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
		f := EliminationForest(g)
		return ValidEliminationForest(g, f)
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

func TestConnectedComponentsPartitionVertices(t *testing.T) {
	prop := func(raw []uint8) bool {
		g := graphFromEdgeList(raw, 25)
		comps := g.ConnectedComponents()
		seen := make([]bool, g.N())
		total := 0
		for _, comp := range comps {
			for _, v := range comp {
				if v < 0 || v >= g.N() || seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		if total != g.N() {
			return false
		}
		// Endpoints of every edge lie in the same component.
		compOf := make([]int, g.N())
		for i, comp := range comps {
			for _, v := range comp {
				compOf[v] = i
			}
		}
		for _, e := range g.Edges() {
			if compOf[e[0]] != compOf[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
