package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// graphFromEdgeList builds a graph over n vertices from a raw byte slice,
// interpreting consecutive byte pairs as edges; used by testing/quick
// properties.
func graphFromEdgeList(raw []uint8, n int) *Graph {
	g := New(n)
	for i := 0; i+1 < len(raw); i += 2 {
		u, v := int(raw[i])%n, int(raw[i+1])%n
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
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
		g := New(n)
		m := r.Intn(3 * n)
		for i := 0; i < m; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
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
