package graph

import "slices"

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
// colour subset of size at most p, for the tests that hold the colouring's
// treedepth heuristics.
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
