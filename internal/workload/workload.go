// Package workload generates the synthetic sparse databases used by the
// examples and the benchmark harness.
//
// The generators produce exactly the graph classes the paper names as
// canonical bounded-expansion classes: bounded-degree random graphs, planar
// grids, forests, and preferential-attachment graphs of bounded degeneracy.
package workload

import (
	"math/rand"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// GraphSignature is the default signature used by the generators: a binary
// edge relation E, a unary predicate S (a marked subset), a binary weight w
// on edges and a unary weight u on vertices.
func GraphSignature() *structure.Signature {
	return structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}},
	)
}

// Database is a generated structure together with integer weights (which
// callers may convert into any semiring).
type Database struct {
	A *structure.Structure
	// EdgeWeight holds w(x, y) for every edge tuple (x, y) ∈ E.
	EdgeWeight map[[2]structure.Element]int64
	// VertexWeight holds u(x) for every vertex.
	VertexWeight []int64
}

// Weights materialises the integer weights as a weight assignment over the
// naturals.
func (d *Database) Weights() *structure.Weights[int64] {
	return WeightsIn(d, func(v int64) int64 { return v })
}

// WeightsIn converts the integer weights into an arbitrary semiring through
// the supplied embedding of small naturals.
func WeightsIn[T any](d *Database, embed func(int64) T) *structure.Weights[T] {
	w := structure.NewWeights[T]()
	for _, t := range d.A.Tuples("E") {
		w.Set("w", t, embed(d.EdgeWeight[[2]structure.Element(t)]))
	}
	for v := 0; v < d.A.N; v++ {
		w.Set("u", structure.Tuple{v}, embed(d.VertexWeight[v]))
	}
	return w
}

// MinPlusWeights converts the integer weights into the min-plus semiring.
func (d *Database) MinPlusWeights() *structure.Weights[semiring.Ext] {
	return WeightsIn(d, func(v int64) semiring.Ext { return semiring.Fin(v) })
}

func newDatabase(a *structure.Structure, r *rand.Rand, maxWeight int64) *Database {
	d := &Database{A: a, EdgeWeight: map[[2]structure.Element]int64{}, VertexWeight: make([]int64, a.N)}
	for _, t := range a.Tuples("E") {
		d.EdgeWeight[[2]structure.Element(t)] = r.Int63n(maxWeight) + 1
	}
	for v := 0; v < a.N; v++ {
		d.VertexWeight[v] = r.Int63n(maxWeight) + 1
	}
	return d
}

func markSubset(b *structure.Builder, n int, r *rand.Rand, fraction float64) {
	for v := 0; v < n; v++ {
		if r.Float64() < fraction {
			b.MustAddTuple("S", v)
		}
	}
}

// BoundedDegree generates a random directed graph in which every vertex has
// out-degree at most d and the underlying undirected graph has maximum
// degree O(d): a canonical bounded-expansion (indeed bounded-degree) class.
// A fraction of directed triangles is planted so that triangle queries have
// non-trivial answers.
func BoundedDegree(n, d int, seed int64) *Database {
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(GraphSignature(), n)
	for v := 0; v < n; v++ {
		deg := r.Intn(d) + 1
		for i := 0; i < deg; i++ {
			u := r.Intn(n)
			if u != v {
				b.MustAddTuple("E", v, u)
			}
		}
	}
	// Plant directed triangles on consecutive vertex triples.
	for v := 0; v+2 < n; v += 7 {
		b.MustAddTuple("E", v, v+1)
		b.MustAddTuple("E", v+1, v+2)
		b.MustAddTuple("E", v+2, v)
	}
	markSubset(b, n, r, 0.4)
	return newDatabase(b.Build(), r, 8)
}

// Grid generates the directed w×h grid graph (each vertex points to its
// right and down neighbours, and every 2×2 cell gets one diagonal so that
// triangles exist); grids are planar, hence of bounded expansion.
func Grid(w, h int, seed int64) *Database {
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(GraphSignature(), w*h)
	grid(b, w, h)
	markSubset(b, w*h, r, 0.3)
	return newDatabase(b.Build(), r, 8)
}

// grid adds the edges of the directed w×h grid to b.
func grid(b *structure.Builder, w, h int) {
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.MustAddTuple("E", id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.MustAddTuple("E", id(x, y), id(x, y+1))
			}
			if x+1 < w && y+1 < h {
				// Diagonal closing a directed triangle.
				b.MustAddTuple("E", id(x+1, y+1), id(x, y))
			}
		}
	}
}

// Forest generates a random rooted forest with the given branching factor,
// oriented from children to parents; forests have treedepth O(depth) and are
// the base case of the paper's compilation.
func Forest(n, branching int, seed int64) *Database {
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(GraphSignature(), n)
	for v := 1; v < n; v++ {
		parent := v - 1 - r.Intn(min(v, branching))
		b.MustAddTuple("E", v, parent)
	}
	markSubset(b, n, r, 0.5)
	return newDatabase(b.Build(), r, 8)
}

// PreferentialAttachment generates a directed graph where each new vertex
// attaches to `attach` earlier vertices chosen preferentially; the
// out-degree is bounded by `attach`, so the degeneracy is bounded and the
// class has bounded expansion even though in-degrees are skewed.
func PreferentialAttachment(n, attach int, seed int64) *Database {
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(GraphSignature(), n)
	var targets []int
	for v := 1; v < n; v++ {
		for i := 0; i < attach; i++ {
			var u int
			if len(targets) == 0 || r.Intn(2) == 0 {
				u = r.Intn(v)
			} else {
				u = targets[r.Intn(len(targets))]
			}
			if u != v {
				b.MustAddTuple("E", v, u)
				targets = append(targets, u, v)
			}
		}
	}
	markSubset(b, n, r, 0.3)
	return newDatabase(b.Build(), r, 8)
}

// NestedSignature is the signature of the nested-aggregation workload: the
// graph signature extended with a unary relation V that holds every vertex,
// the trivial guard that per-vertex guarded connectives (Section 7)
// aggregate under.
func NestedSignature() *structure.Signature {
	return structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}, {Name: "V", Arity: 1}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}},
	)
}

// NestedAgg generates a bounded-degree random graph over NestedSignature for
// nested-aggregation queries: V(x) holds for every vertex, S marks a random
// subset, and edges/vertices carry small random weights.  The tuple count is
// about n·(d/2 + 2), so n = 400000 at the default degree already exceeds 10⁶
// tuples.
func NestedAgg(n, d int, seed int64) *Database {
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(NestedSignature(), n)
	for v := 0; v < n; v++ {
		deg := r.Intn(d) + 1
		for i := 0; i < deg; i++ {
			if u := r.Intn(n); u != v {
				b.MustAddTuple("E", v, u)
			}
		}
		b.MustAddTuple("V", v)
	}
	markSubset(b, n, r, 0.4)
	return newDatabase(b.Build(), r, 8)
}

// SearchSignature is the signature of the local-search workload: a symmetric
// edge relation E plus the initially-empty unary solution predicates S
// (selected), B (blocked) and D (dominated) that local-search drivers update
// dynamically (S/B drive maximal independent set, S/D minimal dominating
// set).
func SearchSignature() *structure.Signature {
	return structure.MustSignature(
		[]structure.RelSymbol{
			{Name: "E", Arity: 2},
			{Name: "S", Arity: 1},
			{Name: "B", Arity: 1},
			{Name: "D", Arity: 1},
		},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}},
	)
}

// Search generates an undirected bounded-degree random graph over
// SearchSignature (every edge is stored in both directions; the solution
// predicates start empty).  The tuple count is about n·d edge tuples, so
// n = 350000 at the default degree exceeds 10⁶ tuples.
func Search(n, d int, seed int64) *Database {
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(SearchSignature(), n)
	for v := 0; v < n; v++ {
		deg := r.Intn(d) + 1
		for i := 0; i < deg; i++ {
			u := r.Intn(n)
			if u != v { // a duplicate pair is ignored, both ways
				b.MustAddTuple("E", v, u)
				b.MustAddTuple("E", u, v)
			}
		}
	}
	return newDatabase(b.Build(), r, 8)
}

// RoadNetwork generates a planar-like network: a grid backbone with a small
// number of random shortcut edges between nearby vertices, mimicking road
// networks (low degeneracy, small separators).
func RoadNetwork(w, h int, shortcuts int, seed int64) *Database {
	r := rand.New(rand.NewSource(seed))
	n := w * h
	b := structure.NewBuilder(GraphSignature(), n)
	grid(b, w, h)
	for i := 0; i < shortcuts; i++ {
		v := r.Intn(n)
		dx, dy := r.Intn(5)-2, r.Intn(5)-2
		if u := v + dy*w + dx; u >= 0 && u < n && u != v {
			b.MustAddTuple("E", v, u)
		}
	}
	markSubset(b, n, r, 0.3)
	return newDatabase(b.Build(), r, 8)
}
