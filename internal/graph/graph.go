// Package graph provides the sparse-graph substrate of the library:
// undirected graphs, degeneracy orderings, elimination forests,
// transitive–fraternal augmentations and low-treedepth colourings.
//
// These are the combinatorial tools behind classes of bounded expansion
// (Section 2 of the paper): Proposition 1 (low treedepth colourings).  A
// graph is immutable adjacency arrays built once by FromEdges; the algorithms
// work over arrays, vertex orders and stamps, never a hash map.
package graph

import (
	"fmt"
	"slices"
)

// Graph is a simple undirected graph on vertices 0..N-1 in compressed sparse
// row form: the neighbours of v are nbr[off[v]:off[v+1]], in the order their
// edges first appear in the list the graph was built from.  Nothing mutates a
// Graph once FromEdges returns it, so it may be shared freely.
type Graph struct {
	off []int
	nbr []int
}

// FromEdges returns the graph on vertices 0..n-1 with the given edges, less
// self-loops and repeats in either orientation, so callers may pass raw
// tuple scans.  The arcs of both orientations are counting-sorted by tail,
// which keeps each tail's arcs in edge order, and one stamp array keeps the
// first arc to every head: O(n + len(edges)) time, at most four allocations.
func FromEdges(n int, edges [][2]int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	// off[v+2] counts v's arcs; after the prefix sums off[v+1] is v's start,
	// and filling advances it to v's end, which is where v+1 starts.
	off := make([]int, n+2)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= n || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if u != v {
			off[u+2]++
			off[v+2]++
		}
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	nbr := make([]int, off[n+1])
	for _, e := range edges {
		if u, v := e[0], e[1]; u != v {
			nbr[off[u+1]] = v
			off[u+1]++
			nbr[off[v+1]] = u
			off[v+1]++
		}
	}
	// Compact in place: stamp[w] == v+1 iff v's list already holds w.
	stamp := make([]int32, n)
	lo, k := 0, 0
	for v := 0; v < n; v++ {
		hi, mark := off[v+1], int32(v)+1
		for _, w := range nbr[lo:hi] {
			if stamp[w] != mark {
				stamp[w] = mark
				nbr[k] = w
				k++
			}
		}
		lo, off[v+1] = hi, k
	}
	return &Graph{off: off[:n+1], nbr: nbr[:k]}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.nbr) / 2 }

// Neighbors returns the adjacency list of v.  The returned slice must not be
// modified.
func (g *Graph) Neighbors(v int) []int { return g.nbr[g.off[v]:g.off[v+1]] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// HasEdge reports whether the edge {u, v} is present.  It scans the shorter
// of the two adjacency lists, O(min(deg u, deg v)) time; summed over the
// edges of a graph that is at most 2·arboricity·m (Chiba–Nishizeki), which
// stays linear on a class of bounded expansion.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	return slices.Contains(g.Neighbors(u), v)
}

// Edges returns all edges as (u, v) pairs with u < v, ordered by u and then
// by the position of v in u's adjacency list.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Inducer builds induced subgraphs of one graph through one reusable
// original→subgraph index, so a call costs the size of the subgraph and its
// vertices' adjacency lists, not O(n): the compiler builds one small subgraph
// per box of candidate sets, thousands per compilation.
type Inducer struct {
	g *Graph
	// index[v] is one more than v's subgraph index during a Subgraph call
	// and zero between calls.
	index []int32
}

// NewInducer returns an Inducer for g.
func NewInducer(g *Graph) *Inducer { return &Inducer{g: g, index: make([]int32, g.N())} }

// Subgraph returns the subgraph induced by the given distinct vertices;
// subgraph vertex i is vertices[i], which toOrig records.  It is FromEdges of
// the induced edges {i, j}, i < j, listed by i and then in the order of
// vertices[i]'s adjacency list, which are distinct already; a call makes the
// same few allocations whatever its size.
func (in *Inducer) Subgraph(vertices []int) (sub *Graph, toOrig []int) {
	toOrig = slices.Clone(vertices)
	deg := 0
	for i, v := range vertices {
		in.index[v] = int32(i) + 1
		deg += in.g.Degree(v)
	}
	edges := make([][2]int, 0, deg/2) // an induced edge takes two arcs of deg
	for i, v := range vertices {
		for _, w := range in.g.Neighbors(v) {
			if j := int(in.index[w]) - 1; j > i {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	for _, v := range vertices {
		in.index[v] = 0
	}
	return FromEdges(len(vertices), edges), toOrig
}

// ConnectedComponents returns the vertex sets of the connected components.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	stack := make([]int, 0, 16)
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		comp := []int{}
		stack = append(stack[:0], s)
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// ---------------------------------------------------------------------------
// Degeneracy
// ---------------------------------------------------------------------------

// DegeneracyOrder computes a degeneracy ordering using the standard
// bucket-queue algorithm in O(n + m) time.  It returns the ordering (a
// permutation of the vertices such that each vertex has few neighbours later
// in the order) and the degeneracy d: every vertex has at most d neighbours
// that appear after it in the returned order.
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := range deg {
		deg[v] = g.Degree(v)
		maxDeg = max(maxDeg, deg[v])
	}
	// order holds the vertices sorted by current degree, bin[d] is where the
	// vertices of degree d start in it, pos[v] is where v sits.  The vertex at
	// i has the minimum degree among those from i on; removing it moves each
	// neighbour of higher degree to the front of its bin and the bin's start
	// one to the right, which is a decrement of that neighbour's degree.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d+1]++
	}
	for d := 0; d <= maxDeg; d++ {
		bin[d+1] += bin[d]
	}
	order, pos := make([]int, n), make([]int, n)
	for v, d := range deg {
		pos[v] = bin[d]
		order[pos[v]] = v
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	for _, v := range order {
		degeneracy = max(degeneracy, deg[v])
		for _, w := range g.Neighbors(v) {
			// A removed vertex has degree at most deg[v] and is skipped too:
			// degrees at removal never decrease along the order.
			if dw := deg[w]; dw > deg[v] {
				first := bin[dw]
				u := order[first]
				order[first], order[pos[w]] = w, u
				pos[u], pos[w] = pos[w], first
				bin[dw]++
				deg[w]--
			}
		}
	}
	return order, degeneracy
}

// ---------------------------------------------------------------------------
// Forests
// ---------------------------------------------------------------------------

// Forest is a rooted spanning forest over the vertices 0..N-1 of some graph,
// given by parent pointers.  Roots have Parent[v] == v, matching the
// convention of the paper (parent of a root is the root itself).
type Forest struct {
	// Parent[v] is the parent of v, or v itself if v is a root.
	Parent []int
	// Depth[v] is the depth of v (roots have depth 0).
	Depth []int
	// children lists, computed lazily.
	children [][]int
	// MaxDepth is the maximum depth over all vertices.
	MaxDepth int
}

// NewForest builds a Forest from parent pointers, computing depths.
func NewForest(parent []int) *Forest {
	n := len(parent)
	f := &Forest{Parent: parent, Depth: make([]int, n)}
	for v := range f.Depth {
		f.Depth[v] = -1
	}
	var depth func(v int) int
	depth = func(v int) int {
		if f.Depth[v] >= 0 {
			return f.Depth[v]
		}
		if parent[v] == v {
			f.Depth[v] = 0
			return 0
		}
		d := depth(parent[v]) + 1
		f.Depth[v] = d
		return d
	}
	for v := 0; v < n; v++ {
		d := depth(v)
		if d > f.MaxDepth {
			f.MaxDepth = d
		}
	}
	return f
}

// N returns the number of vertices of the forest.
func (f *Forest) N() int { return len(f.Parent) }

// IsRoot reports whether v is a root.
func (f *Forest) IsRoot(v int) bool { return f.Parent[v] == v }

// Roots returns all roots of the forest.
func (f *Forest) Roots() []int {
	var out []int
	for v := range f.Parent {
		if f.Parent[v] == v {
			out = append(out, v)
		}
	}
	return out
}

// Children returns the children of v.  The result is cached.
func (f *Forest) Children(v int) []int {
	if f.children == nil {
		f.children = make([][]int, len(f.Parent))
		for w, p := range f.Parent {
			if p != w {
				f.children[p] = append(f.children[p], w)
			}
		}
	}
	return f.children[v]
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

// EliminationForest computes a rooted forest over the vertices of g such
// that every edge of g connects a vertex with one of its ancestors (an
// elimination forest / treedepth decomposition).  The depth of the returned
// forest is a heuristic upper bound on the treedepth of g.
//
// The construction removes, in each connected component, a vertex chosen to
// break the component apart (the middle of a longest BFS path, found by two
// BFS runs) and recurses on the remaining components,
// attaching their roots as children of the removed vertex.  Any forest built
// this way is a valid elimination forest; only its depth depends on the
// heuristic.
func EliminationForest(g *Graph) *Forest {
	n := g.N()
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	removed := make([]bool, n)

	// Scratch reused across recursive calls; compGen[v] == gen marks v as
	// placed in a component by the current step.
	queue := make([]int, 0, n)
	dist := make([]int, n)
	prev := make([]int, n)
	compGen := make([]int, n)
	gen := 0

	// bfsFarthest runs a BFS from start over the members not yet removed,
	// recording distances and predecessors, and returns the first vertex it
	// reaches at the largest distance.
	bfsFarthest := func(start int, member []bool) int {
		for _, v := range queue {
			dist[v] = -1
		}
		queue = queue[:0]
		queue = append(queue, start)
		dist[start] = 0
		far := start
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			for _, w := range g.Neighbors(v) {
				if member[w] && !removed[w] && dist[w] == -1 {
					dist[w], prev[w] = dist[v]+1, v
					if dist[w] > dist[far] {
						far = w
					}
					queue = append(queue, w)
				}
			}
		}
		return far
	}

	member := make([]bool, n)
	for v := range dist {
		dist[v] = -1
	}

	var process func(vertices []int, attachTo int)
	process = func(vertices []int, attachTo int) {
		if len(vertices) == 0 {
			return
		}
		if len(vertices) == 1 {
			v := vertices[0]
			if attachTo >= 0 {
				parent[v] = attachTo
			}
			removed[v] = true
			return
		}
		for _, v := range vertices {
			member[v] = true
		}
		// Choose a separator vertex: the midpoint of an approximate longest
		// path (double BFS), which gives good depths on paths, grids and
		// trees.
		a := bfsFarthest(vertices[0], member)
		b := bfsFarthest(a, member)
		sep := b // walked back to the middle of the BFS path from a
		for i := 0; i < dist[b]/2; i++ {
			sep = prev[sep]
		}
		for _, v := range vertices {
			member[v] = false
		}
		if attachTo >= 0 {
			parent[sep] = attachTo
		}
		removed[sep] = true
		// Split the remaining vertices into connected components of g minus
		// the removed vertices.
		gen++
		var comps [][]int
		for _, s := range vertices {
			if removed[s] || compGen[s] == gen {
				continue
			}
			comp := []int{s}
			compGen[s] = gen
			for i := 0; i < len(comp); i++ {
				for _, w := range g.Neighbors(comp[i]) {
					if !removed[w] && compGen[w] != gen {
						compGen[w] = gen
						comp = append(comp, w)
					}
				}
			}
			comps = append(comps, comp)
		}
		for _, comp := range comps {
			process(comp, sep)
		}
	}

	for _, comp := range g.ConnectedComponents() {
		process(comp, -1)
	}
	return NewForest(parent)
}
