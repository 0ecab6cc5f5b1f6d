// Package graph provides the sparse-graph substrate of the library:
// undirected graphs, degeneracy orderings, elimination forests,
// transitive–fraternal augmentations and low-treedepth colourings.
//
// These are the combinatorial tools behind classes of bounded expansion
// (Section 2 of the paper): Proposition 1 (low treedepth colourings).
package graph

import (
	"fmt"
	"maps"
	"slices"
)

// Graph is a simple undirected graph on vertices 0..N-1 stored as adjacency
// lists.  Self-loops and parallel edges are rejected by AddEdge.
type Graph struct {
	n   int
	adj [][]int
	// edgeSet provides O(1) membership tests, keyed by edgeKey.  Nothing
	// ranges over it: every order the package exposes comes from the adjacency
	// lists, so equal graphs built in equal order behave identically.
	edgeSet map[uint64]struct{}
	m       int
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:       n,
		adj:     make([][]int, n),
		edgeSet: make(map[uint64]struct{}),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the adjacency list of v.  The returned slice must not be
// modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// edgeKey packs the endpoints, smaller first, into one word (the runtime's
// fast map path); vertex counts stay far below 2³².
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	_, ok := g.edgeSet[edgeKey(u, v)]
	return ok
}

// AddEdge inserts the undirected edge {u, v}.  Self-loops and duplicate
// edges are ignored so that callers can add edges from tuple scans without
// pre-deduplication.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	key := edgeKey(u, v)
	if _, ok := g.edgeSet[key]; ok {
		return
	}
	g.edgeSet[key] = struct{}{}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
}

// Edges returns all edges as (u, v) pairs with u < v, ordered by u and then
// by the position of v in u's adjacency list.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph with every adjacency list in the
// same order, so whatever is computed from the copy (degeneracy orders,
// colourings, forests) equals what is computed from the original.
func (g *Graph) Clone() *Graph {
	h := &Graph{n: g.n, adj: make([][]int, g.n), edgeSet: maps.Clone(g.edgeSet), m: g.m}
	for v, nbrs := range g.adj {
		h.adj[v] = slices.Clone(nbrs)
	}
	return h
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

// NewInducer returns an Inducer for g, which must not grow while it is used.
func NewInducer(g *Graph) *Inducer { return &Inducer{g: g, index: make([]int32, g.n)} }

// Subgraph returns the subgraph induced by the given distinct vertices;
// subgraph vertex i is vertices[i], which toOrig records.  Adjacency lists
// keep the relative order they have in the original graph.
func (in *Inducer) Subgraph(vertices []int) (sub *Graph, toOrig []int) {
	toOrig = slices.Clone(vertices)
	for i, v := range vertices {
		in.index[v] = int32(i) + 1
	}
	sub = New(len(vertices))
	for i, v := range vertices {
		for _, w := range in.g.adj[v] {
			if j := int(in.index[w]) - 1; j > i {
				sub.AddEdge(i, j)
			}
		}
	}
	for _, v := range vertices {
		in.index[v] = 0
	}
	return sub, toOrig
}

// ConnectedComponents returns the vertex sets of the connected components.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	stack := make([]int, 0, 16)
	for s := 0; s < g.n; s++ {
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
			for _, w := range g.adj[v] {
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
	n := g.n
	deg := make([]int, n)
	maxDeg := 0
	for v, nbrs := range g.adj {
		deg[v] = len(nbrs)
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
		for _, w := range g.adj[v] {
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
// break the component apart (a BFS-centre-of-a-longest-path heuristic with a
// fallback to maximum degree) and recurses on the remaining components,
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

	// Scratch buffers reused across recursive calls.
	queue := make([]int, 0, n)
	dist := make([]int, n)

	// bfsFarthest returns the vertex farthest from start within the current
	// (non-removed) component containing start, considering only vertices in
	// the component.
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
			for _, w := range g.adj[v] {
				if member[w] && !removed[w] && dist[w] == -1 {
					dist[w] = dist[v] + 1
					if dist[w] > dist[far] {
						far = w
					}
					queue = append(queue, w)
				}
			}
		}
		return far
	}

	// bfsMiddle returns the middle vertex of a BFS path from a to b.
	bfsMiddle := func(a, b int, member []bool) int {
		for _, v := range queue {
			dist[v] = -1
		}
		queue = queue[:0]
		queue = append(queue, a)
		dist[a] = 0
		prev := make(map[int]int)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			if v == b {
				break
			}
			for _, w := range g.adj[v] {
				if member[w] && !removed[w] && dist[w] == -1 {
					dist[w] = dist[v] + 1
					prev[w] = v
					queue = append(queue, w)
				}
			}
		}
		if dist[b] == -1 {
			return a
		}
		// Walk back half way from b.
		steps := dist[b] / 2
		v := b
		for i := 0; i < steps; i++ {
			v = prev[v]
		}
		return v
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
		// trees; ties broken by degree.
		a := bfsFarthest(vertices[0], member)
		b := bfsFarthest(a, member)
		sep := bfsMiddle(a, b, member)
		for _, v := range vertices {
			member[v] = false
		}
		if attachTo >= 0 {
			parent[sep] = attachTo
		}
		removed[sep] = true
		// Split the remaining vertices into connected components of g minus
		// the removed vertices.
		compID := make(map[int]int)
		var comps [][]int
		for _, s := range vertices {
			if removed[s] {
				continue
			}
			if _, seen := compID[s]; seen {
				continue
			}
			comp := []int{s}
			compID[s] = len(comps)
			for i := 0; i < len(comp); i++ {
				v := comp[i]
				for _, w := range g.adj[v] {
					if removed[w] {
						continue
					}
					if _, seen := compID[w]; !seen {
						compID[w] = len(comps)
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
