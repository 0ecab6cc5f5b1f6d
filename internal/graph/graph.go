// Package graph provides the sparse-graph substrate of the library:
// undirected graphs, degeneracy orderings, elimination forests,
// transitive–fraternal augmentations and low-treedepth colourings.
//
// These are the combinatorial tools behind classes of bounded expansion
// (Section 2 of the paper): Proposition 1 (low treedepth colourings).  A
// graph is immutable adjacency arrays built once by FromEdges; the algorithms
// work over arrays, vertex orders and stamps, never a hash map.  A
// ForestBuilder builds the elimination forests of many induced subgraphs of
// one graph in scratch it reuses: a forest it returns is valid until its next
// call.
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
	// MaxDepth is the maximum depth over all vertices.
	MaxDepth int
	// roots lists the roots in increasing order; the children of v are
	// child[childOff[v]:childOff[v+1]], in increasing order too.
	roots, childOff, child []int
}

// NewForest builds a Forest from parent pointers, computing depths.
func NewForest(parent []int) *Forest {
	f := &Forest{Parent: parent}
	f.index()
	return f
}

// index derives Depth, MaxDepth, the roots and the children from Parent in
// O(N) time, into the forest's own buffers when they are large enough.
func (f *Forest) index() {
	n := len(f.Parent)
	f.Depth = resize(f.Depth, n)
	for v := range f.Depth {
		f.Depth[v] = -1
	}
	f.MaxDepth = 0
	for v := range f.Parent {
		// Climb to the first vertex of known depth, fixing a root's at 0,
		// then walk the path again handing out depths.
		d, u := 0, v
		for f.Depth[u] < 0 {
			if p := f.Parent[u]; p != u {
				u, d = p, d+1
			} else {
				f.Depth[u] = 0
			}
		}
		d += f.Depth[u]
		f.MaxDepth = max(f.MaxDepth, d)
		for u = v; f.Depth[u] < 0; u = f.Parent[u] {
			f.Depth[u], d = d, d-1
		}
	}
	// Children counting-sorted by parent, as FromEdges sorts arcs by tail.
	f.roots = f.roots[:0]
	off := resize(f.childOff, n+2)
	clear(off)
	for v, p := range f.Parent {
		if p == v {
			f.roots = append(f.roots, v)
		} else {
			off[p+2]++
		}
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	f.child = resize(f.child, n-len(f.roots))
	for v, p := range f.Parent {
		if p != v {
			f.child[off[p+1]] = v
			off[p+1]++
		}
	}
	f.childOff = off[:n+1]
}

// N returns the number of vertices of the forest.
func (f *Forest) N() int { return len(f.Parent) }

// IsRoot reports whether v is a root.
func (f *Forest) IsRoot(v int) bool { return f.Parent[v] == v }

// Roots returns the roots of the forest in increasing order.  The returned
// slice must not be modified.
func (f *Forest) Roots() []int { return f.roots }

// Children returns the children of v in increasing order.  The returned
// slice must not be modified.
func (f *Forest) Children(v int) []int { return f.child[f.childOff[v]:f.childOff[v+1]] }

// ForestBuilder builds elimination forests of induced subgraphs of one graph
// in scratch it keeps from call to call, so a call costs the size of the
// subgraph and its vertices' adjacency lists, not O(n), and allocates nothing
// once the scratch has grown to the largest subgraph asked for: the compiler
// builds one forest per box of candidate sets, thousands per compilation.
// What a call returns is valid until the next call.  A ForestBuilder is not
// safe for concurrent use.
type ForestBuilder struct {
	g *Graph
	// index[v] is one more than v's subgraph index during a call and zero
	// between calls.
	index []int32
	sub   Graph
	f     Forest
	// The rest is indexed by subgraph vertex.  removed marks the vertices
	// placed in the forest; dist and prev hold the last BFS, whose vertices
	// queue lists, and dist is -1 off it; seen[v] == gen marks v as put in a
	// component by the current split.
	removed    []bool
	dist, prev []int
	queue      []int
	seen       []int32
	gen        int32
	// comps holds the vertex lists of the components waiting to be split,
	// stacked in the order of work, which says where each one starts and
	// ends and which vertex its root hangs from; split collects the
	// components of one split before they replace their parent in comps,
	// and is the stack of the depth-first search that lists a component.
	comps, split []int
	work         []component
}

// component is a connected component of the subgraph less the vertices
// placed so far: the vertex list comps[lo:hi], to hang below attach (-1 for
// none).
type component struct{ lo, hi, attach int }

// NewForestBuilder returns a ForestBuilder for the induced subgraphs of g.
func NewForestBuilder(g *Graph) *ForestBuilder {
	return &ForestBuilder{g: g, index: make([]int32, g.N())}
}

// induce returns the subgraph induced by the given distinct vertices, vertex
// i being vertices[i].  It is FromEdges of the induced edges {i, j}, i < j,
// listed by i and then in the order of vertices[i]'s adjacency list: those
// are distinct already, so counting the arcs of both orientations by tail
// and filling them in edge order gives FromEdges' adjacency lists.
func (b *ForestBuilder) induce(vertices []int) *Graph {
	k := len(vertices)
	for i, v := range vertices {
		b.index[v] = int32(i) + 1
	}
	off := resize(b.sub.off, k+2)
	clear(off)
	for i, v := range vertices {
		for _, w := range b.g.Neighbors(v) {
			if j := int(b.index[w]) - 1; j > i {
				off[i+2]++
				off[j+2]++
			}
		}
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	nbr := resize(b.sub.nbr, off[k+1])
	for i, v := range vertices {
		for _, w := range b.g.Neighbors(v) {
			if j := int(b.index[w]) - 1; j > i {
				nbr[off[i+1]], nbr[off[j+1]] = j, i
				off[i+1]++
				off[j+1]++
			}
		}
	}
	for _, v := range vertices {
		b.index[v] = 0
	}
	b.sub = Graph{off: off[:k+1], nbr: nbr}
	return &b.sub
}

// Forest returns an elimination forest of the subgraph induced by the given
// distinct vertices — every edge joins a vertex and one of its ancestors —
// over subgraph vertices: vertex i is vertices[i].  Its depth is a heuristic
// upper bound on the treedepth of the subgraph.  The forest lives in the
// builder's scratch and is valid until the next call.
//
// Each connected component, taken in the depth-first order of its vertices
// from its least one, is split at the middle of a longest BFS path (found by
// two BFS runs from its first vertex), which becomes the root of the
// component's tree; the components left, each in BFS order from its first
// vertex in the order of the component split, hang their trees from that
// vertex.  Components wait on a stack, so no call recurses.  Any forest
// built this way is a valid elimination forest; only its depth depends on
// the heuristic.
func (b *ForestBuilder) Forest(vertices []int) *Forest {
	g := b.induce(vertices)
	k := g.N()
	parent := resize(b.f.Parent, k)
	for v := range parent {
		parent[v] = v
	}
	b.removed = resize(b.removed, k)
	clear(b.removed)
	b.dist, b.prev = resize(b.dist, k), resize(b.prev, k)
	for v := range b.dist {
		b.dist[v] = -1
	}
	b.seen = resize(b.seen, k)
	clear(b.seen)
	b.queue, b.gen = b.queue[:0], 0
	for s := range k {
		if b.removed[s] {
			continue
		}
		// The component of s, depth first exactly as a stack-driven search
		// from s lists it.
		b.gen++
		b.seen[s] = b.gen
		b.comps = b.comps[:0]
		stack := append(b.split[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b.comps = append(b.comps, v)
			for _, w := range g.Neighbors(v) {
				if b.seen[w] != b.gen {
					b.seen[w] = b.gen
					stack = append(stack, w)
				}
			}
		}
		b.split = stack
		b.work = append(b.work[:0], component{0, len(b.comps), -1})
		for len(b.work) > 0 {
			c := b.work[len(b.work)-1]
			b.work = b.work[:len(b.work)-1]
			b.place(g, parent, c)
		}
	}
	b.f.Parent = parent
	b.f.index()
	return &b.f
}

// place puts the separator of component c into the forest below c.attach,
// and replaces c on the stacks by the components it leaves.
func (b *ForestBuilder) place(g *Graph, parent []int, c component) {
	vs := b.comps[c.lo:c.hi]
	sep := vs[0]
	if len(vs) > 1 {
		far := b.farthest(g, vs[0])
		end := b.farthest(g, far)
		sep = end
		for i := 0; i < b.dist[end]/2; i++ {
			sep = b.prev[sep]
		}
	}
	if c.attach >= 0 {
		parent[sep] = c.attach
	}
	b.removed[sep] = true
	b.gen++
	split := b.split[:0]
	for _, s := range vs {
		if b.removed[s] || b.seen[s] == b.gen {
			continue
		}
		lo := len(split)
		split = append(split, s)
		b.seen[s] = b.gen
		for i := lo; i < len(split); i++ {
			for _, w := range g.Neighbors(split[i]) {
				if !b.removed[w] && b.seen[w] != b.gen {
					b.seen[w] = b.gen
					split = append(split, w)
				}
			}
		}
		b.work = append(b.work, component{c.lo + lo, c.lo + len(split), sep})
	}
	b.comps = append(b.comps[:c.lo], split...)
	b.split = split
}

// farthest runs a BFS from start over the vertices not yet placed, recording
// distances and predecessors, and returns the first vertex it reaches at the
// largest distance.
func (b *ForestBuilder) farthest(g *Graph, start int) int {
	for _, v := range b.queue {
		b.dist[v] = -1
	}
	b.queue = append(b.queue[:0], start)
	b.dist[start] = 0
	far := start
	for i := 0; i < len(b.queue); i++ {
		v := b.queue[i]
		for _, w := range g.Neighbors(v) {
			if !b.removed[w] && b.dist[w] < 0 {
				b.dist[w], b.prev[w] = b.dist[v]+1, v
				if b.dist[w] > b.dist[far] {
					far = w
				}
				b.queue = append(b.queue, w)
			}
		}
	}
	return far
}

// resize returns s with length n, reusing its array when it is large enough;
// the elements are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
