// Package compile implements the paper's key result (Theorem 6): compiling
// a weighted expression over a sparse structure into a circuit with
// permanent gates, in time linear in the structure.
//
// The pipeline follows the proof in Appendix A of the paper:
//
//  1. the expression is normalised into a sum of prenex monomials
//     (internal/expr, Lemma 28);
//  2. each monomial is decomposed by a low-treedepth colouring of the
//     Gaifman graph into *boxes*: one colour and one candidate set
//     cand[i] ⊆ that colour class per bound variable, the aggregation being
//     partitioned into the products ∏ cand[i] (equation (12) partitions by
//     the colours alone).  The boxes are enumerated from the data, not from
//     the colours: variables are visited so that each is linked to an earlier
//     one where possible, a variable is tried only on the colours found among
//     the elements equal or adjacent to a linked candidate set, and linked
//     candidate sets are kept supported by one another (boxes.go);
//  3. for every box, the subgraph induced by the union of its candidate
//     sets is decomposed by an elimination forest of bounded depth
//     (Lemma 33 / Example 2) — the cached forest of the colour classes when
//     every candidate set is a whole class.  One graph.ForestBuilder per
//     compilation builds the subgraph and its forest, and forest.go the
//     forest's realisability profile, in scratch reused from box to box, so
//     a box costs its size and leaves no garbage; only a cached forest is
//     copied out;
//  4. over that forest, the monomial is decomposed into *shapes* — the
//     ancestry/equality patterns of the bound variables (Appendix A.2) —
//     and each shape is compiled into a circuit by structural recursion,
//     with permanent gates handling the injective assignment of sibling
//     subtrees (Claim 1 of the paper).  Which shapes exist depends on the
//     forest only through its realisability profile (depths present, depths
//     of sibling meets), so the list is computed once per (monomial,
//     profile) — a *shape plan* — and every box with that profile runs the
//     plan; a shape's slot tree and where the monomial's literals and
//     weights attach depend on the shape alone, so each shape is planned
//     once per monomial, however many profiles admit it (forest.go).  The
//     data prunes shapes too: two variables of a positive literal over a
//     static relation never share a node when no tuple of the relation
//     repeats an element at their positions.
//
// Soundness of step 2.  The decomposition identity holds for any colouring
// and any partition of the product space, and the colouring's guarantee —
// few colour classes induce a subgraph of small treedepth — holds a fortiori
// for subsets of those classes, so any family of disjoint boxes may be
// compiled as long as every tuple left out contributes zero.  A tuple is left
// out only if some variable misses the elements satisfying the positive
// literals over it alone, or two linked variables take elements that are
// neither equal nor adjacent, or violate a positive literal over exactly the
// two.  Variables are linked when they share a positive relation literal or a
// weight term of arity ≥ 2, which can be non-zero only on a Gaifman clique
// (weights of arity ≥ 2 vanish outside relation tuples; updates of dynamic
// relations preserve the Gaifman graph), or a positive equality.  Only
// literals over static relations filter by membership; those over dynamic
// relations stay inputs of the circuit.  So on every tuple left out the
// monomial is zero whatever the weights and the dynamic relations become —
// the terms entry (forest.go) drops structurally anyway — and the circuit
// computes the same polynomial with fewer dead gates.
//
// This file implements shapes: their enumeration, consistency with the
// monomial's (in)equality literals, and realisability pruning against the
// data forest.
package compile

import "fmt"

// meetDifferentTrees is the sentinel meet value for two variables placed in
// different trees of the forest.
const meetDifferentTrees = -1

// shape fixes, for every bound variable, the depth of the node it is mapped
// to, and for every pair of variables the depth of their deepest common
// ancestor (or meetDifferentTrees).  A shape corresponds to the "atomic
// type" of the tuple with respect to the forest structure; summing over all
// shapes partitions the aggregation space.
type shape struct {
	depth []int
	// meet is a symmetric k×k matrix; meet[i][i] = depth[i].
	meet [][]int
}

// sameSlot reports whether variables i and j are mapped to the same node.
func (sh *shape) sameSlot(i, j int) bool {
	return sh.depth[i] == sh.depth[j] && sh.meet[i][j] == sh.depth[i]
}

// comparable reports whether variable i's node is an ancestor of j's node or
// vice versa (including equality).
func (sh *shape) comparable(i, j int) bool {
	if i == j {
		return true
	}
	m := sh.meet[i][j]
	return m == sh.depth[i] || m == sh.depth[j]
}

// appendShapeKey appends the shape's depths and its meets above the diagonal,
// one byte each: two shapes of one monomial are equal exactly when their keys
// are.
func (sh *shape) appendShapeKey(key []byte) []byte {
	for i, d := range sh.depth {
		key = append(key, byte(d))
		for j := i + 1; j < len(sh.depth); j++ {
			key = append(key, byte(sh.meet[i][j]+1))
		}
	}
	return key
}

func (sh *shape) String() string {
	return fmt.Sprintf("shape{depth=%v}", sh.depth)
}

// shapeConstraints captures everything the monomial imposes on admissible
// shapes.
type shapeConstraints struct {
	// numVars is the number of bound variables.
	numVars int
	// maxDepth is the maximum depth of the data forest.
	maxDepth int
	// mustEqual lists variable pairs that must map to the same node
	// (positive equality literals).
	mustEqual [][2]int
	// mustDiffer lists variable pairs that must map to different nodes
	// (negative equality literals).
	mustDiffer [][2]int
	// mustCompare lists variable pairs that must be ancestor-related or
	// equal (arguments of positive relation literals and of weight terms of
	// arity ≥ 2, which can only be satisfied on Gaifman cliques).
	mustCompare [][2]int
	// realizable reports whether some pair of nodes at depths d1 and d2 has
	// its deepest common ancestor at depth m (with m == meetDifferentTrees
	// meaning the nodes lie in different trees).  It is a pure pruning
	// device: returning true more often is always sound.
	realizable func(d1, d2, m int) bool
	// depthRealizable reports whether any node of the forest has depth d.
	depthRealizable func(d int) bool
}

// enumerateShapes calls visit with every shape over the given constraints.
// The enumeration chooses a depth for every variable and a meet depth for
// every pair, pruning by the three-point (ultrametric) condition, the
// monomial's equality constraints, the comparability requirements and data
// realisability.  The shape visit gets is scratch, overwritten by the next
// one: visit must copy what it keeps.
func enumerateShapes(c shapeConstraints, visit func(*shape)) {
	k := c.numVars
	if k == 0 {
		visit(&shape{})
		return
	}
	if c.realizable == nil {
		c.realizable = func(int, int, int) bool { return true }
	}
	if c.depthRealizable == nil {
		c.depthRealizable = func(int) bool { return true }
	}
	depth := make([]int, k)
	meet := make([][]int, k)
	for i := range meet {
		meet[i] = make([]int, k)
	}
	sh := &shape{depth: depth, meet: meet}

	mustEqual := make(map[[2]int]bool)
	for _, p := range c.mustEqual {
		mustEqual[normPair(p)] = true
	}
	mustDiffer := make(map[[2]int]bool)
	for _, p := range c.mustDiffer {
		mustDiffer[normPair(p)] = true
	}
	mustCompare := make(map[[2]int]bool)
	for _, p := range c.mustCompare {
		if p[0] != p[1] {
			mustCompare[normPair(p)] = true
		}
	}

	// pairOK checks the constraints that involve only the pair (i, j) once
	// its meet has been chosen.
	pairOK := func(i, j int) bool {
		p := normPair([2]int{i, j})
		same := depth[i] == depth[j] && meet[i][j] == depth[i]
		if mustEqual[p] && !same {
			return false
		}
		if mustDiffer[p] && same {
			return false
		}
		comparable := meet[i][j] == depth[i] || meet[i][j] == depth[j]
		if mustCompare[p] && !comparable {
			return false
		}
		if !comparable {
			// Strict sibling relation: prune against the data.
			if !c.realizable(depth[i], depth[j], meet[i][j]) {
				return false
			}
		}
		return true
	}

	// tripleOK checks the three-point condition for every triple whose three
	// pairwise meets are all fixed once (i, j) is chosen.  Pairs are fixed in
	// the order (0,1), (0,2), (1,2), (0,3), ...: grouped by the larger index,
	// then by the smaller.  For the triple {l, i, j} with l < i < j the last
	// pair fixed is (i, j), so it is checked exactly once, here.
	tripleOK := func(i, j int) bool {
		for l := 0; l < i; l++ {
			a, b, cc := meet[i][j], meet[i][l], meet[j][l]
			if !threePoint(a, b, cc) {
				return false
			}
		}
		return true
	}

	var chooseMeets func(i, j int)
	var chooseDepths func(i int)

	chooseMeets = func(i, j int) {
		if j == k {
			visit(sh)
			return
		}
		ni, nj := i, j
		advI, advJ := i+1, j
		if advI == j {
			advI, advJ = 0, j+1
		}
		min := depth[ni]
		if depth[nj] < min {
			min = depth[nj]
		}
		for m := meetDifferentTrees; m <= min; m++ {
			meet[ni][nj] = m
			meet[nj][ni] = m
			if !pairOK(ni, nj) {
				continue
			}
			if !tripleOK(ni, nj) {
				continue
			}
			chooseMeets(advI, advJ)
		}
	}

	chooseDepths = func(i int) {
		if i == k {
			for v := 0; v < k; v++ {
				meet[v][v] = depth[v]
			}
			if k == 1 {
				visit(sh)
				return
			}
			chooseMeets(0, 1)
			return
		}
		for d := 0; d <= c.maxDepth; d++ {
			if !c.depthRealizable(d) {
				continue
			}
			depth[i] = d
			chooseDepths(i + 1)
		}
	}
	chooseDepths(0)
}

func normPair(p [2]int) [2]int {
	if p[0] > p[1] {
		return [2]int{p[1], p[0]}
	}
	return p
}

// threePoint checks the forest meet condition for three pairwise meet
// depths: the two smallest values must be equal.
func threePoint(a, b, c int) bool {
	x, y, z := a, b, c
	// Sort the three values.
	if x > y {
		x, y = y, x
	}
	if y > z {
		y, z = z, y
	}
	if x > y {
		x, y = y, x
	}
	return x == y
}

// shapeTree is the rooted forest of "slots" induced by a shape: one node per
// equivalence class of variable-ancestor positions.  Variables map to slots;
// every slot is an ancestor of (or equal to) some variable slot.
type shapeTree struct {
	numSlots     int
	slotDepth    []int
	slotParent   []int // -1 for roots
	slotChildren [][]int
	roots        []int
	// varSlot maps each variable index to its slot.
	varSlot []int
	// slotVars lists the variables mapped to each slot.
	slotVars [][]int
}

// buildShapeTree materialises the slot forest of a shape.
func buildShapeTree(sh *shape) *shapeTree {
	k := len(sh.depth)
	// Positions are pairs (variable, level) with level ≤ depth(variable).
	type pos struct{ v, level int }
	var positions []pos
	index := map[pos]int{}
	for v := 0; v < k; v++ {
		for l := 0; l <= sh.depth[v]; l++ {
			p := pos{v, l}
			index[p] = len(positions)
			positions = append(positions, p)
		}
	}
	// Union-find over positions: (i, l) ~ (j, l) whenever l ≤ meet(i, j).
	parent := make([]int, len(positions))
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			m := sh.meet[i][j]
			for l := 0; l <= m; l++ {
				union(index[pos{i, l}], index[pos{j, l}])
			}
		}
	}
	// Assign slot ids to classes.
	slotOf := map[int]int{}
	t := &shapeTree{varSlot: make([]int, k)}
	slotID := func(p pos) int {
		root := find(index[p])
		if id, ok := slotOf[root]; ok {
			return id
		}
		id := t.numSlots
		t.numSlots++
		slotOf[root] = id
		t.slotDepth = append(t.slotDepth, p.level)
		t.slotParent = append(t.slotParent, -1)
		return id
	}
	for _, p := range positions {
		slotID(p)
	}
	// Parent links and variable slots.
	for v := 0; v < k; v++ {
		for l := 0; l <= sh.depth[v]; l++ {
			id := slotID(pos{v, l})
			if l > 0 {
				t.slotParent[id] = slotID(pos{v, l - 1})
			}
		}
		t.varSlot[v] = slotID(pos{v, sh.depth[v]})
	}
	t.slotChildren = make([][]int, t.numSlots)
	t.slotVars = make([][]int, t.numSlots)
	for s := 0; s < t.numSlots; s++ {
		if p := t.slotParent[s]; p >= 0 {
			t.slotChildren[p] = append(t.slotChildren[p], s)
		} else {
			t.roots = append(t.roots, s)
		}
	}
	for v := 0; v < k; v++ {
		t.slotVars[t.varSlot[v]] = append(t.slotVars[t.varSlot[v]], v)
	}
	return t
}
