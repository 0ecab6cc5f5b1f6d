package compile

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/circuit"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/structure"
)

// maxForestDepth bounds the elimination-forest depth handled by the shape
// machinery (depth sets are stored as 64-bit masks).
const maxForestDepth = 63

// colorForest is the elimination forest of the subgraph of the Gaifman graph
// induced by the elements of a box (a whole set of colour classes, or the
// union of a box's candidate sets), together with realisability indices used
// to prune shape enumeration.
type colorForest struct {
	forest *graph.Forest
	// toOrig maps subgraph vertex indices to original elements.
	toOrig []int
	// depthMask has bit d set when some node has depth d.
	depthMask uint64
	// siblingMeet[(m+1)*(maxDepth+1)+d1] has bit d2 set when two nodes at
	// depths d1, d2 in *different* child subtrees have their deepest common
	// ancestor at depth m; m = -1 stands for "different trees".
	siblingMeet []uint64
	maxDepth    int
	// profile encodes maxDepth, depthMask and siblingMeet — everything shape
	// enumeration asks of the forest — so forests with equal profiles share
	// one shape plan per monomial.
	profile []byte
}

// forestScratch builds the colorForest of one box after another in buffers
// it keeps, so a box's forest costs its size and no garbage; what build
// returns is valid until the next call.
type forestScratch struct {
	fb *graph.ForestBuilder
	cf colorForest
	// depthsBelow[v] is the bitmask of depths in the subtree rooted at v;
	// byDepth lists the nodes level by level.
	depthsBelow, prefix []uint64
	byDepth             []int
}

// build constructs the elimination forest for the induced subgraph on the
// given original elements, which it keeps as toOrig.
func (s *forestScratch) build(vertices []int) (*colorForest, error) {
	f := s.fb.Forest(vertices)
	if f.MaxDepth > maxForestDepth {
		return nil, fmt.Errorf("compile: elimination forest depth %d exceeds the supported maximum %d; the colouring is too coarse for this graph", f.MaxDepth, maxForestDepth)
	}
	cf := &s.cf
	cf.forest, cf.toOrig, cf.maxDepth, cf.depthMask = f, vertices, f.MaxDepth, 0
	n := f.N()
	depthsBelow := slices.Grow(s.depthsBelow[:0], n)[:n]
	for v, d := range f.Depth {
		depthsBelow[v] = 1 << uint(d)
		cf.depthMask |= 1 << uint(d)
	}
	// Propagate child masks to parents, the levels deepest first (a BFS
	// lists the nodes by depth): children are strictly deeper, so a node's
	// own mask is complete before it is folded into its parent.
	byDepth := append(s.byDepth[:0], f.Roots()...)
	for i := 0; i < len(byDepth); i++ {
		byDepth = append(byDepth, f.Children(byDepth[i])...)
	}
	for _, v := range slices.Backward(byDepth) {
		if !f.IsRoot(v) {
			depthsBelow[f.Parent[v]] |= depthsBelow[v]
		}
	}
	s.depthsBelow, s.byDepth = depthsBelow, byDepth
	// Sibling meets at internal nodes.
	width := cf.maxDepth + 1
	cf.siblingMeet = slices.Grow(cf.siblingMeet[:0], (cf.maxDepth+2)*width)[:(cf.maxDepth+2)*width]
	clear(cf.siblingMeet)
	recordSiblings := func(meetIdx int, children []int) {
		if len(children) < 2 {
			return
		}
		// Prefix ORs and a running suffix OR give the "others" of every
		// child in linear time.
		prefix := append(s.prefix[:0], 0)
		for _, c := range children {
			prefix = append(prefix, prefix[len(prefix)-1]|depthsBelow[c])
		}
		s.prefix = prefix
		row := cf.siblingMeet[meetIdx*width : (meetIdx+1)*width]
		suffix := uint64(0)
		for i, c := range slices.Backward(children) {
			others := prefix[i] | suffix
			for mm := depthsBelow[c]; mm != 0 && others != 0; mm &= mm - 1 {
				row[bits.TrailingZeros64(mm)] |= others
			}
			suffix |= depthsBelow[c]
		}
	}
	for v := 0; v < n; v++ {
		recordSiblings(f.Depth[v]+1, f.Children(v))
	}
	// Different trees: the virtual forest "root" has the tree roots as
	// children.
	recordSiblings(0, f.Roots())

	key := binary.AppendUvarint(cf.profile[:0], uint64(cf.maxDepth))
	key = binary.AppendUvarint(key, cf.depthMask)
	for _, m := range cf.siblingMeet {
		key = binary.AppendUvarint(key, m)
	}
	cf.profile = key
	return cf, nil
}

// clone copies a colorForest out of the scratch it was built in.
func (cf *colorForest) clone() *colorForest {
	return &colorForest{
		forest:      graph.NewForest(slices.Clone(cf.forest.Parent)),
		toOrig:      slices.Clone(cf.toOrig),
		depthMask:   cf.depthMask,
		siblingMeet: slices.Clone(cf.siblingMeet),
		maxDepth:    cf.maxDepth,
		profile:     slices.Clone(cf.profile),
	}
}

// realizable reports whether some pair of nodes at depths d1, d2 meets at
// depth m (m = meetDifferentTrees for different trees).  Comparable pairs
// (m equal to one of the depths) are not consulted here.
func (cf *colorForest) realizable(d1, d2, m int) bool {
	if d1 > cf.maxDepth || d2 > cf.maxDepth {
		return false
	}
	idx := m + 1
	if idx < 0 || idx > cf.maxDepth+1 {
		return false
	}
	return cf.siblingMeet[idx*(cf.maxDepth+1)+d1]&(1<<uint(d2)) != 0
}

func (cf *colorForest) depthRealizable(d int) bool {
	if d < 0 || d > cf.maxDepth {
		return false
	}
	return cf.depthMask&(1<<uint(d)) != 0
}

// ---------------------------------------------------------------------------
// Monomial preparation
// ---------------------------------------------------------------------------

// preparedMonomial is a monomial with its variables indexed and its
// coefficient adjusted for bound variables that do not occur in any literal
// or weight term (each such variable contributes a factor |A|).
type preparedMonomial struct {
	vars     []string
	varIndex map[string]int
	literals []expr.Literal
	// rels[l] is the relation of literals[l] when it is over a static
	// relation, nil for equalities and dynamic relations; compileMonomial
	// resolves them once.
	rels    []*structure.Relation
	weights []expr.WeightTerm
	// litArgs[l] and weightArgs[w] are the variable indices of the arguments
	// of literals[l] and weights[w].
	litArgs, weightArgs [][]int
	// nullaryWeights are weight terms of arity 0 (applied once, outside the
	// per-variable machinery).
	nullaryWeights []expr.WeightTerm
	coeff          *big.Int
	// plans caches the monomial's shape plan per forest profile, and shapes
	// the plan of each shape any profile admitted, by shape key (nil for a
	// shape that cannot support the monomial), so a shape is planned once
	// however many profiles admit it; shapeKey is the key's scratch.
	plans    map[string][]*plannedShape
	shapes   map[string]*plannedShape
	shapeKey []byte
}

// prepareMonomial indexes the variables of a closed monomial and folds
// unused bound variables into the coefficient.
func prepareMonomial(m *expr.Monomial, domainSize int) (*preparedMonomial, error) {
	if free := m.FreeVars(); len(free) > 0 {
		return nil, fmt.Errorf("compile: monomial has free variables %v; close the expression first (see dynamicq for queries with free variables)", free)
	}
	used := map[string]bool{}
	for _, v := range m.Vars() {
		used[v] = true
	}
	pm := &preparedMonomial{varIndex: map[string]int{}, coeff: big.NewInt(m.Coeff), plans: map[string][]*plannedShape{}, shapes: map[string]*plannedShape{}}
	unused := 0
	for _, v := range m.Bound {
		if used[v] {
			pm.varIndex[v] = len(pm.vars)
			pm.vars = append(pm.vars, v)
		} else {
			unused++
		}
	}
	if unused > 0 {
		scale := new(big.Int).Exp(big.NewInt(int64(domainSize)), big.NewInt(int64(unused)), nil)
		pm.coeff.Mul(pm.coeff, scale)
	}
	indices := func(args []string) []int {
		idx := make([]int, len(args))
		for i, a := range args {
			idx[i] = pm.varIndex[a]
		}
		return idx
	}
	for _, w := range m.Weights {
		if len(w.Args) == 0 {
			pm.nullaryWeights = append(pm.nullaryWeights, w)
		} else {
			pm.weights = append(pm.weights, w)
			pm.weightArgs = append(pm.weightArgs, indices(w.Args))
		}
	}
	pm.literals = m.Literals
	for _, l := range m.Literals {
		pm.litArgs = append(pm.litArgs, indices(l.Args))
	}
	return pm, nil
}

// comparePairs lists the pairs of distinct variables that share a positive
// relation literal or a weight term of arity ≥ 2.  Either can be non-zero only
// on a Gaifman clique — a weight of arity ≥ 2 is zero outside relation
// tuples, and updates of dynamic relations are Gaifman-preserving — so the
// two variables must be equal or adjacent.
func (pm *preparedMonomial) comparePairs() [][2]int {
	var pairs [][2]int
	add := func(idx []int) {
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				if idx[i] != idx[j] {
					pairs = append(pairs, [2]int{idx[i], idx[j]})
				}
			}
		}
	}
	for li, l := range pm.literals {
		if l.Positive && !l.IsEquality() {
			add(pm.litArgs[li])
		}
	}
	for wi := range pm.weights {
		add(pm.weightArgs[wi])
	}
	return pairs
}

// shapeConstraintsFor derives the shape constraints of a prepared monomial
// over a given colour forest.  Besides the negative equalities, two distinct
// variables must differ when they sit at two positions of a positive literal
// over a static relation that no tuple repeats an element at
// (structure.Relation.Repeats): E(x, y) over an E without loops cannot hold
// with x and y on one node, so no shape puts them there.  A dynamic relation
// is never read so: a write may add a loop the compiled structure lacks.
func (pm *preparedMonomial) shapeConstraintsFor(cf *colorForest) shapeConstraints {
	c := shapeConstraints{
		numVars:         len(pm.vars),
		maxDepth:        cf.maxDepth,
		mustCompare:     pm.comparePairs(),
		realizable:      cf.realizable,
		depthRealizable: cf.depthRealizable,
	}
	for li, l := range pm.literals {
		args := pm.litArgs[li]
		if l.IsEquality() {
			if l.Positive {
				c.mustEqual = append(c.mustEqual, [2]int{args[0], args[1]})
			} else {
				c.mustDiffer = append(c.mustDiffer, [2]int{args[0], args[1]})
			}
			continue
		}
		if r := pm.rels[li]; r != nil && l.Positive {
			for q := range args {
				for p := range q {
					if args[p] != args[q] && !r.Repeats(p, q) {
						c.mustDiffer = append(c.mustDiffer, [2]int{args[p], args[q]})
					}
				}
			}
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Shape plans and their compilation over a box
// ---------------------------------------------------------------------------

// plannedShape is one shape of a monomial's shape plan: its slot tree and
// the attachment of the monomial's literals and weight terms to slots.  It
// depends on the monomial and the shape only, so every box whose forest has
// the plan's profile compiles it as is.
type plannedShape struct {
	tree *shapeTree
	// slotVars[s] has bit i set when variable i is mapped to slot s.
	slotVars []uint64
	// slotLiterals / slotWeights are the literals and weight terms whose
	// deepest argument slot is s.
	slotLiterals [][]int
	slotWeights  [][]int
}

// planFor returns the monomial's shape plan for forests with cf's profile:
// the shapes such a forest can realise and that can support the monomial, in
// enumeration order.  A shape admitted by several profiles is planned under
// the first and looked up under the others.
func (pm *preparedMonomial) planFor(cf *colorForest) []*plannedShape {
	if plan, ok := pm.plans[string(cf.profile)]; ok {
		return plan
	}
	var plan []*plannedShape
	enumerateShapes(pm.shapeConstraintsFor(cf), func(sh *shape) {
		pm.shapeKey = sh.appendShapeKey(pm.shapeKey[:0])
		ps, ok := pm.shapes[string(pm.shapeKey)]
		if !ok {
			ps = pm.planShape(sh)
			pm.shapes[string(pm.shapeKey)] = ps
		}
		if ps != nil {
			plan = append(plan, ps)
		}
	})
	pm.plans[string(cf.profile)] = plan
	return plan
}

// planShape attaches the literals and weight terms of the monomial to the
// slots of the shape, or returns nil when the shape cannot support the
// monomial.
func (pm *preparedMonomial) planShape(sh *shape) *plannedShape {
	tree := buildShapeTree(sh)
	ps := &plannedShape{
		tree:         tree,
		slotVars:     make([]uint64, tree.numSlots),
		slotLiterals: make([][]int, tree.numSlots),
		slotWeights:  make([][]int, tree.numSlots),
	}
	for v, slot := range tree.varSlot {
		ps.slotVars[slot] |= 1 << uint(v)
	}
	// deepestSlot returns the deepest slot among the argument variables and
	// whether every argument slot is an ancestor of (or equal to) it, i.e. the
	// arguments are pairwise comparable.
	deepestSlot := func(args []int) (int, bool) {
		best := tree.varSlot[args[0]]
		for _, v := range args[1:] {
			if slot := tree.varSlot[v]; tree.slotDepth[slot] > tree.slotDepth[best] {
				best = slot
			}
		}
		for _, v := range args {
			if !tree.isAncestor(tree.varSlot[v], best) {
				return best, false
			}
		}
		return best, true
	}
	for li, l := range pm.literals {
		if l.IsEquality() {
			continue // consumed by the shape constraints
		}
		slot, comparable := deepestSlot(pm.litArgs[li])
		if !comparable {
			if l.Positive {
				// Cannot be satisfied within this shape (enumeration should
				// already have pruned it, but stay safe).
				return nil
			}
			// Negative literal over a non-clique: automatically satisfied.
			continue
		}
		ps.slotLiterals[slot] = append(ps.slotLiterals[slot], li)
	}
	for wi := range pm.weights {
		slot, comparable := deepestSlot(pm.weightArgs[wi])
		if !comparable {
			// A weight of arity ≥ 2 is zero outside relation tuples, hence
			// zero on non-cliques: the whole monomial vanishes on this shape.
			return nil
		}
		ps.slotWeights[slot] = append(ps.slotWeights[slot], wi)
	}
	return ps
}

// isAncestor reports whether slot a is an ancestor of (or equal to) slot s.
func (t *shapeTree) isAncestor(a, s int) bool {
	for s >= 0 {
		if s == a {
			return true
		}
		s = t.slotParent[s]
	}
	return false
}

// shapeBuilder compiles one (monomial, box, planned shape) triple into a
// circuit over the box's forest, following the recursion of Claim 1 in the
// paper: at each level, a permanent assigns the shape slots injectively to
// data nodes, and the entries recurse into the corresponding subtrees.  When
// no data node can take two of a level's slots, every assignment is already
// injective and the permanent is the product of its row sums: the level
// compiles to that product, each sum a deterministic OR since each entry
// fixes a different data node.  A one-slot level is this case — injectivity
// over one slot is vacuous — so only a level where two slots can take one
// data node, and injectivity is real, stays a permanent gate.
type shapeBuilder struct {
	env *compileEnv
	cf  *colorForest
	pm  *preparedMonomial
	ps  *plannedShape
	// assign[s] is the data node (subgraph index) of slot s on the current
	// root-to-slot path.
	assign []int
	// entries holds the cells of the levels being collected, one run per
	// open level: a level appends after the runs of the levels enclosing it
	// and cuts the buffer back to where its run began once its cells are
	// collected (Perm copies them).
	entries []circuit.PermEntry
	// factors collects the factors of one entry once its subtree is built,
	// and a level's row sums once its cells are collected; Add and Mul only
	// read them, so every entry and level reuses the buffer.
	factors []int
}

// build compiles the shape into a circuit gate, the zero gate when no tuple
// of the box has this shape.
func (b *shapeBuilder) build() int {
	return b.rec(b.ps.tree.roots, b.cf.forest.Roots())
}

// rec builds the circuit assigning the given shape slots (all at one depth,
// sharing a parent) injectively to the candidate data nodes: a permanent
// when two slots can take one data node, the product of the rows' sums of
// live entries, in candidate order, when none can.
func (b *shapeBuilder) rec(slots []int, candidates []int) int {
	c := b.env.c
	if len(slots) == 0 {
		return c.One()
	}
	base, cols := len(b.entries), 0
	var filled uint64 // the rows (at most one per variable) that have an entry
	shared := false   // whether some column has entries in two rows
	for _, v := range candidates {
		var rows uint64 // the rows with an entry in this column
		for ri, s := range slots {
			g := b.entry(s, v)
			if g == c.Zero() {
				continue
			}
			if rows == 0 {
				cols++
			}
			rows |= 1 << uint(ri)
			b.entries = append(b.entries, circuit.PermEntry{Row: ri, Col: cols - 1, Gate: g})
		}
		filled |= rows
		shared = shared || rows&(rows-1) != 0
	}
	entries := b.entries[base:]
	b.entries = b.entries[:base]
	if filled != 1<<uint(len(slots))-1 {
		return c.Zero() // a slot no data node can take: the level is zero
	}
	if shared {
		return c.Perm(len(slots), cols, entries)
	}
	sums := b.factors[:0]
	for r := range slots {
		at := len(sums)
		for _, e := range entries {
			if e.Row == r {
				sums = append(sums, e.Gate)
			}
		}
		sums = append(sums[:at], c.Add(sums[at:]...))
	}
	b.factors = sums
	return c.Mul(sums...)
}

// entry builds the circuit for assigning data node v to shape slot s, the
// data nodes of all ancestor slots being fixed in b.assign.  The checks that
// decide structurally — candidate membership, static literals, the subtree —
// come before any input gate is requested, so a dead entry leaves none behind.
func (b *shapeBuilder) entry(s, v int) int {
	env, c := b.env, b.env.c
	// v must be a candidate of every variable mapped to s.
	if want := b.ps.slotVars[s]; env.member[b.cf.toOrig[v]]&want != want {
		return c.Zero()
	}
	b.assign[s] = v
	for _, li := range b.ps.slotLiterals[s] {
		if r := b.pm.rels[li]; r != nil && r.Has(b.tuple(b.pm.litArgs[li])...) != b.pm.literals[li].Positive {
			return c.Zero()
		}
	}
	child := b.rec(b.ps.tree.slotChildren[s], b.cf.forest.Children(v))
	if child == c.Zero() {
		return c.Zero()
	}
	factors := b.factors[:0]
	for _, li := range b.ps.slotLiterals[s] {
		if l := b.pm.literals[li]; env.dyn[l.Rel] {
			factors = append(factors, c.Input(l.Rel, membershipRole(l.Positive), b.tuple(b.pm.litArgs[li])))
		}
	}
	for _, wi := range b.ps.slotWeights[s] {
		factors = append(factors, c.Input(b.pm.weights[wi].W, structure.Ordinary, b.tuple(b.pm.weightArgs[wi])))
	}
	if len(factors) == 0 {
		return child
	}
	b.factors = append(factors, child)
	return c.Mul(b.factors...)
}

// tuple resolves the argument variables of a literal or weight term to
// original elements under the current slot assignment.  The result lives in
// a scratch buffer valid until the next call.
func (b *shapeBuilder) tuple(args []int) structure.Tuple {
	t := b.env.tuple[:0]
	for _, v := range args {
		t = append(t, b.cf.toOrig[b.assign[b.ps.tree.varSlot[v]]])
	}
	b.env.tuple = t
	return t
}

// membershipRole is the role of the 0/1 input v⁺_R (positive) or v⁻_R of
// Lemma 40 at a tuple of a dynamic relation R.
func membershipRole(positive bool) structure.Role {
	if positive {
		return structure.Member
	}
	return structure.NonMember
}
