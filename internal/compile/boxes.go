package compile

// This file implements steps 2 and 3 of the pipeline (see shapes.go): the
// enumeration of the boxes of candidate sets that a monomial's positive
// literals over static relations realise, and the compilation of each box
// over the forest of its elements.

import (
	"encoding/binary"
	"slices"

	"repro/internal/circuit"
)

// maxJoinedVars bounds the variables of one monomial (candidate-set
// membership is stored as one 64-bit mask per element).
const maxJoinedVars = 64

// link ties a variable to one visited before it: the two must take equal or
// Gaifman-adjacent elements (equal ones only, when equal is set) on which
// the literals lits hold.
type link struct {
	to    int
	equal bool
	// lits are the positive literals over static relations whose variables
	// are exactly the two linked ones.
	lits []int
	// run is the first of lits over a binary relation, whose index lists the
	// partners of an element directly, or -1 when there is none and partners
	// are found among the element's Gaifman neighbours.  Every partner the
	// run lists satisfies run, so only the others of lits are tested on it.
	run    int
	others []int
}

// unwalked returns the literals of the link that walking an element's
// partners does not prove: the others when the walk follows the run, all of
// them otherwise.
func (ln link) unwalked() []int {
	if ln.run >= 0 && !ln.equal {
		return ln.others
	}
	return ln.lits
}

// joinPlan is what the box enumeration needs of a monomial.
type joinPlan struct {
	// order lists the variables so that each is linked to an earlier one
	// whenever the monomial's link graph allows.
	order []int
	// unary[i] are the positive literals over static relations whose only
	// variable is i.
	unary [][]int
	// links[i] are i's links to the variables before it in order.
	links [][]link
}

// joinPlanFor derives the join plan of a monomial.  Two variables are linked
// when they share a positive relation literal or a weight term of arity ≥ 2
// (comparePairs: they must be equal or adjacent, whether or not the relation
// is dynamic) or a positive equality.
func (env *compileEnv) joinPlanFor(pm *preparedMonomial) *joinPlan {
	k := len(pm.vars)
	type pair struct {
		linked, equal bool
		lits          []int
		run           int
	}
	pairs := make([][]pair, k)
	for i := range pairs {
		pairs[i] = make([]pair, k)
		for j := range pairs[i] {
			pairs[i][j].run = -1
		}
	}
	for _, p := range pm.comparePairs() {
		pairs[p[0]][p[1]].linked, pairs[p[1]][p[0]].linked = true, true
	}
	jp := &joinPlan{unary: make([][]int, k), links: make([][]link, k)}
	for li, l := range pm.literals {
		if !l.Positive {
			continue
		}
		args := pm.litArgs[li]
		if l.IsEquality() {
			pairs[args[0]][args[1]].equal, pairs[args[1]][args[0]].equal = true, true
			continue
		}
		if env.dyn[l.Rel] {
			continue // an input of the circuit: its membership filters nothing
		}
		switch vars := slices.Compact(slices.Sorted(slices.Values(args))); len(vars) {
		case 1:
			jp.unary[vars[0]] = append(jp.unary[vars[0]], li)
		case 2:
			i, j := vars[0], vars[1]
			pairs[i][j].lits = append(pairs[i][j].lits, li)
			pairs[j][i].lits = pairs[i][j].lits
			if pairs[i][j].run < 0 && len(args) == 2 {
				pairs[i][j].run, pairs[j][i].run = li, li
			}
		}
	}
	linked := func(i, j int) bool { return pairs[i][j].linked || pairs[i][j].equal }
	for len(jp.order) < k {
		// The first unvisited variable linked to a visited one, else the
		// first unvisited one.
		next := -1
		for i := 0; i < k; i++ {
			if slices.Contains(jp.order, i) {
				continue
			}
			isLinked := slices.ContainsFunc(jp.order, func(j int) bool { return linked(i, j) })
			if isLinked || next < 0 {
				next = i
			}
			if isLinked {
				break
			}
		}
		for _, j := range jp.order {
			if linked(next, j) {
				p := pairs[next][j]
				ln := link{to: j, equal: p.equal, lits: p.lits, run: p.run}
				if p.run >= 0 {
					ln.others = slices.DeleteFunc(slices.Clone(p.lits), func(li int) bool { return li == p.run })
				}
				jp.links[next] = append(jp.links[next], ln)
			}
		}
		jp.order = append(jp.order, next)
	}
	return jp
}

// boxEnum enumerates the boxes of one monomial: it assigns the variables in
// join-plan order a colour and a candidate set each, keeping the candidate
// sets of linked variables supported by one another.
type boxEnum struct {
	env *compileEnv
	pm  *preparedMonomial
	jp  *joinPlan
	// colors[i] and cand[i] are the colour and the candidate set (increasing,
	// never modified in place) of every variable assigned so far;
	// env.member mirrors cand.
	colors []int
	cand   [][]int
	gates  []int
	// arena holds, stacked, the filtered pools, reaches and candidate sets
	// of the visit and try frames open, and the shape gates of the box being
	// compiled: a frame appends its sets and cuts the arena back to where
	// they began when it returns.  A set is never modified once built, so
	// its slice stays valid when a later append moves the arena.
	arena []int
	// shrunk[t] holds the candidate sets the t-th variable's try replaced,
	// to put back, one per link.
	shrunk [][][]int
	// assign, entries and factors are the shape builders' slot-assignment,
	// permanent-cell and entry-factor scratch.
	assign  []int
	entries []circuit.PermEntry
	factors []int
}

// compileJoined handles monomials with at least two bound variables.  The
// aggregation space is partitioned into boxes ∏ cand[i], every cand[i] inside
// one colour class, and each box is compiled over an elimination forest by
// shapes.  Only the boxes the data realises are visited: a tuple outside
// every box violates a positive literal over a static relation, or puts
// linked variables on non-adjacent elements, and contributes zero whatever
// the weights and the dynamic relations become.
func (env *compileEnv) compileJoined(pm *preparedMonomial) (int, error) {
	k := len(pm.vars)
	e := &boxEnum{env: env, pm: pm, jp: env.joinPlanFor(pm), colors: make([]int, k), cand: make([][]int, k), shrunk: make([][][]int, k)}
	for t, i := range e.jp.order {
		e.shrunk[t] = make([][]int, len(e.jp.links[i]))
	}
	if err := e.visit(0); err != nil {
		return 0, err
	}
	return env.c.Add(e.gates...), nil
}

// visit assigns the t-th variable of the order every colour its links allow
// and recurses; with all variables assigned it compiles the box.
func (e *boxEnum) visit(t int) error {
	if t == len(e.jp.order) {
		return e.compileBox()
	}
	i := e.jp.order[t]
	if len(e.jp.links[i]) == 0 {
		// Unlinked: every non-empty colour class, whole unless a unary
		// literal filters it.
		for c, class := range e.env.colorClasses {
			pool, base := class, len(e.arena)
			if len(e.jp.unary[i]) > 0 {
				for _, a := range class {
					if e.holds(e.jp.unary[i], i, a, a) {
						e.arena = append(e.arena, a)
					}
				}
				pool = e.arena[base:]
			}
			err := e.try(t, c, pool, -1)
			e.arena = e.arena[:base]
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Linked: only the colours occurring among the elements equal or
	// adjacent to a linked candidate set.
	base := len(e.arena)
	defer func() { e.arena = e.arena[:base] }()
	reach, proven := e.reach(i)
	for lo, hi := 0, 0; lo < len(reach); lo = hi {
		c := e.env.color[reach[lo]]
		for hi < len(reach) && e.env.color[reach[hi]] == c {
			hi++
		}
		if err := e.try(t, c, reach[lo:hi], proven); err != nil {
			return err
		}
	}
	return nil
}

// reach collects the elements variable i may take given one of its links —
// an equality if there is one, else the link with the smallest candidate set
// — that satisfy i's unary literals, ordered by colour and then by element.
// It costs the degrees of that candidate set, not the size of a colour class.
// The elements are appended to the arena.  The walk tests none of the link's
// literals; when it leaves none unproven (see unwalked), every element
// reached has a partner on the link, and proven is the link's index among
// i's links, else -1.
func (e *boxEnum) reach(i int) (reach []int, proven int) {
	env := e.env
	links := e.jp.links[i]
	proven = 0
	for li, ln := range links[1:] {
		if from := links[proven]; !from.equal && (ln.equal || len(e.cand[ln.to]) < len(e.cand[from.to])) {
			proven = li + 1
		}
	}
	from := links[proven]
	base := len(e.arena)
	e.walk(e.cand[from.to], from.to, from, false)
	keys := env.keys[:0]
	for _, a := range e.arena[base:] {
		if e.holds(e.jp.unary[i], i, a, a) {
			keys = append(keys, uint64(env.color[a])<<32|uint64(a))
		}
	}
	slices.Sort(keys)
	reach = e.arena[base : base+len(keys)]
	for k, key := range keys {
		reach[k] = int(uint32(key))
	}
	e.arena, env.keys = e.arena[:base+len(keys)], keys
	if len(from.unwalked()) > 0 {
		proven = -1
	}
	return reach, proven
}

// walk stamps under a fresh generation of env.seen, and appends to the arena
// once each, the partners of the elements of set, taken by variable v, on
// link ln: each element itself when the link is an equality, its run in the
// link's binary relation when the link has one, else itself and its Gaifman
// neighbours.  With test set it keeps only the partners on which the
// literals the walk leaves unproven hold.
func (e *boxEnum) walk(set []int, v int, ln link, test bool) {
	env := e.env
	lits := ln.unwalked()
	if !test {
		lits = nil
	}
	env.nextGen()
	stamp := func(a, b int) {
		if env.seen[b] != env.seenGen && e.holds(lits, v, a, b) {
			env.seen[b] = env.seenGen
			e.arena = append(e.arena, b)
		}
	}
	for _, a := range set {
		if ln.run >= 0 && !ln.equal {
			for _, b := range e.partners(a, v, ln.run) {
				stamp(a, b)
			}
			continue
		}
		stamp(a, a)
		if !ln.equal {
			for _, b := range env.gaifman.Neighbors(a) {
				stamp(a, b)
			}
		}
	}
}

// try gives the t-th variable colour c and, as its candidate set, the
// elements of pool that have a partner in the candidate set of every linked
// variable, testing every link but the proven one, whose partners reach
// already found; it shrinks those sets to the elements that have a partner
// in the new one, recurses unless a set emptied, and restores them.  The sets
// it builds go on the arena, which it cuts back before it returns.
func (e *boxEnum) try(t, c int, pool []int, proven int) error {
	i := e.jp.order[t]
	links := e.jp.links[i]
	base := len(e.arena)
	defer func() { e.arena = e.arena[:base] }()
	cand := pool
	if len(links) > 0 && (proven < 0 || len(links) > 1) {
	pool:
		for _, a := range pool {
			for li, ln := range links {
				if li != proven && !e.hasPartner(a, i, ln) {
					continue pool
				}
			}
			e.arena = append(e.arena, a)
		}
		cand = e.arena[base:]
	}
	if len(cand) == 0 {
		if len(pool) > 0 {
			e.env.stats.PrunedAssignments++
		}
		return nil
	}
	e.colors[i], e.cand[i] = c, cand
	e.mark(i, cand, true)
	shrunk := e.shrunk[t]
	clear(shrunk)
	alive := true
	for li, ln := range links {
		// The old set's elements that have a partner in the new one are
		// those a walk of the new set's partners stamps.
		old, start := e.cand[ln.to], len(e.arena)
		e.walk(cand, i, ln, true)
		e.arena = e.arena[:start]
		for _, b := range old {
			if e.env.seen[b] == e.env.seenGen {
				e.arena = append(e.arena, b)
			}
		}
		kept := e.arena[start:]
		if len(kept) == len(old) {
			e.arena = e.arena[:start]
			continue
		}
		shrunk[li], e.cand[ln.to] = old, kept
		e.mark(ln.to, old, false)
		e.mark(ln.to, kept, true)
		if len(kept) == 0 {
			alive = false
			break
		}
	}
	var err error
	if alive {
		err = e.visit(t + 1)
	} else {
		e.env.stats.PrunedAssignments++
	}
	for li, ln := range links {
		if old := shrunk[li]; old != nil {
			e.cand[ln.to] = old
			e.mark(ln.to, old, true)
		}
	}
	e.mark(i, cand, false)
	return err
}

// mark records (or erases) that the elements are candidates of variable i.
func (e *boxEnum) mark(i int, elements []int, in bool) {
	bit := uint64(1) << uint(i)
	for _, a := range elements {
		if in {
			e.env.member[a] |= bit
		} else {
			e.env.member[a] &^= bit
		}
	}
}

// hasPartner reports whether element a, standing for variable va, has a
// partner among the candidates of variable ln.to: an element equal to a or,
// unless the link is an equality, adjacent to it, on which the link's
// literals hold.  It scans the run of a in the link's binary relation when
// there is one, else a's adjacency list, never a colour class.
func (e *boxEnum) hasPartner(a, va int, ln link) bool {
	bit := uint64(1) << uint(ln.to)
	if ln.equal {
		return e.env.member[a]&bit != 0 && e.holds(ln.lits, va, a, a)
	}
	if ln.run >= 0 {
		for _, b := range e.partners(a, va, ln.run) {
			if e.env.member[b]&bit != 0 && e.holds(ln.others, va, a, b) {
				return true
			}
		}
		return false
	}
	if e.env.member[a]&bit != 0 && e.holds(ln.lits, va, a, a) {
		return true
	}
	for _, b := range e.env.gaifman.Neighbors(a) {
		if e.env.member[b]&bit != 0 && e.holds(ln.lits, va, a, b) {
			return true
		}
	}
	return false
}

// partners lists the elements the other variable of the binary literal li
// may take when variable va takes a: a's forward run in the literal's
// relation when va is its first argument, a's reverse run otherwise.  Every
// partner but a itself is a Gaifman neighbour of a.
func (e *boxEnum) partners(a, va, li int) []int {
	if e.pm.litArgs[li][0] == va {
		return e.pm.rels[li].Forward(a)
	}
	return e.pm.rels[li].Reverse(a)
}

// holds reports whether the static relations contain the tuples of the given
// literals when variable va takes a and their other variable takes b.
func (e *boxEnum) holds(lits []int, va, a, b int) bool {
	for _, li := range lits {
		t := e.env.tuple[:0]
		for _, v := range e.pm.litArgs[li] {
			if v == va {
				t = append(t, a)
			} else {
				t = append(t, b)
			}
		}
		e.env.tuple = t
		if !e.pm.rels[li].Has(t...) {
			return false
		}
	}
	return true
}

// compileBox compiles the monomial over the box ∏ e.cand[i]: an elimination
// forest of the subgraph its elements induce, the monomial's shape plan for
// that forest's profile, one circuit per planned shape.
func (e *boxEnum) compileBox() error {
	env := e.env
	env.stats.ColorAssignments++
	cf, err := env.forestFor(e.colors, e.cand)
	if err != nil {
		return err
	}
	if cf.maxDepth > env.stats.MaxForestDepth {
		env.stats.MaxForestDepth = cf.maxDepth
	}
	base := len(e.arena)
	for _, ps := range e.pm.planFor(cf) {
		env.stats.Shapes++
		e.assign = slices.Grow(e.assign[:0], ps.tree.numSlots)[:ps.tree.numSlots]
		b := shapeBuilder{env: env, cf: cf, pm: e.pm, ps: ps, assign: e.assign, entries: e.entries, factors: e.factors}
		if g := b.build(); g != env.c.Zero() {
			e.arena = append(e.arena, g)
		}
		e.entries, e.factors = b.entries, b.factors
	}
	g := env.c.Add(e.arena[base:]...)
	e.arena = e.arena[:base]
	if g != env.c.Zero() {
		e.gates = append(e.gates, g)
	}
	return nil
}

// forestFor returns the elimination forest of the Gaifman subgraph induced
// by the union of the candidate sets, valid until the next call.  When every
// set is its whole colour class the forest depends on the set of colours
// only and is cached, so monomials without links share one forest per
// colour set; the key, the set's colours in increasing order as uvarints, is
// built in scratch and allocates only when it is stored.
func (env *compileEnv) forestFor(colors []int, cand [][]int) (*colorForest, error) {
	whole := true
	for i, c := range colors {
		whole = whole && len(cand[i]) == len(env.colorClasses[c])
	}
	if whole {
		set := append(env.colorSet[:0], colors...)
		slices.Sort(set)
		key := env.colorKey[:0]
		for _, c := range slices.Compact(set) {
			key = binary.AppendUvarint(key, uint64(c))
		}
		env.colorSet, env.colorKey = set, key
		if cf, ok := env.forests[string(key)]; ok {
			return cf, nil
		}
	}
	env.nextGen()
	vertices := env.vertices[:0]
	for _, set := range cand {
		for _, a := range set {
			if env.seen[a] != env.seenGen {
				env.seen[a] = env.seenGen
				vertices = append(vertices, a)
			}
		}
	}
	slices.Sort(vertices)
	env.vertices = vertices
	cf, err := env.scratch.build(vertices)
	if err != nil {
		return nil, err
	}
	env.stats.Forests++
	if whole {
		cf = cf.clone()
		env.forests[string(env.colorKey)] = cf
	}
	return cf, nil
}
