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
	}
	pairs := make([][]pair, k)
	for i := range pairs {
		pairs[i] = make([]pair, k)
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
				jp.links[next] = append(jp.links[next], link{to: j, equal: pairs[next][j].equal, lits: pairs[next][j].lits})
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
	// assign and entries are the shape builders' slot-assignment and
	// permanent-cell scratch.
	assign  []int
	entries []circuit.PermEntry
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
	e := &boxEnum{env: env, pm: pm, jp: env.joinPlanFor(pm), colors: make([]int, k), cand: make([][]int, k)}
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
			pool := class
			if len(e.jp.unary[i]) > 0 {
				pool = nil
				for _, a := range class {
					if e.holds(e.jp.unary[i], i, a, a) {
						pool = append(pool, a)
					}
				}
			}
			if err := e.try(t, c, pool); err != nil {
				return err
			}
		}
		return nil
	}
	// Linked: only the colours occurring among the elements equal or
	// adjacent to a linked candidate set.
	reach := e.reach(i)
	for lo, hi := 0, 0; lo < len(reach); lo = hi {
		c := e.env.color[reach[lo]]
		for hi < len(reach) && e.env.color[reach[hi]] == c {
			hi++
		}
		if err := e.try(t, c, reach[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// reach collects the elements variable i may take given one of its links —
// an equality if there is one, else the link with the smallest candidate set
// — that satisfy i's unary literals, ordered by colour and then by element.
// It costs the degrees of that candidate set, not the size of a colour class.
func (e *boxEnum) reach(i int) []int {
	env := e.env
	links := e.jp.links[i]
	from := links[0]
	for _, ln := range links[1:] {
		if !from.equal && (ln.equal || len(e.cand[ln.to]) < len(e.cand[from.to])) {
			from = ln
		}
	}
	env.seenGen++
	var reach []int
	collect := func(a int) {
		if env.seen[a] != env.seenGen {
			env.seen[a] = env.seenGen
			if e.holds(e.jp.unary[i], i, a, a) {
				reach = append(reach, a)
			}
		}
	}
	for _, b := range e.cand[from.to] {
		collect(b)
		if !from.equal {
			for _, a := range env.gaifman.Neighbors(b) {
				collect(a)
			}
		}
	}
	slices.SortFunc(reach, func(a, b int) int {
		if ca, cb := env.color[a], env.color[b]; ca != cb {
			return ca - cb
		}
		return a - b
	})
	return reach
}

// try gives the t-th variable colour c and, as its candidate set, the
// elements of pool that have a partner in the candidate set of every linked
// variable; it shrinks those sets to the elements that have a partner in the
// new one, recurses unless a set emptied, and restores them.
func (e *boxEnum) try(t, c int, pool []int) error {
	i := e.jp.order[t]
	links := e.jp.links[i]
	cand := pool
	if len(links) > 0 {
		cand = nil
	pool:
		for _, a := range pool {
			for _, ln := range links {
				if !e.hasPartner(a, i, ln) {
					continue pool
				}
			}
			cand = append(cand, a)
		}
	}
	if len(cand) == 0 {
		if len(pool) > 0 {
			e.env.stats.PrunedAssignments++
		}
		return nil
	}
	e.colors[i], e.cand[i] = c, cand
	e.mark(i, cand, true)
	shrunk := make([][]int, len(links)) // the sets replaced, to put back
	alive := true
	for li, ln := range links {
		old := e.cand[ln.to]
		var kept []int
		for _, b := range old {
			if e.hasPartner(b, ln.to, link{to: i, equal: ln.equal, lits: ln.lits}) {
				kept = append(kept, b)
			}
		}
		if len(kept) == len(old) {
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
// literals hold.  It walks a's adjacency list, never a colour class.
func (e *boxEnum) hasPartner(a, va int, ln link) bool {
	bit := uint64(1) << uint(ln.to)
	if e.env.member[a]&bit != 0 && e.holds(ln.lits, va, a, a) {
		return true
	}
	if ln.equal {
		return false
	}
	for _, b := range e.env.gaifman.Neighbors(a) {
		if e.env.member[b]&bit != 0 && e.holds(ln.lits, va, a, b) {
			return true
		}
	}
	return false
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
		if !e.env.a.HasTuple(e.pm.literals[li].Rel, t...) {
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
	var gates []int
	for _, ps := range e.pm.planFor(cf) {
		env.stats.Shapes++
		e.assign = slices.Grow(e.assign[:0], ps.tree.numSlots)[:ps.tree.numSlots]
		b := shapeBuilder{env: env, cf: cf, pm: e.pm, ps: ps, assign: e.assign, entries: e.entries}
		if g := b.build(); g != env.c.Zero() {
			gates = append(gates, g)
		}
		e.entries = b.entries
	}
	if g := env.c.Add(gates...); g != env.c.Zero() {
		e.gates = append(e.gates, g)
	}
	return nil
}

// forestFor returns the elimination forest of the Gaifman subgraph induced
// by the union of the candidate sets.  When every set is its whole colour
// class the forest depends on the set of colours only and is cached, so
// monomials without links share one forest per colour set.
func (env *compileEnv) forestFor(colors []int, cand [][]int) (*colorForest, error) {
	whole := true
	for i, c := range colors {
		whole = whole && len(cand[i]) == len(env.colorClasses[c])
	}
	var key string
	if whole {
		key = colorSetKey(colors)
		if cf, ok := env.forests[key]; ok {
			return cf, nil
		}
	}
	env.seenGen++
	var vertices []int
	for _, set := range cand {
		for _, a := range set {
			if env.seen[a] != env.seenGen {
				env.seen[a] = env.seenGen
				vertices = append(vertices, a)
			}
		}
	}
	slices.Sort(vertices)
	cf, err := buildColorForest(env.inducer, vertices)
	if err != nil {
		return nil, err
	}
	env.stats.Forests++
	if whole {
		env.forests[key] = cf
	}
	return cf, nil
}

// colorSetKey encodes the set of colours of an assignment.
func colorSetKey(colors []int) string {
	set := slices.Compact(slices.Sorted(slices.Values(colors)))
	key := make([]byte, 0, 2*len(set))
	for _, c := range set {
		key = binary.AppendUvarint(key, uint64(c))
	}
	return string(key)
}
