// Package qe provides the quantifier-elimination substrate used before
// compilation (the role played by Theorem 3 of the paper, due to
// Dvořák–Král–Thomas).
//
// The paper uses full first-order quantifier elimination on classes of
// bounded expansion as a black box.  This implementation covers the guarded
// existential fragment, which suffices for every concrete query appearing in
// the paper (triangles, PageRank, provenance, local search, nested
// aggregates): an existential quantifier ∃y ψ is eliminated when ψ is
// quantifier-free (after recursive elimination) and every atom of ψ
// containing y contains at most one other variable x (the same x for all
// such atoms), so that ∃y ψ defines a unary property of x.  The property is
// decided for every element a in time linear in a's degree: the named
// witnesses are a and its neighbours in the Gaifman graph, and every other
// witness is far from a, where ψ sees only which atoms on y alone it
// satisfies — its type — so one test per type present among the far elements
// settles the rest.  The derived property is materialised as a fresh unary
// relation on a view of the structure (structure.Extend), which shares the
// input's relations and Gaifman graph.
//
// Formulas outside the fragment, and quantifiers over a forbidden (dynamic)
// relation, are rejected with a descriptive error rather than silently
// mis-evaluated.
package qe

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/structure"
)

// Result is the outcome of eliminating quantifiers from a formula: an
// equivalent quantifier-free formula over an extended signature, the
// extended structure interpreting the derived predicates, and bookkeeping
// about what was added.
type Result struct {
	// Formula is the quantifier-free rewriting.
	Formula logic.Formula
	// Structure interprets the derived predicates; it shares the domain and
	// the Gaifman graph of the input structure.
	Structure *structure.Structure
	// Derived lists the names of the derived unary predicates, in the order
	// they were introduced.
	Derived []string
}

// eliminator carries the mutable state of one elimination run.
type eliminator struct {
	// work is the working structure: the input structure progressively
	// extended with the derived unary predicates, so that inner derived
	// predicates are visible when eliminating outer quantifiers.
	work    *structure.Structure
	derived []string
	counter int
	// forbidden relations (e.g. dynamic relations) may not occur under a
	// quantifier.
	forbidden []string
}

// Eliminate rewrites every quantifier in f that falls into the guarded
// existential fragment, materialising derived unary predicates on a view of
// a.  Relations listed in forbidden (typically the dynamic relations of
// Theorem 24) must not occur under an eliminated quantifier.
func Eliminate(a *structure.Structure, f logic.Formula, forbidden []string) (*Result, error) {
	e := &eliminator{work: a, forbidden: forbidden}
	out, err := e.rewrite(f)
	if err != nil {
		return nil, err
	}
	return &Result{Formula: out, Derived: e.derived, Structure: e.work}, nil
}

// extend extends the working structure by a unary relation holding the given
// members, in the order given: a view that shares the structure it extends.
func (e *eliminator) extend(name string, members []structure.Element) error {
	sig := e.work.Sig
	rels := append(slices.Clone(sig.Relations), structure.RelSymbol{Name: name, Arity: 1})
	ext, err := structure.NewSignature(rels, sig.Weights)
	if err != nil {
		return &Error{Detail: fmt.Sprintf("extending signature with %s", name), Err: err}
	}
	tuples := make([]structure.Tuple, len(members))
	for i := range members {
		tuples[i] = members[i : i+1 : i+1]
	}
	e.work, err = e.work.Extend(ext, tuples)
	return err
}

// rewrite eliminates quantifiers bottom-up.
func (e *eliminator) rewrite(f logic.Formula) (logic.Formula, error) {
	switch g := f.(type) {
	case logic.Atom, logic.Eq, logic.Truth:
		return f, nil
	case logic.Not:
		arg, err := e.rewrite(g.Arg)
		if err != nil {
			return nil, err
		}
		return logic.Neg(arg), nil
	case logic.And:
		args, err := e.rewriteAll(g.Args)
		if err != nil {
			return nil, err
		}
		return logic.Conj(args...), nil
	case logic.Or:
		args, err := e.rewriteAll(g.Args)
		if err != nil {
			return nil, err
		}
		return logic.Disj(args...), nil
	case logic.Forall:
		// ∀y ψ ≡ ¬∃y ¬ψ.
		return e.rewrite(logic.Neg(logic.Exists{Var: g.Var, Arg: logic.Neg(g.Arg)}))
	case logic.Exists:
		arg, err := e.rewrite(g.Arg)
		if err != nil {
			return nil, err
		}
		return e.eliminateExists(g.Var, arg)
	default:
		return nil, &Error{Detail: fmt.Sprintf("unknown formula type %T", f)}
	}
}

func (e *eliminator) rewriteAll(fs []logic.Formula) ([]logic.Formula, error) {
	args := make([]logic.Formula, len(fs))
	for i, f := range fs {
		a, err := e.rewrite(f)
		if err != nil {
			return nil, err
		}
		args[i] = a
	}
	return args, nil
}

// eliminateExists handles ∃y ψ for quantifier-free ψ.
func (e *eliminator) eliminateExists(y string, psi logic.Formula) (logic.Formula, error) {
	if !logic.IsQuantifierFree(psi) {
		return nil, failf(y, parser.FormatFormula(psi),
			fmt.Sprintf("nested quantifier under ∃%s could not be eliminated", y))
	}
	// Check the dynamic relations and guardedness: every atom containing y
	// mentions at most one other variable, and that variable is the same
	// across all such atoms.
	guard := ""
	for _, atom := range logic.CollectAtoms(psi) {
		if a, ok := atom.(logic.Atom); ok && slices.Contains(e.forbidden, a.Rel) {
			return nil, failf(y, parser.FormatFormula(psi),
				fmt.Sprintf("dynamic relation %s occurs under ∃%s; dynamic relations cannot appear under quantifiers", a.Rel, y))
		}
		vars := logic.FreeVars(atom)
		if !slices.Contains(vars, y) {
			continue
		}
		for _, v := range vars {
			if v == y {
				continue
			}
			if guard == "" {
				guard = v
			} else if guard != v {
				return nil, failf(y, parser.FormatFormula(psi),
					fmt.Sprintf("∃%s is not guarded: atoms link %s to both %s and %s ; the supported fragment guards ∃%s by atoms linking %s to a single other variable", y, y, guard, v, y, y))
			}
		}
	}
	free := logic.FreeVars(psi)
	if !slices.Contains(free, y) {
		// ∃y ψ with y not free holds iff ψ does and the domain is non-empty.
		if e.work.N == 0 {
			return logic.False(), nil
		}
		return psi, nil
	}
	others := slices.DeleteFunc(free, func(v string) bool { return v == y })
	if guard == "" && len(others) != 0 {
		return nil, failf(y, parser.FormatFormula(psi),
			fmt.Sprintf("∃%s mixes atoms on %s with free variables %v without a common guard (outside the supported fragment)", y, y, others))
	}
	// The derived predicate is unary in the guard, so ψ may not have further
	// free variables.
	for _, v := range others {
		if v != guard {
			return nil, failf(y, parser.FormatFormula(psi),
				fmt.Sprintf("∃%s ψ has free variables %v besides the guard %s ; the supported fragment guards ∃%s by atoms linking %s to a single other variable, the only one ψ may mention", y, others, guard, y, y))
		}
	}
	s := &search{work: e.work, y: y}
	s.psi = s.resolve(psi)
	if len(s.diagonal) > 64 {
		return nil, failf(y, parser.FormatFormula(psi),
			fmt.Sprintf("∃%s ψ tests %d relations on %s alone; at most 64 are supported", y, len(s.diagonal), y))
	}
	s.countTypes()
	if guard == "" {
		// ∃y ψ is a sentence: with no guard to be near, every witness is
		// far, and a type decides ψ for all its elements.
		for _, typ := range s.types {
			if s.holds(&s.psi, -1, -1, typ) {
				return logic.True(), nil
			}
		}
		return logic.False(), nil
	}
	// Materialise the derived predicate P(guard) ≡ ∃y ψ(guard, y).
	e.counter++
	name := fmt.Sprintf(".qe%d", e.counter)
	e.derived = append(e.derived, name)
	var members []structure.Element
	g := e.work.Gaifman() // the input's: a view shares it
	for a := range e.work.N {
		if s.witnessed(a, g.Neighbors(a)) {
			members = append(members, a)
		}
	}
	if err := e.extend(name, members); err != nil {
		return nil, err
	}
	return logic.R(name, guard), nil
}

// search decides ∃y ψ(a, y) for the elements a of a structure, ψ being
// quantifier free over y and at most one other variable, the guard.
type search struct {
	work *structure.Structure
	y    string
	psi  node
	// diagonal lists the distinct atoms of ψ on y alone, R(y,…,y), each
	// determined by its relation and arity; atom i is bit i of a type.
	diagonal []diagonalAtom
	// masks[w] is the type of element w: the diagonal atoms it satisfies.
	masks []uint64
	// types lists the distinct types in increasing order, counts how many
	// elements have each.
	types  []uint64
	counts []int
	// tuple is the scratch buffer an atom's arguments are resolved into.
	tuple structure.Tuple
}

type diagonalAtom struct {
	rel   *structure.Relation
	arity int
}

// node is a connective or an atom of ψ resolved against the working
// structure.  A Truth is the empty conjunction (true) or disjunction (false).
type node struct {
	op   op
	kids []node
	// rel is an atom's relation handle, and onY[i] reports whether its
	// argument i is y (otherwise it is the guard).
	rel *structure.Relation
	onY []bool
	// mixed reports that an atom, or an equality, links y to the guard.
	mixed bool
	// bit is the index of an atom on y alone in diagonal, −1 for any other.
	bit int
}

type op uint8

const (
	opAnd op = iota
	opOr
	opNot
	opEq
	opAtom
)

// resolve turns quantifier-free ψ into its node tree, numbering the diagonal
// atoms as it meets them.
func (s *search) resolve(f logic.Formula) node {
	switch g := f.(type) {
	case logic.Truth:
		if g.Value {
			return node{op: opAnd}
		}
		return node{op: opOr}
	case logic.Eq:
		return node{op: opEq, mixed: (g.Left == s.y) != (g.Right == s.y)}
	case logic.Atom:
		n := node{op: opAtom, rel: s.work.Relation(g.Rel), onY: make([]bool, len(g.Args)), bit: -1}
		ys := 0
		for i, v := range g.Args {
			if v == s.y {
				n.onY[i] = true
				ys++
			}
		}
		n.mixed = ys > 0 && ys < len(g.Args)
		if ys > 0 && ys == len(g.Args) {
			d := diagonalAtom{rel: n.rel, arity: ys}
			if n.bit = slices.Index(s.diagonal, d); n.bit < 0 {
				n.bit, s.diagonal = len(s.diagonal), append(s.diagonal, d)
			}
		}
		return n
	case logic.Not:
		return node{op: opNot, kids: []node{s.resolve(g.Arg)}}
	case logic.And:
		return node{op: opAnd, kids: s.resolveAll(g.Args)}
	case logic.Or:
		return node{op: opOr, kids: s.resolveAll(g.Args)}
	default:
		panic(fmt.Sprintf("qe: unexpected formula %T in a quantifier-free ψ", f))
	}
}

func (s *search) resolveAll(fs []logic.Formula) []node {
	kids := make([]node, len(fs))
	for i, f := range fs {
		kids[i] = s.resolve(f)
	}
	return kids
}

// countTypes computes every element's type and counts the distinct ones.
func (s *search) countTypes() {
	s.masks = make([]uint64, s.work.N)
	for w := range s.masks {
		for i, d := range s.diagonal {
			t := s.tuple[:0]
			for range d.arity {
				t = append(t, w)
			}
			s.tuple = t
			if d.rel.Has(t...) {
				s.masks[w] |= 1 << i
			}
		}
	}
	sorted := slices.Clone(s.masks)
	slices.Sort(sorted)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		s.types = append(s.types, sorted[i])
		s.counts = append(s.counts, j-i)
		i = j
	}
}

// witnessed reports whether ψ(a, w) holds for some element w.  The named
// witnesses are a and its Gaifman neighbours nbrs; every other element is far
// from a, and a far witness of type typ exists when more elements have that
// type than a and its neighbours.
func (s *search) witnessed(a int, nbrs []int) bool {
	if s.holds(&s.psi, a, a, s.masks[a]) {
		return true
	}
	for _, w := range nbrs {
		if s.holds(&s.psi, a, w, s.masks[w]) {
			return true
		}
	}
	for i, typ := range s.types {
		if !s.holds(&s.psi, a, -1, typ) {
			continue
		}
		near := 0
		if s.masks[a] == typ {
			near++
		}
		for _, w := range nbrs {
			if s.masks[w] == typ {
				near++
			}
		}
		if s.counts[i] > near {
			return true
		}
	}
	return false
}

// holds evaluates ψ's node n with the guard at a and y at witness w of type
// typ.  A negative w is a far witness: distinct from every named element and
// adjacent to none, so every atom or equality linking it to a is false.
func (s *search) holds(n *node, a, w int, typ uint64) bool {
	switch n.op {
	case opAnd:
		for i := range n.kids {
			if !s.holds(&n.kids[i], a, w, typ) {
				return false
			}
		}
		return true
	case opOr:
		for i := range n.kids {
			if s.holds(&n.kids[i], a, w, typ) {
				return true
			}
		}
		return false
	case opNot:
		return !s.holds(&n.kids[0], a, w, typ)
	case opEq:
		return !n.mixed || a == w
	}
	switch {
	case n.bit >= 0:
		return typ>>n.bit&1 != 0
	case n.mixed && w < 0:
		return false
	}
	t := s.tuple[:0]
	for _, isY := range n.onY {
		if isY {
			t = append(t, w)
		} else {
			t = append(t, a)
		}
	}
	s.tuple = t
	return n.rel.Has(t...)
}
