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
// such atoms), so that ∃y ψ defines a unary property of x computable in
// linear time by a scan over the tuples incident to each element.  The
// derived property is materialised as a fresh unary relation on a copy of
// the structure, keeping the Gaifman graph unchanged.
//
// Formulas outside the fragment are rejected with a descriptive error
// rather than silently mis-evaluated.
package qe

import (
	"fmt"
	"sort"

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
	sig     *structure.Signature
	derived []string
	// adjacency index: for every element, the tuples (relation, tuple)
	// containing it; built lazily.
	incident map[structure.Element][]incidence
	built    bool
	// typeCount caches the number of elements of each diagonal type.
	typeCount map[string]int
	counter   int
	// forbidden relations (e.g. dynamic relations) may not be folded into
	// derived predicates.
	forbidden map[string]bool
}

type incidence struct {
	rel   string
	tuple structure.Tuple
}

// Eliminate rewrites every quantifier in f that falls into the guarded
// existential fragment, materialising derived unary predicates on a copy of
// a.  Relations listed in forbidden (typically the dynamic relations of
// Theorem 24) must not occur under an eliminated quantifier.
func Eliminate(a *structure.Structure, f logic.Formula, forbidden []string) (*Result, error) {
	e := &eliminator{
		work:      a,
		sig:       a.Sig,
		forbidden: map[string]bool{},
	}
	for _, r := range forbidden {
		e.forbidden[r] = true
	}
	out, err := e.rewrite(f)
	if err != nil {
		return nil, err
	}
	return &Result{Formula: out, Derived: e.derived, Structure: e.work}, nil
}

// extend rebuilds the working structure with an additional unary relation
// holding the given members, and invalidates the eliminator's caches.
func (e *eliminator) extend(name string, members map[structure.Element]bool) error {
	rels := append(append([]structure.RelSymbol(nil), e.sig.Relations...), structure.RelSymbol{Name: name, Arity: 1})
	sig, err := structure.NewSignature(rels, e.sig.Weights)
	if err != nil {
		return &Error{Detail: fmt.Sprintf("extending signature with %s", name), Err: err}
	}
	ext := e.work.OnSignature(sig)
	elems := make([]structure.Element, 0, len(members))
	for el := range members {
		elems = append(elems, el)
	}
	sort.Ints(elems)
	for _, el := range elems {
		ext.MustAddTuple(name, el)
	}
	e.work = ext
	e.sig = sig
	e.built = false
	e.incident = nil
	e.typeCount = nil
	return nil
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
		args := make([]logic.Formula, len(g.Args))
		for i, x := range g.Args {
			a, err := e.rewrite(x)
			if err != nil {
				return nil, err
			}
			args[i] = a
		}
		return logic.Conj(args...), nil
	case logic.Or:
		args := make([]logic.Formula, len(g.Args))
		for i, x := range g.Args {
			a, err := e.rewrite(x)
			if err != nil {
				return nil, err
			}
			args[i] = a
		}
		return logic.Disj(args...), nil
	case logic.Forall:
		// ∀y ψ ≡ ¬∃y ¬ψ.
		inner, err := e.rewrite(logic.Neg(logic.Exists{Var: g.Var, Arg: logic.Neg(g.Arg)}))
		if err != nil {
			return nil, err
		}
		return inner, nil
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

// eliminateExists handles ∃y ψ for quantifier-free ψ.
func (e *eliminator) eliminateExists(y string, psi logic.Formula) (logic.Formula, error) {
	if !logic.IsQuantifierFree(psi) {
		return nil, failf(y, parser.FormatFormula(psi),
			fmt.Sprintf("nested quantifier under ∃%s could not be eliminated", y))
	}
	free := logic.FreeVars(psi)
	hasY := false
	var others []string
	for _, v := range free {
		if v == y {
			hasY = true
		} else {
			others = append(others, v)
		}
	}
	if !hasY {
		// ∃y ψ with y not free: equivalent to ψ when the domain is
		// non-empty (checked at evaluation sites; domains here are always
		// non-empty in practice), but to stay exact keep the existential
		// only if the domain could be empty.  We simply return ψ and note
		// that empty domains make every aggregation trivial anyway.
		return psi, nil
	}
	// Check guardedness: every atom containing y mentions at most one other
	// variable, and that variable is the same across all such atoms.
	guard := ""
	for _, atom := range logic.CollectAtoms(psi) {
		vars := logic.FreeVars(atom)
		containsY := false
		for _, v := range vars {
			if v == y {
				containsY = true
			}
		}
		if !containsY {
			continue
		}
		if a, ok := atom.(logic.Atom); ok && e.forbidden[a.Rel] {
			return nil, failf(y, parser.FormatFormula(psi),
				fmt.Sprintf("quantified variable %s occurs in dynamic relation %s; dynamic relations cannot appear under quantifiers", y, a.Rel))
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
	if guard == "" {
		// Every atom involving y is unary in y.  If ψ has no other free
		// variables, ∃y ψ is a sentence that can be evaluated right now.
		if len(others) != 0 {
			return nil, failf(y, parser.FormatFormula(psi),
				fmt.Sprintf("∃%s mixes atoms on %s with free variables %v without a common guard (outside the supported fragment)", y, y, others))
		}
		holds := logic.Eval(logic.Exists{Var: y, Arg: psi}, e.work, map[string]structure.Element{})
		if holds {
			return logic.True(), nil
		}
		return logic.False(), nil
	}
	// The derived predicate is unary in the guard, so ψ may not have further
	// free variables.
	for _, v := range others {
		if v != guard {
			return nil, failf(y, parser.FormatFormula(psi),
				fmt.Sprintf("∃%s ψ has free variables %v besides the guard %s ; the supported fragment guards ∃%s by atoms linking %s to a single other variable, the only one ψ may mention", y, others, guard, y, y))
		}
	}
	// Materialise the derived predicate P(guard) ≡ ∃y ψ(guard, y) by
	// scanning, for every element a, the candidate witnesses y: either
	// elements incident to a through some tuple, or, when ψ is satisfiable
	// with y non-adjacent to the guard, every element (the scan is still
	// linear for each incident pair; the non-adjacent case is detected and
	// handled by evaluating ψ with a "far" witness pattern).
	e.counter++
	name := fmt.Sprintf(".qe%d", e.counter)
	e.derived = append(e.derived, name)
	members := map[structure.Element]bool{}
	e.buildIncidence()
	env := map[string]structure.Element{}
	// A witness y is useful only if it makes ψ true; atoms linking y to the
	// guard are false unless y is incident to the guard or y equals the
	// guard, so it suffices to test incident elements, the guard itself,
	// and one representative "non-adjacent" element per guard value.
	for a := 0; a < e.work.N; a++ {
		env[guard] = a
		found := false
		tryWitness := func(w structure.Element) {
			if found {
				return
			}
			env[y] = w
			if logic.Eval(psi, e.work, env) {
				found = true
			}
		}
		tryWitness(a)
		for _, inc := range e.incident[a] {
			for _, el := range inc.tuple {
				if el != a {
					tryWitness(el)
				}
			}
			if found {
				break
			}
		}
		if !found {
			// No incident witness: a witness not adjacent to the guard can
			// still satisfy ψ.  For such a witness every atom linking it to
			// the guard is false, so its behaviour is determined by its
			// diagonal type (membership of the constant tuples (w,...,w)).
			// Check, for every diagonal type that still has a non-adjacent
			// element available, whether a virtual witness of that type
			// satisfies ψ.
			adjacentByType := map[string]int{}
			adjacentByType[e.diagonalType(a)]++
			seenAdj := map[structure.Element]bool{a: true}
			for _, inc := range e.incident[a] {
				for _, el := range inc.tuple {
					if !seenAdj[el] {
						seenAdj[el] = true
						adjacentByType[e.diagonalType(el)]++
					}
				}
			}
			for typ, total := range e.typeCounts() {
				if total <= adjacentByType[typ] {
					continue
				}
				if e.evalVirtualWitness(psi, y, guard, a, typ) {
					found = true
					break
				}
			}
		}
		if found {
			members[a] = true
		}
		delete(env, y)
	}
	delete(env, guard)
	if err := e.extend(name, members); err != nil {
		return nil, err
	}
	return logic.R(name, guard), nil
}

// buildIncidence indexes, for each element, the tuples containing it.
func (e *eliminator) buildIncidence() {
	if e.built {
		return
	}
	e.built = true
	e.incident = map[structure.Element][]incidence{}
	for _, r := range e.sig.Relations {
		for _, t := range e.work.Tuples(r.Name) {
			seen := map[structure.Element]bool{}
			for _, el := range t {
				if !seen[el] {
					seen[el] = true
					e.incident[el] = append(e.incident[el], incidence{rel: r.Name, tuple: t})
				}
			}
		}
	}
}

// diagonalType describes an element by its membership in the "diagonal" of
// every relation: whether the constant tuple (w, ..., w) belongs to R, for
// every relation symbol R.  Two elements of the same diagonal type are
// interchangeable as witnesses once all atoms linking the witness to the
// guard are known to be false.
func (e *eliminator) diagonalType(w structure.Element) string {
	key := make([]byte, len(e.sig.Relations))
	var buf [8]structure.Element
	for i, r := range e.sig.Relations {
		t := buf[:0]
		for range r.Arity {
			t = append(t, w)
		}
		if e.work.HasTuple(r.Name, t...) {
			key[i] = '1'
		} else {
			key[i] = '0'
		}
	}
	return string(key)
}

// typeCounts returns how many elements have each diagonal type (cached).
func (e *eliminator) typeCounts() map[string]int {
	if e.typeCount != nil {
		return e.typeCount
	}
	e.typeCount = map[string]int{}
	for a := 0; a < e.work.N; a++ {
		e.typeCount[e.diagonalType(a)]++
	}
	return e.typeCount
}

// evalVirtualWitness evaluates quantifier-free ψ under the assignment
// guard ↦ guardElem, y ↦ a virtual element of the given diagonal type that
// is distinct from and not adjacent to the guard.
func (e *eliminator) evalVirtualWitness(psi logic.Formula, y, guard string, guardElem structure.Element, typ string) bool {
	relIndex := map[string]int{}
	for i, r := range e.sig.Relations {
		relIndex[r.Name] = i
	}
	var eval func(f logic.Formula) bool
	eval = func(f logic.Formula) bool {
		switch g := f.(type) {
		case logic.Truth:
			return g.Value
		case logic.Eq:
			l, r := g.Left, g.Right
			switch {
			case l == y && r == y:
				return true
			case l == y || r == y:
				return false // the virtual witness differs from every named element
			default:
				return e.evalGroundEq(l, r, guard, guardElem)
			}
		case logic.Atom:
			mentionsY := false
			onlyY := true
			for _, v := range g.Args {
				if v == y {
					mentionsY = true
				} else {
					onlyY = false
				}
			}
			if !mentionsY {
				env := map[string]structure.Element{guard: guardElem}
				return logic.Eval(g, e.work, env)
			}
			if onlyY {
				return typ[relIndex[g.Rel]] == '1'
			}
			// Atom links the virtual witness to the guard: false because the
			// witness is not adjacent to the guard.
			return false
		case logic.Not:
			return !eval(g.Arg)
		case logic.And:
			for _, x := range g.Args {
				if !eval(x) {
					return false
				}
			}
			return true
		case logic.Or:
			for _, x := range g.Args {
				if eval(x) {
					return true
				}
			}
			return false
		default:
			panic(fmt.Sprintf("qe: unexpected formula %T under virtual-witness evaluation", f))
		}
	}
	return eval(psi)
}

func (e *eliminator) evalGroundEq(l, r, guard string, guardElem structure.Element) bool {
	// Both sides are the guard variable (the only other free variable in a
	// guarded formula).
	if l == guard && r == guard {
		return true
	}
	// Any other variable would be unbound; guardedness prevents this.
	return l == r
}
