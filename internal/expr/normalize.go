package expr

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Literal is a signed relational or equality atom over variables.
type Literal struct {
	// Positive is false for a negated atom.
	Positive bool
	// Rel is the relation symbol, or "" for an equality literal.
	Rel string
	// Args are the variable arguments (exactly two for equality literals).
	Args []string
}

// IsEquality reports whether the literal is an equality (or disequality).
func (l Literal) IsEquality() bool { return l.Rel == "" }

// String renders the literal.
func (l Literal) String() string {
	var core string
	if l.IsEquality() {
		if l.Positive {
			core = l.Args[0] + "=" + l.Args[1]
		} else {
			core = l.Args[0] + "≠" + l.Args[1]
		}
		return core
	}
	core = l.Rel + "("
	for i, a := range l.Args {
		if i > 0 {
			core += ","
		}
		core += a
	}
	core += ")"
	if !l.Positive {
		core = "¬" + core
	}
	return core
}

// WeightTerm is a weight symbol applied to variables within a monomial.
type WeightTerm struct {
	W    string
	Args []string
}

// String renders the weight term.
func (w WeightTerm) String() string {
	s := w.W + "("
	for i, a := range w.Args {
		if i > 0 {
			s += ","
		}
		s += a
	}
	return s + ")"
}

// Monomial is one summand of a normalised weighted expression: an integer
// coefficient times a product of (possibly negated) literals and weight
// terms, aggregated over the bound variables.
//
// Its value on a structure A under weights w and an assignment of the free
// variables is
//
//	Coeff · Σ_{bound vars → A} Π [literals] · Π weights.
type Monomial struct {
	Coeff    int64
	Bound    []string
	Literals []Literal
	Weights  []WeightTerm
}

// Vars returns the sorted set of variables occurring in literals or weight
// terms of the monomial.
func (m *Monomial) Vars() []string {
	set := map[string]bool{}
	for _, l := range m.Literals {
		for _, a := range l.Args {
			set[a] = true
		}
	}
	for _, w := range m.Weights {
		for _, a := range w.Args {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// FreeVars returns the variables of the monomial that are not bound.
func (m *Monomial) FreeVars() []string {
	bound := map[string]bool{}
	for _, v := range m.Bound {
		bound[v] = true
	}
	var out []string
	for _, v := range m.Vars() {
		if !bound[v] {
			out = append(out, v)
		}
	}
	return out
}

// String renders the monomial.
func (m *Monomial) String() string {
	s := fmt.Sprintf("%d", m.Coeff)
	if len(m.Bound) > 0 {
		s += " Σ_{"
		for i, v := range m.Bound {
			if i > 0 {
				s += ","
			}
			s += v
		}
		s += "}"
	}
	for _, l := range m.Literals {
		s += " [" + l.String() + "]"
	}
	for _, w := range m.Weights {
		s += " " + w.String()
	}
	return s
}

// Polynomial is a sum of monomials; the value of the original expression is
// the sum of the values of its monomials.
type Polynomial struct {
	Monomials []*Monomial
}

// NormalizeOptions controls normalisation.
type NormalizeOptions struct {
	// MaxBracketAtoms bounds the number of distinct atoms within one Iverson
	// bracket, since the exclusive-DNF expansion enumerates 2^atoms
	// valuations.  Zero means the default of 16.
	MaxBracketAtoms int
}

// Normalize rewrites a weighted expression into a sum of prenex monomials.
//
// The rewriting implements Lemma 28 of the paper combined with the
// exclusive-disjunction expansion of Iverson brackets: brackets must be
// quantifier free (apply qe.Eliminate first), brackets are expanded into
// mutually exclusive conjunctions of literals so that [ϕ] equals the sum of
// the resulting monomials in every semiring, products are distributed over
// sums, and aggregations are pulled to the front after renaming bound
// variables apart.
func Normalize(e Expr, opts NormalizeOptions) (*Polynomial, error) {
	if opts.MaxBracketAtoms == 0 {
		opts.MaxBracketAtoms = 16
	}
	counter := 0
	renamed := renameApart(e, map[string]string{}, &counter)
	poly, err := normalize(renamed, opts)
	if err != nil {
		return nil, err
	}
	poly = simplify(poly)
	return poly, nil
}

// renameApart renames every bound variable to a fresh name of the form
// ".bN" so that distinct aggregations never share variable names and bound
// names never clash with free names.
func renameApart(e Expr, sub map[string]string, counter *int) Expr {
	switch x := e.(type) {
	case Const:
		return x
	case Weight:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			if b, ok := sub[a]; ok {
				args[i] = b
			} else {
				args[i] = a
			}
		}
		return Weight{W: x.W, Args: args}
	case Bracket:
		renaming := map[string]string{}
		for k, v := range sub {
			renaming[k] = v
		}
		return Bracket{F: logic.Rename(x.F, renaming)}
	case Add:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameApart(a, sub, counter)
		}
		return Add{Args: args}
	case Mul:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameApart(a, sub, counter)
		}
		return Mul{Args: args}
	case Sum:
		inner := map[string]string{}
		for k, v := range sub {
			inner[k] = v
		}
		fresh := make([]string, len(x.Vars))
		for i, v := range x.Vars {
			*counter++
			fresh[i] = fmt.Sprintf(".b%d", *counter)
			inner[v] = fresh[i]
		}
		return Sum{Vars: fresh, Arg: renameApart(x.Arg, inner, counter)}
	default:
		panic(fmt.Sprintf("expr: unknown expression type %T", e))
	}
}

func normalize(e Expr, opts NormalizeOptions) (*Polynomial, error) {
	switch x := e.(type) {
	case Const:
		if x.N < 0 {
			return nil, fmt.Errorf("expr: negative constant %d not representable in a general semiring", x.N)
		}
		if x.N == 0 {
			return &Polynomial{}, nil
		}
		return &Polynomial{Monomials: []*Monomial{{Coeff: x.N}}}, nil
	case Weight:
		return &Polynomial{Monomials: []*Monomial{{
			Coeff:   1,
			Weights: []WeightTerm{{W: x.W, Args: append([]string(nil), x.Args...)}},
		}}}, nil
	case Bracket:
		return expandBracket(x.F, opts)
	case Add:
		out := &Polynomial{}
		for _, arg := range x.Args {
			p, err := normalize(arg, opts)
			if err != nil {
				return nil, err
			}
			out.Monomials = append(out.Monomials, p.Monomials...)
		}
		return out, nil
	case Mul:
		out := &Polynomial{Monomials: []*Monomial{{Coeff: 1}}}
		for _, arg := range x.Args {
			p, err := normalize(arg, opts)
			if err != nil {
				return nil, err
			}
			out = multiplyPolynomials(out, p)
		}
		return out, nil
	case Sum:
		p, err := normalize(x.Arg, opts)
		if err != nil {
			return nil, err
		}
		for _, m := range p.Monomials {
			m.Bound = append(m.Bound, x.Vars...)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("expr: unknown expression type %T", e)
	}
}

func multiplyPolynomials(a, b *Polynomial) *Polynomial {
	out := &Polynomial{}
	for _, ma := range a.Monomials {
		for _, mb := range b.Monomials {
			m := &Monomial{
				Coeff:    ma.Coeff * mb.Coeff,
				Bound:    append(append([]string(nil), ma.Bound...), mb.Bound...),
				Literals: append(append([]Literal(nil), ma.Literals...), mb.Literals...),
				Weights:  append(append([]WeightTerm(nil), ma.Weights...), mb.Weights...),
			}
			out.Monomials = append(out.Monomials, m)
		}
	}
	return out
}

// expandBracket rewrites [ϕ] for quantifier-free ϕ into a sum of mutually
// exclusive monomials whose literals are complete sign patterns over the
// atoms of ϕ.  The expansion is exponential in the number of atoms of ϕ
// (query complexity only, never data complexity).
func expandBracket(f logic.Formula, opts NormalizeOptions) (*Polynomial, error) {
	if !logic.IsQuantifierFree(f) {
		return nil, fmt.Errorf("expr: bracket [%s] contains quantifiers; apply quantifier elimination first (see internal/qe)", f)
	}
	atoms := logic.CollectAtoms(f)
	if len(atoms) > opts.MaxBracketAtoms {
		return nil, fmt.Errorf("expr: bracket [%s] has %d distinct atoms, exceeding the expansion limit %d", f, len(atoms), opts.MaxBracketAtoms)
	}
	out := &Polynomial{}
	total := 1 << uint(len(atoms))
	for mask := 0; mask < total; mask++ {
		truth := map[string]bool{}
		for i, atom := range atoms {
			truth[atom.String()] = mask&(1<<uint(i)) != 0
		}
		if !logic.EvalUnderAtoms(f, truth) {
			continue
		}
		m := &Monomial{Coeff: 1}
		for i, atom := range atoms {
			positive := mask&(1<<uint(i)) != 0
			switch a := atom.(type) {
			case logic.Atom:
				m.Literals = append(m.Literals, Literal{Positive: positive, Rel: a.Rel, Args: append([]string(nil), a.Args...)})
			case logic.Eq:
				m.Literals = append(m.Literals, Literal{Positive: positive, Args: []string{a.Left, a.Right}})
			default:
				return nil, fmt.Errorf("expr: unexpected atom type %T", atom)
			}
		}
		out.Monomials = append(out.Monomials, m)
	}
	return out, nil
}

// simplify removes monomials that are trivially zero (contradictory literal
// sets, x≠x, zero coefficients) and drops trivially true literals (x=x).
func simplify(p *Polynomial) *Polynomial {
	out := &Polynomial{}
	for _, m := range p.Monomials {
		if m.Coeff == 0 {
			continue
		}
		if contradictory(m) {
			continue
		}
		cleaned := &Monomial{Coeff: m.Coeff, Bound: dedupStrings(m.Bound), Weights: m.Weights}
		for _, l := range m.Literals {
			if l.IsEquality() && l.Args[0] == l.Args[1] {
				if l.Positive {
					continue // x = x is always true
				}
				// x ≠ x is always false; monomial is zero.
				cleaned = nil
				break
			}
			cleaned.Literals = append(cleaned.Literals, l)
		}
		if cleaned == nil {
			continue
		}
		out.Monomials = append(out.Monomials, cleaned)
	}
	return out
}

func contradictory(m *Monomial) bool {
	seen := map[string]bool{}
	for _, l := range m.Literals {
		key := Literal{Positive: true, Rel: l.Rel, Args: l.Args}.String()
		if prev, ok := seen[key]; ok && prev != l.Positive {
			return true
		}
		seen[key] = l.Positive
	}
	return false
}

func dedupStrings(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// FreeVars returns the sorted free variables over all monomials of p.
func (p *Polynomial) FreeVars() []string {
	set := map[string]bool{}
	for _, m := range p.Monomials {
		for _, v := range m.FreeVars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// String renders the polynomial.
func (p *Polynomial) String() string {
	if len(p.Monomials) == 0 {
		return "0"
	}
	s := ""
	for i, m := range p.Monomials {
		if i > 0 {
			s += "  +  "
		}
		s += m.String()
	}
	return s
}

// EvalPolynomial evaluates the polynomial naively on a structure.  It exists
// to cross-check Normalize against the reference evaluator Eval in tests.
func EvalPolynomial[T any](s semiring.Semiring[T], a *structure.Structure, w *structure.Weights[T], p *Polynomial, env map[string]structure.Element) T {
	total := s.Zero()
	for _, m := range p.Monomials {
		total = s.Add(total, evalMonomial(s, a, w, m, env))
	}
	return total
}

func evalMonomial[T any](s semiring.Semiring[T], a *structure.Structure, w *structure.Weights[T], m *Monomial, env map[string]structure.Element) T {
	assignment := map[string]structure.Element{}
	for k, v := range env {
		assignment[k] = v
	}
	var rec func(i int) T
	rec = func(i int) T {
		if i == len(m.Bound) {
			val := semiring.ScalarMul(s, m.Coeff, s.One())
			for _, l := range m.Literals {
				val = s.Mul(val, semiring.Iverson(s, evalLiteral(a, l, assignment)))
			}
			for _, wt := range m.Weights {
				tuple := make(structure.Tuple, len(wt.Args))
				for j, arg := range wt.Args {
					tuple[j] = assignment[arg]
				}
				if v, ok := w.Get(wt.W, tuple); ok {
					val = s.Mul(val, v)
				} else {
					val = s.Mul(val, s.Zero())
				}
			}
			return val
		}
		acc := s.Zero()
		v := m.Bound[i]
		for x := 0; x < a.N; x++ {
			assignment[v] = x
			acc = s.Add(acc, rec(i+1))
		}
		delete(assignment, v)
		return acc
	}
	return rec(0)
}

func evalLiteral(a *structure.Structure, l Literal, env map[string]structure.Element) bool {
	var holds bool
	if l.IsEquality() {
		holds = env[l.Args[0]] == env[l.Args[1]]
	} else {
		tuple := make(structure.Tuple, len(l.Args))
		for i, arg := range l.Args {
			tuple[i] = env[arg]
		}
		holds = a.HasTuple(l.Rel, tuple...)
	}
	if l.Positive {
		return holds
	}
	return !holds
}
