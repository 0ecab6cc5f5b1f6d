// Package logic implements first-order logic over relational signatures:
// formulas, free variables, and a reference (naive) evaluator.
//
// Terms are plain variables: the public query language is purely relational
// (function symbols are introduced only internally by the compilation
// pipeline, which never round-trips through this package).
package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/structure"
)

// Formula is a first-order formula.  The concrete node types are Atom, Eq,
// Truth, Not, And, Or and Exists/Forall.
type Formula interface {
	// FreeVars adds the free variables of the formula to the given set.
	freeVars(bound map[string]bool, out map[string]bool)
	// String renders the formula.
	String() string
	// eval evaluates the formula under the assignment env.
	eval(a *structure.Structure, env map[string]structure.Element) bool
	// rename applies a variable renaming to free variables.
	rename(sub map[string]string) Formula
}

// Atom is a relational atom R(x1, ..., xk).
type Atom struct {
	Rel  string
	Args []string
}

// Eq is an equality atom x = y.
type Eq struct {
	Left, Right string
}

// Truth is the boolean constant true or false.
type Truth struct {
	Value bool
}

// Not is negation.
type Not struct {
	Arg Formula
}

// And is conjunction of any number of formulas (true when empty).
type And struct {
	Args []Formula
}

// Or is disjunction of any number of formulas (false when empty).
type Or struct {
	Args []Formula
}

// Exists is existential quantification over a single variable.
type Exists struct {
	Var string
	Arg Formula
}

// Forall is universal quantification over a single variable.
type Forall struct {
	Var string
	Arg Formula
}

// Convenience constructors.

// R builds a relational atom.
func R(rel string, args ...string) Formula { return Atom{Rel: rel, Args: args} }

// Equal builds an equality atom.
func Equal(x, y string) Formula { return Eq{Left: x, Right: y} }

// True is the constant true formula.
func True() Formula { return Truth{Value: true} }

// False is the constant false formula.
func False() Formula { return Truth{Value: false} }

// Neg negates a formula.
func Neg(f Formula) Formula { return Not{Arg: f} }

// Conj builds a conjunction.
func Conj(fs ...Formula) Formula { return And{Args: fs} }

// Disj builds a disjunction.
func Disj(fs ...Formula) Formula { return Or{Args: fs} }

// Ex builds an existential quantification over one or more variables.
func Ex(vars []string, f Formula) Formula {
	for i := len(vars) - 1; i >= 0; i-- {
		f = Exists{Var: vars[i], Arg: f}
	}
	return f
}

// All builds a universal quantification over one or more variables.
func All(vars []string, f Formula) Formula {
	for i := len(vars) - 1; i >= 0; i-- {
		f = Forall{Var: vars[i], Arg: f}
	}
	return f
}

// FreeVars returns the sorted free variables of a formula.
func FreeVars(f Formula) []string {
	out := map[string]bool{}
	f.freeVars(map[string]bool{}, out)
	vars := make([]string, 0, len(out))
	for v := range out {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// Eval evaluates the formula on structure a under the variable assignment
// env (which must bind every free variable).
func Eval(f Formula, a *structure.Structure, env map[string]structure.Element) bool {
	return f.eval(a, env)
}

// Rename applies the variable substitution sub to the free variables of f.
// Bound variables are untouched; callers must ensure no capture occurs
// (internally, bound variables are always fresh).
func Rename(f Formula, sub map[string]string) Formula { return f.rename(sub) }

// IsQuantifierFree reports whether f contains no quantifiers.
func IsQuantifierFree(f Formula) bool {
	switch g := f.(type) {
	case Atom, Eq, Truth:
		return true
	case Not:
		return IsQuantifierFree(g.Arg)
	case And:
		for _, x := range g.Args {
			if !IsQuantifierFree(x) {
				return false
			}
		}
		return true
	case Or:
		for _, x := range g.Args {
			if !IsQuantifierFree(x) {
				return false
			}
		}
		return true
	case Exists, Forall:
		return false
	default:
		panic(fmt.Sprintf("logic: unknown formula type %T", f))
	}
}

// ---------------------------------------------------------------------------
// Atom
// ---------------------------------------------------------------------------

func (a Atom) freeVars(bound, out map[string]bool) {
	for _, v := range a.Args {
		if !bound[v] {
			out[v] = true
		}
	}
}

func (a Atom) String() string {
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(a.Args, ","))
}

func (a Atom) eval(st *structure.Structure, env map[string]structure.Element) bool {
	var buf [8]structure.Element // the usual arities test membership on the stack
	tuple := buf[:0]
	for _, v := range a.Args {
		e, ok := env[v]
		if !ok {
			panic(fmt.Sprintf("logic: unbound variable %q in atom %s", v, a))
		}
		tuple = append(tuple, e)
	}
	return st.HasTuple(a.Rel, tuple...)
}

func (a Atom) rename(sub map[string]string) Formula {
	args := make([]string, len(a.Args))
	for i, v := range a.Args {
		if w, ok := sub[v]; ok {
			args[i] = w
		} else {
			args[i] = v
		}
	}
	return Atom{Rel: a.Rel, Args: args}
}

// ---------------------------------------------------------------------------
// Eq
// ---------------------------------------------------------------------------

func (e Eq) freeVars(bound, out map[string]bool) {
	if !bound[e.Left] {
		out[e.Left] = true
	}
	if !bound[e.Right] {
		out[e.Right] = true
	}
}

func (e Eq) String() string { return fmt.Sprintf("%s=%s", e.Left, e.Right) }

func (e Eq) eval(_ *structure.Structure, env map[string]structure.Element) bool {
	l, ok := env[e.Left]
	if !ok {
		panic(fmt.Sprintf("logic: unbound variable %q", e.Left))
	}
	r, ok := env[e.Right]
	if !ok {
		panic(fmt.Sprintf("logic: unbound variable %q", e.Right))
	}
	return l == r
}

func (e Eq) rename(sub map[string]string) Formula {
	l, r := e.Left, e.Right
	if w, ok := sub[l]; ok {
		l = w
	}
	if w, ok := sub[r]; ok {
		r = w
	}
	return Eq{Left: l, Right: r}
}

// ---------------------------------------------------------------------------
// Truth
// ---------------------------------------------------------------------------

func (t Truth) freeVars(_, _ map[string]bool) {}
func (t Truth) String() string {
	if t.Value {
		return "true"
	}
	return "false"
}
func (t Truth) eval(_ *structure.Structure, _ map[string]structure.Element) bool { return t.Value }
func (t Truth) rename(_ map[string]string) Formula                               { return t }

// ---------------------------------------------------------------------------
// Not
// ---------------------------------------------------------------------------

func (n Not) freeVars(bound, out map[string]bool) { n.Arg.freeVars(bound, out) }
func (n Not) String() string                      { return fmt.Sprintf("¬(%s)", n.Arg) }
func (n Not) eval(a *structure.Structure, env map[string]structure.Element) bool {
	return !n.Arg.eval(a, env)
}
func (n Not) rename(sub map[string]string) Formula { return Not{Arg: n.Arg.rename(sub)} }

// ---------------------------------------------------------------------------
// And / Or
// ---------------------------------------------------------------------------

func (c And) freeVars(bound, out map[string]bool) {
	for _, f := range c.Args {
		f.freeVars(bound, out)
	}
}
func (c And) String() string { return joinFormulas(c.Args, " ∧ ", "true") }
func (c And) eval(a *structure.Structure, env map[string]structure.Element) bool {
	for _, f := range c.Args {
		if !f.eval(a, env) {
			return false
		}
	}
	return true
}
func (c And) rename(sub map[string]string) Formula {
	args := make([]Formula, len(c.Args))
	for i, f := range c.Args {
		args[i] = f.rename(sub)
	}
	return And{Args: args}
}

func (d Or) freeVars(bound, out map[string]bool) {
	for _, f := range d.Args {
		f.freeVars(bound, out)
	}
}
func (d Or) String() string { return joinFormulas(d.Args, " ∨ ", "false") }
func (d Or) eval(a *structure.Structure, env map[string]structure.Element) bool {
	for _, f := range d.Args {
		if f.eval(a, env) {
			return true
		}
	}
	return false
}
func (d Or) rename(sub map[string]string) Formula {
	args := make([]Formula, len(d.Args))
	for i, f := range d.Args {
		args[i] = f.rename(sub)
	}
	return Or{Args: args}
}

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// ---------------------------------------------------------------------------
// Quantifiers
// ---------------------------------------------------------------------------

func (e Exists) freeVars(bound, out map[string]bool) {
	inner := copyBound(bound)
	inner[e.Var] = true
	e.Arg.freeVars(inner, out)
}
func (e Exists) String() string { return fmt.Sprintf("∃%s.(%s)", e.Var, e.Arg) }
func (e Exists) eval(a *structure.Structure, env map[string]structure.Element) bool {
	saved, had := env[e.Var]
	defer restore(env, e.Var, saved, had)
	for x := 0; x < a.N; x++ {
		env[e.Var] = x
		if e.Arg.eval(a, env) {
			return true
		}
	}
	return false
}
func (e Exists) rename(sub map[string]string) Formula {
	inner := copySubWithout(sub, e.Var)
	return Exists{Var: e.Var, Arg: e.Arg.rename(inner)}
}

func (u Forall) freeVars(bound, out map[string]bool) {
	inner := copyBound(bound)
	inner[u.Var] = true
	u.Arg.freeVars(inner, out)
}
func (u Forall) String() string { return fmt.Sprintf("∀%s.(%s)", u.Var, u.Arg) }
func (u Forall) eval(a *structure.Structure, env map[string]structure.Element) bool {
	saved, had := env[u.Var]
	defer restore(env, u.Var, saved, had)
	for x := 0; x < a.N; x++ {
		env[u.Var] = x
		if !u.Arg.eval(a, env) {
			return false
		}
	}
	return true
}
func (u Forall) rename(sub map[string]string) Formula {
	inner := copySubWithout(sub, u.Var)
	return Forall{Var: u.Var, Arg: u.Arg.rename(inner)}
}

func copyBound(bound map[string]bool) map[string]bool {
	out := make(map[string]bool, len(bound)+1)
	for k, v := range bound {
		out[k] = v
	}
	return out
}

func copySubWithout(sub map[string]string, v string) map[string]string {
	out := make(map[string]string, len(sub))
	for k, w := range sub {
		if k != v {
			out[k] = w
		}
	}
	return out
}

func restore(env map[string]structure.Element, v string, saved structure.Element, had bool) {
	if had {
		env[v] = saved
	} else {
		delete(env, v)
	}
}

// ---------------------------------------------------------------------------
// Naive model checking / answer enumeration (reference baseline)
// ---------------------------------------------------------------------------

// Answers materialises all answers of ϕ(vars) on a by brute force, in the
// order of increasing tuples.  It is the reference implementation used to
// validate the compiled evaluators and enumerators; its complexity is
// O(N^|vars| · |ϕ| · N^quantifier-depth).
func Answers(f Formula, a *structure.Structure, vars []string) []structure.Tuple {
	env := map[string]structure.Element{}
	var out []structure.Tuple
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			if f.eval(a, env) {
				t := make(structure.Tuple, len(vars))
				for j, v := range vars {
					t[j] = env[v]
				}
				out = append(out, t)
			}
			return
		}
		for x := 0; x < a.N; x++ {
			env[vars[i]] = x
			rec(i + 1)
		}
		delete(env, vars[i])
	}
	rec(0)
	return out
}

// CollectAtoms returns every relational or equality atom occurring in f, in
// a deterministic order (left-to-right, duplicates removed).
func CollectAtoms(f Formula) []Formula {
	var atoms []Formula
	seen := map[string]bool{}
	var rec func(g Formula)
	rec = func(g Formula) {
		switch h := g.(type) {
		case Atom, Eq:
			key := g.String()
			if !seen[key] {
				seen[key] = true
				atoms = append(atoms, g)
			}
		case Truth:
		case Not:
			rec(h.Arg)
		case And:
			for _, x := range h.Args {
				rec(x)
			}
		case Or:
			for _, x := range h.Args {
				rec(x)
			}
		case Exists:
			rec(h.Arg)
		case Forall:
			rec(h.Arg)
		default:
			panic(fmt.Sprintf("logic: unknown formula type %T", g))
		}
	}
	rec(f)
	return atoms
}

// EvalUnderAtoms evaluates a quantifier-free formula given truth values for
// its atoms (keyed by Formula.String()).  It is used by the exclusive-DNF
// expansion of the expression normaliser.
func EvalUnderAtoms(f Formula, truth map[string]bool) bool {
	switch g := f.(type) {
	case Atom, Eq:
		return truth[f.String()]
	case Truth:
		return g.Value
	case Not:
		return !EvalUnderAtoms(g.Arg, truth)
	case And:
		for _, x := range g.Args {
			if !EvalUnderAtoms(x, truth) {
				return false
			}
		}
		return true
	case Or:
		for _, x := range g.Args {
			if EvalUnderAtoms(x, truth) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("logic: EvalUnderAtoms on quantified or unknown formula %T", f))
	}
}
