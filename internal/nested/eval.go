package nested

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/structure"
)

// Database is a structure over a multi-semiring signature: a relational
// structure holding the boolean relations, plus semiring-valued relations
// stored as dynamically typed weight tables.
type Database struct {
	// A holds the domain and the boolean relations.
	A *structure.Structure
	// srel maps an S-relation name to its declaration and values.
	srel map[string]*sRelation
}

type sRelation struct {
	name   string
	arity  int
	s      Semiring
	values structure.Weights[any] // under the relation's name, in the order first set
}

// NewDatabase wraps a relational structure as a nested-query database.
func NewDatabase(a *structure.Structure) *Database {
	return &Database{A: a, srel: map[string]*sRelation{}}
}

// DeclareSRelation declares a semiring-valued relation.
func (db *Database) DeclareSRelation(name string, s Semiring, arity int) error {
	if _, ok := db.A.Sig.Relation(name); ok {
		return fmt.Errorf("nested: %q is already a boolean relation", name)
	}
	if _, ok := db.srel[name]; ok {
		return fmt.Errorf("nested: S-relation %q already declared", name)
	}
	db.srel[name] = &sRelation{name: name, arity: arity, s: s}
	return nil
}

// CheckValue validates an S-relation assignment without performing it: the
// relation must be declared, the tuple must match its arity and lie in the
// domain, and values of arity ≥ 2 must sit on tuples of some boolean relation
// (the Gaifman-graph discipline of the paper).
func (db *Database) CheckValue(name string, tuple structure.Tuple) error {
	rel, ok := db.srel[name]
	if !ok {
		return fmt.Errorf("nested: unknown S-relation %q", name)
	}
	if len(tuple) != rel.arity {
		return fmt.Errorf("nested: S-relation %q has arity %d, got tuple of length %d", name, rel.arity, len(tuple))
	}
	if err := db.A.CheckDomain(tuple); err != nil {
		return fmt.Errorf("nested: %w", err)
	}
	if rel.arity >= 2 && !db.A.InSomeRelation(tuple) {
		return fmt.Errorf("nested: S-relation values of arity ≥ 2 may only be set on tuples of some boolean relation (Gaifman-graph discipline); %s%v is not such a tuple", name, tuple)
	}
	return nil
}

// SetValue assigns a value to a tuple of an S-relation.  Values of arity ≥ 2
// must be set only on tuples whose elements appear together in some boolean
// relation (the Gaifman-graph discipline of the paper).
func (db *Database) SetValue(name string, tuple structure.Tuple, v any) error {
	if err := db.CheckValue(name, tuple); err != nil {
		return err
	}
	db.srel[name].values.Set(name, tuple, v)
	return nil
}

// SetTuple sets the membership of a tuple in a boolean relation of the
// database by replacing its structure with an edited copy: a Compile run
// afterwards sees the change, and a Stage compiled before keeps its own.
func (db *Database) SetTuple(rel string, tuple structure.Tuple, present bool) error {
	if _, ok := db.A.Sig.Relation(rel); !ok {
		return fmt.Errorf("nested: unknown boolean relation %q", rel)
	}
	b := db.A.Edit()
	write := b.RemoveTuple
	if present {
		write = b.AddTuple
	}
	if err := write(rel, tuple...); err != nil {
		return err
	}
	db.A = b.Build()
	return nil
}

// SRelation reports the semiring and arity of a declared S-relation.
func (db *Database) SRelation(name string) (s Semiring, arity int, ok bool) {
	rel, ok := db.srel[name]
	if !ok {
		return nil, 0, false
	}
	return rel.s, rel.arity, true
}

// Clone returns a copy of the database: its S-relations are private to the
// copy, and the structure, which SetTuple replaces, is shared.  Used by
// sessions that mutate a database without disturbing the original.
func (db *Database) Clone() *Database {
	c := &Database{A: db.A, srel: make(map[string]*sRelation, len(db.srel))}
	for name, r := range db.srel {
		nr := *r
		nr.values = *r.values.Clone()
		c.srel[name] = &nr
	}
	return c
}

// Value returns the value of an S-relation at a tuple (zero when unset).
func (db *Database) Value(name string, tuple structure.Tuple) any {
	rel, ok := db.srel[name]
	if !ok {
		return nil
	}
	if v, ok := rel.values.Get(name, tuple); ok {
		return v
	}
	return rel.s.Zero()
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

// check validates semiring consistency and symbol usage of a formula.
func (db *Database) check(f Formula) error {
	switch g := f.(type) {
	case BRel:
		decl, ok := db.A.Sig.Relation(g.Rel)
		if !ok {
			return fmt.Errorf("nested: unknown boolean relation %q", g.Rel)
		}
		if decl.Arity != len(g.Args) {
			return fmt.Errorf("nested: relation %q has arity %d, applied to %d arguments", g.Rel, decl.Arity, len(g.Args))
		}
		return nil
	case SRel:
		rel, ok := db.srel[g.Rel]
		if !ok {
			return fmt.Errorf("nested: unknown S-relation %q", g.Rel)
		}
		if rel.arity != len(g.Args) {
			return fmt.Errorf("nested: S-relation %q has arity %d, applied to %d arguments", g.Rel, rel.arity, len(g.Args))
		}
		if rel.s.Name() != g.S.Name() {
			return fmt.Errorf("nested: S-relation %q is %s-valued, used as %s-valued", g.Rel, rel.s.Name(), g.S.Name())
		}
		return nil
	case ConstF:
		return nil
	case Not:
		if g.Arg.Out().Name() != BoolSemiring.Name() {
			return fmt.Errorf("nested: negation of a non-boolean formula %s", g.Arg)
		}
		return db.check(g.Arg)
	case BinOp:
		if g.L.Out().Name() != g.R.Out().Name() {
			return fmt.Errorf("nested: mixing semirings %s and %s without a connective", g.L.Out().Name(), g.R.Out().Name())
		}
		if err := db.check(g.L); err != nil {
			return err
		}
		return db.check(g.R)
	case SumAgg:
		return db.check(g.Arg)
	case Iverson:
		if g.Arg.Out().Name() != BoolSemiring.Name() {
			return fmt.Errorf("nested: Iverson bracket over a non-boolean formula")
		}
		return db.check(g.Arg)
	case Guarded:
		decl, ok := db.A.Sig.Relation(g.GuardRel)
		if !ok {
			return fmt.Errorf("nested: guard relation %q is not a boolean relation of the database", g.GuardRel)
		}
		if decl.Arity != len(g.GuardArgs) {
			return fmt.Errorf("nested: guard %q has arity %d, got %d arguments", g.GuardRel, decl.Arity, len(g.GuardArgs))
		}
		if len(g.Args) == 0 {
			return fmt.Errorf("nested: connective %q applied to no arguments", g.Conn.Name)
		}
		guardVars := map[string]bool{}
		for _, v := range g.GuardArgs {
			guardVars[v] = true
		}
		for _, arg := range g.Args {
			for _, v := range freeVars(arg) {
				if !guardVars[v] {
					return fmt.Errorf("nested: free variable %q of a connective argument is not covered by the guard %s(%v) (FOG[C] restriction)", v, g.GuardRel, g.GuardArgs)
				}
			}
			if err := db.check(arg); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("nested: unknown formula type %T", f)
	}
}

// FreeVars returns the free variables of a formula in sorted order.
func FreeVars(f Formula) []string { return freeVars(f) }

// freeVars computes the free variables of a nested formula.
func freeVars(f Formula) []string {
	set := map[string]bool{}
	var rec func(g Formula, bound map[string]bool)
	rec = func(g Formula, bound map[string]bool) {
		switch h := g.(type) {
		case BRel:
			for _, v := range h.Args {
				if !bound[v] {
					set[v] = true
				}
			}
		case SRel:
			for _, v := range h.Args {
				if !bound[v] {
					set[v] = true
				}
			}
		case ConstF:
		case Not:
			rec(h.Arg, bound)
		case BinOp:
			rec(h.L, bound)
			rec(h.R, bound)
		case SumAgg:
			inner := map[string]bool{}
			for k := range bound {
				inner[k] = true
			}
			for _, v := range h.Vars {
				inner[v] = true
			}
			rec(h.Arg, inner)
		case Iverson:
			rec(h.Arg, bound)
		case Guarded:
			for _, v := range h.GuardArgs {
				if !bound[v] {
					set[v] = true
				}
			}
			for _, arg := range h.Args {
				rec(arg, bound)
			}
		}
	}
	rec(f, map[string]bool{})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Evaluation (Theorem 26)
// ---------------------------------------------------------------------------

// Stage is a nested formula after the materialisation of Theorem 26: every
// guarded connective has been evaluated at its guard tuples and replaced by a
// derived relation or weight, so what is left is one flat query in one carrier
// over an extended database — the input of the flat compilers
// (dynamicq.Close, enumerate.EnumerateAnswers).
type Stage struct {
	// A is the database's structure extended with the derived boolean
	// relations, on a signature declaring the weight symbols Expr mentions.
	A *structure.Structure
	// Out is the carrier of the value and of Weights.
	Out Semiring
	// Phi is the connective-free residue of a boolean-valued formula and nil
	// for any other; Expr is the residue as a weighted expression ([Phi] for a
	// boolean one).
	Phi  logic.Formula
	Expr expr.Expr
	// Weights are the values of the base and derived S-relations Expr reads.
	Weights *structure.Weights[any]
}

// Compile validates f against the database and materialises its guarded
// connectives innermost-first, each inner stage compiled once and read at
// every guard tuple (Stage.At).  The database is left untouched; the cost is
// the paper's linear preprocessing, one compilation per connective argument.
func Compile(db *Database, f Formula, opts compile.Options) (*Stage, error) {
	if err := db.check(f); err != nil {
		return nil, err
	}
	ev := &evaluator{db: db, work: db.A, derived: map[string]*sRelation{}, opts: opts}
	flat, err := ev.materialize(f)
	if err != nil {
		return nil, err
	}
	return ev.stage(flat)
}

// At evaluates the stage at each assignment of vars, one element per variable
// in order: the residue is closed over the variables it mentions and compiled
// once, and every tuple is a point query on that one program (Theorem 8).
func (st *Stage) At(vars []string, tuples []structure.Tuple, opts compile.Options) ([]any, error) {
	// Close over the variables Expr mentions, in the given order (a repeated
	// one is read at its first position): one it does not mention would only
	// widen every monomial by a summed-out variable and count against
	// compile.Options.MaxVars.
	free := expr.FreeVars(st.Expr)
	var params []string
	var keep []int
	for i, v := range vars {
		if slices.Contains(free, v) && !slices.Contains(params, v) {
			params, keep = append(params, v), append(keep, i)
		}
	}
	sh, err := dynamicq.Close(st.A, st.Expr, params, opts)
	if err != nil {
		return nil, err
	}
	read, err := st.Out.reader(sh, st.Weights)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(tuples))
	args := make([]structure.Element, len(keep))
	for i, t := range tuples {
		for j, k := range keep {
			args[j] = t[k]
		}
		if out[i], err = read(args); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evaluator carries the state of one materialisation run: the progressively
// extended structure (derived boolean relations) and S-relation store
// (derived weights).
type evaluator struct {
	db      *Database
	work    *structure.Structure
	derived map[string]*sRelation
	counter int
	opts    compile.Options
}

// materialize eliminates guarded connectives bottom-up, extending the
// working database with derived relations/weights.
func (ev *evaluator) materialize(f Formula) (Formula, error) {
	switch g := f.(type) {
	case BRel, SRel, ConstF:
		return f, nil
	case Not:
		arg, err := ev.materialize(g.Arg)
		if err != nil {
			return nil, err
		}
		return Not{Arg: arg}, nil
	case BinOp:
		l, err := ev.materialize(g.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.materialize(g.R)
		if err != nil {
			return nil, err
		}
		return BinOp{Mul: g.Mul, L: l, R: r}, nil
	case SumAgg:
		arg, err := ev.materialize(g.Arg)
		if err != nil {
			return nil, err
		}
		return SumAgg{Vars: g.Vars, Arg: arg}, nil
	case Iverson:
		arg, err := ev.materialize(g.Arg)
		if err != nil {
			return nil, err
		}
		return Iverson{S: g.S, Arg: arg}, nil
	case Guarded:
		return ev.materializeGuarded(g)
	default:
		return nil, fmt.Errorf("nested: unknown formula type %T", f)
	}
}

// materializeGuarded evaluates the arguments of a guarded connective at all
// guard tuples and replaces the connective by a derived atom.
func (ev *evaluator) materializeGuarded(g Guarded) (Formula, error) {
	tuples := ev.work.Tuples(g.GuardRel)
	// Argument tuples are the guard tuples projected onto the guard
	// variables (repeated variables must agree, which they do trivially
	// because the projection uses positions).
	values := make([][]any, len(g.Args))
	for i, arg := range g.Args {
		flat, err := ev.materialize(arg)
		if err != nil {
			return nil, err
		}
		st, err := ev.stage(flat)
		if err != nil {
			return nil, err
		}
		if values[i], err = st.At(g.GuardArgs, tuples, ev.opts); err != nil {
			return nil, err
		}
	}
	ev.counter++
	name := fmt.Sprintf(".conn%d", ev.counter)
	out := g.Conn.Out
	if out.Name() == BoolSemiring.Name() {
		// Derived boolean relation on an extended structure.
		members := make([]structure.Tuple, 0, len(tuples))
		for ti, t := range tuples {
			args := make([]any, len(g.Args))
			for i := range g.Args {
				args[i] = values[i][ti]
			}
			if g.Conn.Apply(args).(bool) {
				members = append(members, t)
			}
		}
		// The members are guard tuples, so the view adds no Gaifman edge.
		rels := append(slices.Clone(ev.work.Sig.Relations), structure.RelSymbol{Name: name, Arity: len(g.GuardArgs)})
		sig, err := structure.NewSignature(rels, ev.work.Sig.Weights)
		if err != nil {
			return nil, err
		}
		if ev.work, err = ev.work.Extend(sig, members); err != nil {
			return nil, err
		}
		return BRel{Rel: name, Args: g.GuardArgs}, nil
	}
	// Derived S-relation stored as weights.
	rel := &sRelation{name: name, arity: len(g.GuardArgs), s: out}
	for ti, t := range tuples {
		args := make([]any, len(g.Args))
		for i := range g.Args {
			args[i] = values[i][ti]
		}
		v := g.Conn.Apply(args)
		if !out.Equal(v, out.Zero()) {
			rel.values.Set(name, t, v)
		}
	}
	ev.derived[name] = rel
	return SRel{Rel: name, Args: g.GuardArgs, S: out}, nil
}

// lookupSRelation finds a (base or derived) S-relation.
func (ev *evaluator) lookupSRelation(name string) (*sRelation, bool) {
	if r, ok := ev.derived[name]; ok {
		return r, true
	}
	r, ok := ev.db.srel[name]
	return r, ok
}

// stage packages a connective-free formula as a flat query over the working
// structure.
func (ev *evaluator) stage(f Formula) (*Stage, error) {
	if f.Out().Name() == BoolSemiring.Name() {
		phi, err := ev.toLogic(f)
		if err != nil {
			return nil, err
		}
		// A quantified boolean formula compiles as the weighted expression [ϕ]
		// over the boolean semiring, with quantifier elimination applied inside
		// the compiler.
		return &Stage{A: ev.work, Out: BoolSemiring, Phi: phi, Expr: expr.Guard(phi), Weights: structure.NewWeights[any]()}, nil
	}
	e, weights, symbols, err := ev.toExpr(f)
	if err != nil {
		return nil, err
	}
	// A view of the working structure over the signature extended with the
	// weight symbols the expression uses.
	a := ev.work
	sig, err := structure.NewSignature(a.Sig.Relations, append(slices.Clone(a.Sig.Weights), symbols...))
	if err == nil {
		a, err = a.Extend(sig)
	}
	if err != nil {
		return nil, err
	}
	return &Stage{A: a, Out: f.Out(), Expr: e, Weights: weights}, nil
}

// toLogic converts a connective-free boolean formula to first-order logic
// over the working structure.
func (ev *evaluator) toLogic(f Formula) (logic.Formula, error) {
	switch g := f.(type) {
	case BRel:
		return logic.R(g.Rel, g.Args...), nil
	case SRel:
		return nil, fmt.Errorf("nested: %s-valued relation %q used in a boolean position", g.S.Name(), g.Rel)
	case ConstF:
		b, ok := g.Value.(bool)
		if !ok {
			return nil, fmt.Errorf("nested: non-boolean constant in a boolean position")
		}
		if b {
			return logic.True(), nil
		}
		return logic.False(), nil
	case Not:
		arg, err := ev.toLogic(g.Arg)
		if err != nil {
			return nil, err
		}
		return logic.Neg(arg), nil
	case BinOp:
		l, err := ev.toLogic(g.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.toLogic(g.R)
		if err != nil {
			return nil, err
		}
		if g.Mul {
			return logic.Conj(l, r), nil
		}
		return logic.Disj(l, r), nil
	case SumAgg:
		arg, err := ev.toLogic(g.Arg)
		if err != nil {
			return nil, err
		}
		return logic.Ex(g.Vars, arg), nil
	default:
		return nil, fmt.Errorf("nested: formula %s cannot appear in a boolean position", f)
	}
}

// toExpr converts a connective-free S-valued formula into a weighted
// expression over the working structure, collecting the weight values it
// references and the weight symbols needed in the signature.
func (ev *evaluator) toExpr(f Formula) (expr.Expr, *structure.Weights[any], []structure.WeightSymbol, error) {
	weights := structure.NewWeights[any]()
	var symbols []structure.WeightSymbol
	declared := map[string]bool{}
	constCounter := 0

	declare := func(name string, arity int) {
		if !declared[name] {
			declared[name] = true
			symbols = append(symbols, structure.WeightSymbol{Name: name, Arity: arity})
		}
	}

	var rec func(g Formula) (expr.Expr, error)
	rec = func(g Formula) (expr.Expr, error) {
		switch h := g.(type) {
		case SRel:
			rel, ok := ev.lookupSRelation(h.Rel)
			if !ok {
				return nil, fmt.Errorf("nested: unknown S-relation %q", h.Rel)
			}
			if !declared[h.Rel] {
				// Register the relation's values once, however often it occurs.
				rel.values.Each(func(_ string, t structure.Tuple, v any) { weights.Set(h.Rel, t, v) })
			}
			declare(h.Rel, rel.arity)
			return expr.W(h.Rel, h.Args...), nil
		case ConstF:
			constCounter++
			name := fmt.Sprintf(".const%d", constCounter)
			declare(name, 0)
			weights.Set(name, nil, h.Value)
			return expr.W(name), nil
		case BinOp:
			l, err := rec(h.L)
			if err != nil {
				return nil, err
			}
			r, err := rec(h.R)
			if err != nil {
				return nil, err
			}
			if h.Mul {
				return expr.Times(l, r), nil
			}
			return expr.Plus(l, r), nil
		case SumAgg:
			arg, err := rec(h.Arg)
			if err != nil {
				return nil, err
			}
			return expr.Agg(h.Vars, arg), nil
		case Iverson:
			phi, err := ev.toLogic(h.Arg)
			if err != nil {
				return nil, err
			}
			return expr.Guard(phi), nil
		default:
			return nil, fmt.Errorf("nested: formula %s cannot appear in an %s-valued position", g, f.Out().Name())
		}
	}
	e, err := rec(f)
	if err != nil {
		return nil, nil, nil, err
	}
	return e, weights, symbols, nil
}
