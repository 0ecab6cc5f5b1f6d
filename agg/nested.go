package agg

import (
	"context"
	"fmt"

	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/mvcc"
	"repro/internal/nested"
	"repro/internal/obs"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Nested is a nested (FOG[C], Section 7 of the paper) formula under
// construction: a syntax tree that may aggregate in several semirings and
// move between them through guarded connectives.  Build one with the N*
// constructors and pass it to Prepare through WithNested; semiring names are
// resolved against the registry and the tree is validated when the query is
// prepared, so the constructors themselves never fail.
//
// Boolean relations of the database appear through NAtom, its weight symbols
// through NWeight (valued in the Prepare semiring), and the connectives of
// NGuard change carriers under a guard relation.  A boolean-valued Nested
// with free variables supports Enumerate/AnswerCount like a flat formula; any
// Nested supports Eval (closed, or at a point as a point query) and Session.
type Nested struct {
	kind nkind
	rel  string
	args []string
	val  int64
	b    bool
	conn NestedConnective
	vars []string
	kids []*Nested
}

type nkind int

const (
	nAtom nkind = iota + 1
	nWeight
	nConstVal
	nConstBool
	nNot
	nPlus
	nTimes
	nSum
	nBracket
	nGuard
)

// NestedConnective names one of the guarded connectives available to NGuard.
type NestedConnective int

const (
	// ConnGreaterThan compares two values of one ordered semiring: boolean
	// a > b.
	ConnGreaterThan NestedConnective = iota + 1
	// ConnAtLeast compares two values of one ordered semiring: boolean a ≥ b.
	ConnAtLeast
	// ConnToMaxPlus embeds a natural number into the max-plus semiring, so
	// maxima can be taken over aggregates.
	ConnToMaxPlus
	// ConnRatio computes the integer ratio ⌊a/b⌋ of two naturals (0 when
	// b = 0).
	ConnRatio
)

func (c NestedConnective) String() string {
	switch c {
	case ConnGreaterThan:
		return ">"
	case ConnAtLeast:
		return "≥"
	case ConnToMaxPlus:
		return "toMaxPlus"
	case ConnRatio:
		return "ratio"
	}
	return fmt.Sprintf("NestedConnective(%d)", int(c))
}

// NAtom builds a boolean relation atom R(vars...).
func NAtom(rel string, vars ...string) *Nested {
	return &Nested{kind: nAtom, rel: rel, args: vars}
}

// NWeight builds an atom of a database weight symbol, valued in the Prepare
// semiring.
func NWeight(weight string, vars ...string) *Nested {
	return &Nested{kind: nWeight, rel: weight, args: vars}
}

// NConst builds a constant of the Prepare semiring, embedded from an int64
// exactly like a database weight.
func NConst(v int64) *Nested { return &Nested{kind: nConstVal, val: v} }

// NBool builds a boolean constant.
func NBool(b bool) *Nested { return &Nested{kind: nConstBool, b: b} }

// NNot negates a boolean formula.
func NNot(f *Nested) *Nested { return &Nested{kind: nNot, kids: []*Nested{f}} }

// NPlus adds two formulas of the same semiring (disjunction on booleans).
func NPlus(l, r *Nested) *Nested { return &Nested{kind: nPlus, kids: []*Nested{l, r}} }

// NTimes multiplies two formulas of the same semiring (conjunction on
// booleans).
func NTimes(l, r *Nested) *Nested { return &Nested{kind: nTimes, kids: []*Nested{l, r}} }

// NSum aggregates over variables in the formula's semiring (existential
// quantification on booleans).
func NSum(vars []string, f *Nested) *Nested {
	return &Nested{kind: nSum, vars: vars, kids: []*Nested{f}}
}

// NExists is boolean existential quantification (an alias of NSum).
func NExists(vars []string, f *Nested) *Nested { return NSum(vars, f) }

// NBracket converts a boolean formula into 0/1 of the Prepare semiring (the
// Iverson bracket).
func NBracket(f *Nested) *Nested { return &Nested{kind: nBracket, kids: []*Nested{f}} }

// NGuard applies a connective under a boolean guard relation:
// [rel(vars...)]·conn(args...).  Every free variable of the arguments must be
// among the guard variables (the FOG[C] restriction, checked at Prepare).
func NGuard(rel string, vars []string, conn NestedConnective, args ...*Nested) *Nested {
	return &Nested{kind: nGuard, rel: rel, vars: vars, conn: conn, kids: args}
}

// resolve turns the builder tree into a checked nested.Formula, with weight
// atoms, constants and brackets valued in sem's carrier.
func (n *Nested) resolve(sem Semiring) (nested.Formula, error) {
	if n == nil {
		return nil, fmt.Errorf("nested query is nil")
	}
	kids := make([]nested.Formula, len(n.kids))
	for i, k := range n.kids {
		f, err := k.resolve(sem)
		if err != nil {
			return nil, err
		}
		kids[i] = f
	}
	switch n.kind {
	case nAtom:
		return nested.B(n.rel, n.args...), nil
	case nWeight:
		return nested.S(sem.boxed(), n.rel, n.args...), nil
	case nConstVal:
		return nested.Val(sem.boxed(), sem.embedAny("", nil, n.val)), nil
	case nConstBool:
		return nested.Val(nested.BoolSemiring, n.b), nil
	case nNot:
		return nested.Neg(kids[0]), nil
	case nPlus:
		return nested.Plus(kids[0], kids[1]), nil
	case nTimes:
		return nested.Times(kids[0], kids[1]), nil
	case nSum:
		return nested.Sum(n.vars, kids[0]), nil
	case nBracket:
		return nested.Bracket(sem.boxed(), kids[0]), nil
	case nGuard:
		conn, err := n.conn.resolve(kids)
		if err != nil {
			return nil, err
		}
		return nested.Guard(n.rel, n.vars, conn, kids...), nil
	}
	return nil, fmt.Errorf("unknown nested node kind %d", n.kind)
}

// resolve binds a connective name to the semirings of its resolved
// arguments.
func (c NestedConnective) resolve(args []nested.Formula) (nested.Connective, error) {
	natArg := func(i int) error {
		if _, ok := args[i].Out().Zero().(int64); !ok {
			return fmt.Errorf("connective %s needs integer-valued arguments, got %s-valued", c, args[i].Out().Name())
		}
		return nil
	}
	switch c {
	case ConnGreaterThan, ConnAtLeast:
		if len(args) != 2 {
			return nested.Connective{}, fmt.Errorf("connective %s needs two arguments, got %d", c, len(args))
		}
		s := args[0].Out()
		if s.Name() != args[1].Out().Name() {
			return nested.Connective{}, fmt.Errorf("connective %s compares values of one semiring, got %s and %s", c, s.Name(), args[1].Out().Name())
		}
		if _, ok := s.Less(s.Zero(), s.Zero()); !ok {
			return nested.Connective{}, fmt.Errorf("connective %s needs an ordered semiring, %s is not", c, s.Name())
		}
		if c == ConnGreaterThan {
			return nested.GreaterThan(s), nil
		}
		return nested.AtLeast(s), nil
	case ConnToMaxPlus:
		if len(args) != 1 {
			return nested.Connective{}, fmt.Errorf("connective %s needs one argument, got %d", c, len(args))
		}
		if err := natArg(0); err != nil {
			return nested.Connective{}, err
		}
		// The output box carries the registry name, so the result composes
		// with atoms prepared under WithSemiring("maxplus").
		return nested.Connective{
			Name: "toMaxPlus",
			Out:  nested.Box[semiring.Ext]("maxplus", semiring.MaxPlus),
			Apply: func(args []any) any {
				return semiring.Fin(args[0].(int64))
			},
		}, nil
	case ConnRatio:
		if len(args) != 2 {
			return nested.Connective{}, fmt.Errorf("connective %s needs two arguments, got %d", c, len(args))
		}
		for i := range args {
			if err := natArg(i); err != nil {
				return nested.Connective{}, err
			}
		}
		// The ratio stays in the arguments' carrier, so it composes with
		// further atoms of the same semiring.
		return nested.Connective{
			Name: "ratio",
			Out:  args[0].Out(),
			Apply: func(args []any) any {
				a, b := args[0].(int64), args[1].(int64)
				if b == 0 {
					return int64(0)
				}
				return a / b
			},
		}, nil
	}
	return nested.Connective{}, fmt.Errorf("unknown connective %s", c)
}

// nestedInput is what the nested front end reads: the WithNested tree resolved
// in the WithSemiring carrier, over a private multi-semiring view of the
// engine's database — the boolean relations on a weight-free signature, plus
// one S-relation per weight symbol, valued in that carrier.
type nestedInput struct {
	base Semiring
	f    nested.Formula
	db   *nested.Database
}

func (p *Prepared) nestedInput() (*nestedInput, error) {
	base, err := LookupSemiring(p.cfg.semiring)
	if err != nil {
		return nil, err
	}
	f, err := p.cfg.nested.resolve(base)
	if err != nil {
		return nil, err
	}
	a, w := p.eng.db.a, p.eng.db.w
	sig, err := structure.NewSignature(a.Sig.Relations, nil)
	view := a
	if err == nil {
		view, err = a.Extend(sig)
	}
	if err != nil {
		return nil, err
	}
	db, box := nested.NewDatabase(view), base.boxed()
	for _, ws := range a.Sig.Weights {
		if err := db.DeclareSRelation(ws.Name, box, ws.Arity); err != nil {
			return nil, err
		}
	}
	if w != nil {
		w.Each(func(weight string, t structure.Tuple, v int64) {
			if err == nil {
				err = db.SetValue(weight, t, base.embedAny(weight, t, v))
			}
		})
	}
	return &nestedInput{base: base, f: f, db: db}, err
}

// materialize is the nested front end: it evaluates the guarded connectives
// of the formula over the database view, innermost first — the paper's linear
// preprocessing, one compilation per connective argument — and returns the
// flat query that is left, the carrier its value lives in (looked up in the
// registry by the name of its box) and the derived weights in that carrier.
func (in *nestedInput) materialize(opts compile.Options) (*nested.Stage, Semiring, any, error) {
	st, err := nested.Compile(in.db, in.f, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	name := st.Out.Name()
	if name == nested.BoolSemiring.Name() {
		name = "boolean"
	}
	out, err := LookupSemiring(name)
	if err != nil {
		return nil, nil, nil, err
	}
	cw, err := out.adopt(st.Weights)
	return st, out, cw, err
}

// prepareNested compiles a WithNested query: the front end once, then the
// tail every Prepare ends in.  From there on the Prepared is an ordinary one,
// in the carrier of the nested formula's value, over the derived weights.
func (e *Engine) prepareNested(ctx context.Context, p *Prepared) (*Prepared, error) {
	span := p.tr.StartSpan(obs.StageCompile)
	in, err := p.nestedInput()
	if err != nil {
		return nil, newError(ErrCompile, p.text, err)
	}
	st, out, cw, err := in.materialize(p.compileOptions())
	if err != nil {
		return nil, newError(ErrCompile, p.text, err)
	}
	p.canonical, p.sem, p.ev.cw = in.f.String(), out, cw
	vars := nested.FreeVars(in.f)
	if st.Phi == nil || len(vars) == 0 {
		return p, p.compile(ctx, span, st.A, st.Expr, nil, nil)
	}
	if len(p.cfg.answerVars) > 0 {
		vars = p.cfg.answerVars
	}
	return p, p.compile(ctx, span, st.A, nil, st.Phi, vars)
}

// nestedSession is the recompute session of a nested query, the one engine
// that is nested-specific: writes mutate its private database view — every
// relation and weight is updatable, Gaifman-preserving or not — and the first
// read after a write re-runs the front end over it and evaluates the result
// once, which answers every read until the next write.
type nestedSession struct {
	p   *Prepared
	in  *nestedInput
	cur func(args []int) (string, error)
}

func (p *Prepared) nestedSession() (erasedSession, error) {
	in, err := p.nestedInput()
	if err != nil {
		return nil, newError(ErrCompile, p.text, err)
	}
	return &nestedSession{p: p, in: in}, nil
}

// Write applies the changes in order (so a batch may insert a tuple and then
// weight it, as in flat sessions); a failing change rolls the whole batch
// back and leaves the materialisation standing, and after a batch that
// applied the next read re-materialises once over the final state.  There is
// no epoch to commit and no answer state to mirror into.
func (s *nestedSession) Write(changes []Change, _ *enumerate.Answers) (uint64, error) {
	var rollback *nested.Database
	if len(changes) > 1 {
		rollback = s.in.db.Clone()
	}
	for i, ch := range changes {
		if err := s.apply(ch); err != nil {
			if rollback != nil {
				s.in.db, err = rollback, fmt.Errorf("change %d: %w", i, err)
			}
			return 0, err
		}
	}
	s.cur = nil
	return 0, nil
}

func (s *nestedSession) apply(ch Change) error {
	t := structure.Tuple(ch.Tuple)
	if ch.Weight == "" {
		return s.in.db.SetTuple(ch.Rel, t, ch.Present)
	}
	if _, _, ok := s.in.db.SRelation(ch.Weight); !ok {
		return fmt.Errorf("unknown weight %q", ch.Weight)
	}
	return s.in.db.SetValue(ch.Weight, t, s.in.base.embedAny(ch.Weight, t, ch.Value))
}

// Clock is nil: the recompute session has no epoch-versioned state to pin, so
// it has no epochs, no snapshots and no subscriptions, and reads that race a
// writer keep failing fast with ErrSessionBusy.
func (s *nestedSession) Clock() *mvcc.Clock { return nil }

// At returns the point query of the current materialisation, built first when
// none stands, over the Prepared's own parameter list so that the session
// takes arguments in its order.  The caller holds the writer lock.
func (s *nestedSession) At(uint64) func([]int) (string, error) {
	if s.cur == nil {
		opts := s.p.compileOptions()
		span := s.p.tr.StartSpan(obs.StageCompile)
		st, out, cw, err := s.in.materialize(opts)
		var sh *dynamicq.Shared
		if err == nil {
			sh, err = dynamicq.Close(st.A, st.Expr, s.p.sh.FreeVars(), opts)
		}
		if err == nil {
			s.cur, err = out.newStatic(context.Background(), sh, cw, 1)
		}
		if err != nil {
			return func([]int) (string, error) { return "", err }
		}
		span.End()
	}
	return s.cur
}
