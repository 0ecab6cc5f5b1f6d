package agg

import (
	"context"
	"fmt"
	"sync"
	"unsafe"

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

// reads adds the relations and weight symbols the tree reads to set.
func (n *Nested) reads(set map[string]bool) map[string]bool {
	if n.rel != "" {
		set[n.rel] = true
	}
	for _, k := range n.kids {
		k.reads(set)
	}
	return set
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

// compileNested is the nested front end and the compile tail over in's
// database, for Prepare and for a session's versions alike: it evaluates the
// guarded connectives innermost first — the paper's linear preprocessing, one
// compilation per connective argument — and compiles the flat query left, in
// the carrier of the formula's value and over the derived weights.
func (p *Prepared) compileNested(ctx context.Context, in *nestedInput) error {
	span := p.tr.StartSpan(obs.StageCompile)
	st, err := nested.Compile(in.db, in.f, p.compileOptions())
	var out Semiring
	if err == nil {
		name := st.Out.Name()
		if name == nested.BoolSemiring.Name() {
			name = "boolean"
		}
		out, err = LookupSemiring(name)
	}
	if err == nil {
		p.ev.cw, err = out.adopt(st.Weights)
	}
	if err != nil {
		return newError(ErrCompile, p.text, err)
	}
	p.canonical, p.sem = in.f.String(), out
	vars := nested.FreeVars(in.f)
	if st.Phi == nil || len(vars) == 0 {
		return p.compile(ctx, span, st.A, st.Expr, nil, nil)
	}
	if len(p.cfg.answerVars) > 0 {
		vars = p.cfg.answerVars
	}
	return p.compile(ctx, span, st.A, nil, st.Phi, vars)
}

// nestedSession is the session of a nested query: writes apply to a private
// copy of the database (any relation or weight, Gaifman graph included), one
// that changes what the formula reads commits an epoch whose version
// supersedes the current one, and a read materialises its pinned epoch's
// version once, outside every lock.  The writer changes the database in place
// unless a reader is pinned at the current epoch, whose version keeps it.
type nestedSession struct {
	p     *Prepared
	in    *nestedInput    // built by the first write
	reads map[string]bool // the relations and weight symbols the formula reads
	clock mvcc.Clock
	log   *mvcc.Log[*version] // per commit, the version it superseded
	cur   *version            // the version of the committed epoch
}

// version is one epoch's database and the Prepared a read materialises.
type version struct {
	db   *nested.Database // nil once materialised, and for version 0
	once sync.Once
	p    *Prepared
	read func(args []int) (string, error)
	err  error
}

// Slot makes a version the one-slot undo entry of the commit superseding it.
func (*version) Slot() int32 { return 0 }

func newNestedSession(p *Prepared) erasedSession {
	s := &nestedSession{p: p, reads: p.cfg.nested.reads(map[string]bool{}), cur: &version{p: p}}
	s.log = mvcc.NewLog[*version](&s.clock, int64(unsafe.Sizeof(s.cur)))
	return s
}

func (s *nestedSession) Clock() *mvcc.Clock { return &s.clock }

// Write applies the changes in order (a batch may insert a tuple and then
// weight it), all or none, and commits iff one changed what the formula reads.
func (s *nestedSession) Write(changes []Change) (uint64, error) {
	s.clock.Lock()
	defer s.clock.Unlock()
	var err error
	if s.in == nil {
		if s.in, err = s.p.nestedInput(); err != nil {
			return 0, err
		}
	}
	before := s.in.db
	if len(changes) > 1 || s.clock.HeadPinned() {
		s.in.db = before.Clone()
	}
	changed := false
	for i, ch := range changes {
		c, err := s.apply(ch)
		if err != nil {
			if s.in.db = before; len(changes) > 1 {
				err = fmt.Errorf("change %d: %w", i, err)
			}
			return 0, err
		}
		changed = changed || c
	}
	if !changed {
		return 0, nil
	}
	if s.clock.HeadPinned() {
		s.log.Append(s.cur)
	}
	s.cur = &version{db: s.in.db}
	s.clock.Touch()
	return s.clock.Commit(), nil
}

// apply makes one change to the session's database and reports whether it
// changed a value or a membership the formula reads.
func (s *nestedSession) apply(ch Change) (bool, error) {
	db, t := s.in.db, structure.Tuple(ch.Tuple)
	if ch.Weight == "" {
		was := db.A.HasTuple(ch.Rel, t...)
		return s.reads[ch.Rel] && was != ch.Present, db.SetTuple(ch.Rel, t, ch.Present)
	}
	sr, _, ok := db.SRelation(ch.Weight)
	if !ok {
		return false, fmt.Errorf("unknown weight %q", ch.Weight)
	}
	v, was := s.in.base.embedAny(ch.Weight, t, ch.Value), db.Value(ch.Weight, t)
	return s.reads[ch.Weight] && !sr.Equal(was, v), db.SetValue(ch.Weight, t, v)
}

// materialize resolves a pinned epoch's version and builds its Prepared and
// point query on the first read, outside the lock and under no reader's
// context, for every reader shares the build; an error is kept too.
func (s *nestedSession) materialize(epoch uint64) (*version, error) {
	s.clock.RLock()
	v := s.cur
	view := s.log.At(epoch)
	view.Extend()
	if u, ok := view.Lookup(0); ok {
		v = u
	}
	s.clock.RUnlock()
	v.once.Do(func() {
		if v.p == nil {
			p := &Prepared{eng: s.p.eng, text: s.p.text, cfg: s.p.cfg, tr: s.p.tr}
			if v.err = p.compileNested(context.Background(), &nestedInput{base: s.in.base, f: s.in.f, db: v.db}); v.err != nil {
				return
			}
			v.p, v.db = p, nil
		}
		v.read, v.err = v.p.read(context.Background())
	})
	return v, v.err
}

// Eval pins the last commit for as long as it materialises and reads it.
func (s *nestedSession) Eval(args []int) (string, error) {
	epoch := s.clock.Pin()
	defer s.clock.Unpin(epoch)
	return s.read(epoch, args)
}

func (s *nestedSession) At(epoch uint64) func(args []int) (string, error) {
	return func(args []int) (string, error) { return s.read(epoch, args) }
}

// read answers the point query at a pinned epoch.
func (s *nestedSession) read(epoch uint64, args []int) (string, error) {
	v, err := s.materialize(epoch)
	if err != nil {
		return "", err
	}
	return v.read(args)
}

func (s *nestedSession) Answers(epoch uint64) (answers, error) {
	if s.p.enum == nil {
		return nil, nil
	}
	v, err := s.materialize(epoch)
	if err != nil {
		return nil, err
	}
	return v.p.enum, nil
}
