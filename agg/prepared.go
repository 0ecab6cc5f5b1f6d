package agg

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/structure"
)

// Prepared is a compiled query bound to one engine and one semiring: the
// facade's analogue of a prepared statement.  A Prepared owns exactly one
// frozen circuit program — the closure of the query over its parameters —
// shared by every evaluation, session and enumeration drawn from it, and is
// safe for concurrent use.
//
// A Prepared is in one of two modes, decided by what the query text parses
// as:
//
//   - expression mode (a weighted expression): Eval computes the circuit
//     value — closed queries take no arguments, queries with free variables
//     take one element per free variable (a point query, Theorem 8) — and
//     Session opens dynamic-update state.  Enumerate fails with
//     ErrNotEnumerable.
//   - formula mode (a first-order formula): Enumerate streams the answer
//     set with constant delay and AnswerCount counts it (Theorem 24);
//     Eval(args...) decides membership of one answer tuple, given in
//     AnswerVars order, and Session tracks membership under updates.
type Prepared struct {
	eng       *Engine
	text      string
	canonical string
	cfg       config
	// sem is the carrier sh is evaluated in: the WithSemiring one (cfg.semiring
	// names it), or the one a nested query's connectives end in.
	sem Semiring

	// sh is the one compilation behind Eval, sessions and enumeration: the
	// query closed over its parameters (its free variables, or the answer
	// variables of a formula).
	sh *dynamicq.Shared

	// ev holds the weights in sem and the point query Eval keeps.
	ev evaluation

	// Enumeration backend (formula and boolean nested mode): built at Prepare
	// on sh, shared by all cursors and by every In rebind (it never
	// receives updates).
	enum *enumState

	// tr is the stage tracer captured from the Prepare context (nil when the
	// caller attached none); sessions spawned from this Prepared report their
	// propagation-wave timings into it, and context-free entry points fall
	// back to it.  All obs methods are nil-safe, so no call site guards it.
	tr *obs.Tracer
}

// evaluation is what a Prepared evaluates in its carrier: the weights the
// program reads — the database's, converted on first use, or the ones a nested
// query's materialisation derived at Prepare — and the point query the first
// Eval builds on them, which every later Eval takes without a lock.
type evaluation struct {
	mu   sync.Mutex // guards cw and serialises building read
	cw   any
	read atomic.Pointer[func(args []int) (string, error)]
}

// enumState is the enumeration backend of an enumerable query: the
// constant-delay enumerator over the Prepared's program — the same closure in
// the free semiring — plus the memoised answer total (the enumerator is
// static, so the total is a constant computed at most once).
type enumState struct {
	ans       *enumerate.Answers
	countOnce sync.Once
	count     int64
}

// Cursor draws an independent cursor over the answers.
func (e *enumState) Cursor() *enumerate.TupleCursor { return e.ans.Cursor() }

// Count returns the number of answers, counted on the first call.
func (e *enumState) Count() int64 {
	e.countOnce.Do(func() { e.count = e.ans.Count() })
	return e.count
}

// Prepare parses and compiles a query over the engine's database.  The query
// is either a weighted expression ("sum x, y . [E(x,y)] * w(x,y)") or a
// first-order formula ("E(x,y) & S(x)"); see Prepared for how the two modes
// behave.  Compilation — the expensive, linear-time preprocessing of the
// paper — happens here, once; a context cancelled before or during it fails
// the Prepare.  For a WithNested query it includes
// materialising every guarded connective at its guard tuples (one compilation
// per connective argument), so that what Prepare leaves is one program like
// any other and reads pay none of it.
func (e *Engine) Prepare(ctx context.Context, query string, opts ...Option) (*Prepared, error) {
	ctx = ensureCtx(ctx)
	cfg := config{semiring: "natural"}
	for _, opt := range opts {
		opt(&cfg)
	}
	sem, err := LookupSemiring(cfg.semiring)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	tr := obs.FromContext(ctx)
	p := &Prepared{eng: e, text: query, cfg: cfg, sem: sem, tr: tr}
	p.cfg.semiring = sem.Name()

	// Nested mode: the formula is the WithNested tree, not the query text.
	if cfg.nested != nil {
		in, err := p.nestedInput()
		if err != nil {
			return nil, newError(ErrCompile, query, err)
		}
		return p, p.compileNested(ctx, in)
	}

	// Decide the mode.  WithAnswerVars forces formula mode; otherwise a
	// query that parses and validates as a weighted expression is one, and
	// anything else is tried as a formula.
	parseSpan := tr.StartSpan(obs.StageParse)
	var ex expr.Expr
	var exprParseErr, exprValidateErr error
	if len(cfg.answerVars) == 0 {
		ex, exprParseErr = parser.ParseExpr(query)
		if exprParseErr == nil {
			if verr := expr.Validate(ex, e.db.a.Sig); verr != nil {
				ex, exprValidateErr = nil, verr
			}
		}
	}

	if ex != nil {
		parseSpan.End()
		p.canonical = parser.FormatExpr(ex)
		if err := p.compile(ctx, tr.StartSpan(obs.StageCompile), e.db.a, ex, nil, nil); err != nil {
			return nil, err
		}
		return p, nil
	}

	phi, ferr := parser.ParseFormula(query)
	parseSpan.End()
	if ferr != nil {
		if len(cfg.answerVars) > 0 {
			return nil, newError(ErrParse, query, ferr)
		}
		if exprValidateErr != nil {
			// The expression parsed but failed signature validation, and the
			// formula parse failed outright: the validation error is the
			// story.
			return nil, newError(ErrCompile, query, exprValidateErr)
		}
		// Neither shape parsed; report whichever diagnosis got further.
		return nil, newError(ErrParse, query, betterParseError(exprParseErr, ferr))
	}
	vars := cfg.answerVars
	if len(vars) == 0 {
		vars = logic.FreeVars(phi)
	}
	if len(vars) == 0 {
		return nil, errorf(ErrArgument, query, "formula has no free variables to enumerate over; evaluate it as the expression [%s] instead", query)
	}
	p.canonical = parser.FormatFormula(phi)
	if err := p.compile(ctx, tr.StartSpan(obs.StageCompile), e.db.a, nil, phi, vars); err != nil {
		return nil, err
	}
	return p, nil
}

// betterParseError picks, of two parse failures for the same input, the one
// whose parser got further before failing.
func betterParseError(exprErr, formulaErr error) error {
	var ep, fp *parser.Error
	eOK := errors.As(exprErr, &ep)
	fOK := errors.As(formulaErr, &fp)
	switch {
	case eOK && fOK:
		if fp.Pos > ep.Pos {
			return formulaErr
		}
		return exprErr
	case fOK:
		return formulaErr
	default:
		return exprErr
	}
}

func (p *Prepared) compileOptions() compile.Options {
	return compile.Options{DynamicRelations: p.cfg.dynamic, MaxVars: p.cfg.maxVars}
}

// compile is the tail every Prepare ends in, flat or nested: the one
// compilation of the query over the structure a — the closure of the
// expression ex over its free variables, or, when phi is given, the
// constant-delay enumerator of phi's answers over vars and the closure it is
// built on.  It closes the compile stage span and, once nothing can fail any
// more, installs what it produced.
func (p *Prepared) compile(ctx context.Context, span obs.Span, a *structure.Structure, ex expr.Expr, phi logic.Formula, vars []string) error {
	var sh *dynamicq.Shared
	var ans *enumerate.Answers
	var err error
	if phi != nil {
		if ans, err = enumerate.EnumerateAnswers(a, phi, vars, p.compileOptions()); err == nil {
			sh = ans.Shared()
		}
	} else {
		sh, err = dynamicq.CompileShared(a, ex, p.compileOptions())
	}
	if err != nil {
		return newError(ErrCompile, p.text, err)
	}
	span.End()
	obs.FromContext(ctx).Observe(obs.StageFreeze, sh.Result().Program.FreezeDuration())
	if err := ctx.Err(); err != nil {
		return err
	}
	p.sh = sh
	if ans != nil {
		p.enum = &enumState{ans: ans}
	}
	return nil
}

// weights returns the weights the program reads, in the carrier: the
// database's are converted on first use (enumeration never needs them, and an
// In rebind starts without).
func (p *Prepared) weights() any {
	p.ev.mu.Lock()
	defer p.ev.mu.Unlock()
	return p.weightsLocked()
}

// weightsLocked is weights for a caller that holds p.ev.mu.
func (p *Prepared) weightsLocked() any {
	if p.ev.cw == nil {
		p.ev.cw = p.sem.convert(p.eng.db.w)
	}
	return p.ev.cw
}

// Query returns the original query text.
func (p *Prepared) Query() string { return p.text }

// Canonical returns the canonical printed form of the query (the circuit
// cache key used by aggserve).
func (p *Prepared) Canonical() string { return p.canonical }

// SemiringName returns the name of the semiring the query was prepared in
// (WithSemiring, or In).
func (p *Prepared) SemiringName() string { return p.cfg.semiring }

// Enumerable reports whether Enumerate and AnswerCount are available: the
// query was prepared in formula mode, or as a boolean nested formula with
// free variables.
func (p *Prepared) Enumerable() bool { return p.enum != nil }

// FreeVars returns the query's free variables, in the order Eval takes its
// arguments: the point-query parameters of an expression or nested formula,
// or the answer variables of a formula.
func (p *Prepared) FreeVars() []string { return p.sh.FreeVars() }

// CircuitStats summarises the frozen circuit program behind a Prepared.
type CircuitStats struct {
	Gates       int
	Edges       int
	Depth       int
	PermGates   int
	MaxPermRows int
	Inputs      int
}

// Stats returns the structural statistics of the frozen circuit program,
// computed from its CSR arrays.
func (p *Prepared) Stats() CircuitStats {
	st := p.sh.Result().Program.Stats()
	return CircuitStats{Gates: st.Gates, Edges: st.Edges, Depth: st.Depth, PermGates: st.PermGates, MaxPermRows: st.MaxPermRows, Inputs: st.InputGates}
}

// Footprint returns the resident size in bytes of the frozen circuit
// program — the artefact all evaluations, sessions and enumerations of this
// Prepared share.
func (p *Prepared) Footprint() int64 { return p.sh.Result().Program.Footprint() }

// In returns a Prepared over the same compilation bound to another
// registered semiring: the circuit is shared, only the weight embedding and
// session state differ, so rebinding costs one weight conversion instead of
// a recompilation.
func (p *Prepared) In(name string) (*Prepared, error) {
	if p.cfg.nested != nil {
		return nil, errorf(ErrArgument, p.text, "nested queries fix their carriers at Prepare; prepare again with WithSemiring(%q)", name)
	}
	sem, err := LookupSemiring(name)
	if err != nil {
		return nil, err
	}
	clone := p.view(sem)
	clone.cfg.semiring = sem.Name()
	return clone, nil
}

// view returns a Prepared over p's compilation and enumeration state in the
// carrier sem, with an evaluation of its own: In's rebind, which evaluates in
// another carrier.
func (p *Prepared) view(sem Semiring) *Prepared {
	return &Prepared{eng: p.eng, text: p.text, canonical: p.canonical, cfg: p.cfg, sem: sem, sh: p.sh, enum: p.enum, tr: p.tr}
}

// Eval evaluates the prepared query under the context.  A closed query takes
// no arguments; a query with k free variables takes exactly k elements, in
// FreeVars order, and answers the point query f(args) (Theorem 8).  Either
// way Eval reads an evaluation of every gate: a closed query's is made by
// each Eval, a point query's by the first one and kept, and every later point
// read raises the parameter weights at args in a private overlay over it,
// taking no lock.  Cancelling the context stops an evaluation in bounded time;
// a cancelled one is not kept, and the next Eval evaluates again.
func (p *Prepared) Eval(ctx context.Context, args ...int) (Value, error) {
	ctx = ensureCtx(ctx)
	if err := ctx.Err(); err != nil {
		return "", err
	}
	evalSpan := obs.FromContext(ctx).StartSpan(obs.StageEval)
	read, err := p.read(ctx)
	if err != nil {
		return "", err
	}
	out, err := read(args)
	if err != nil {
		return "", newError(ErrArgument, p.text, err)
	}
	evalSpan.End()
	return Value(out), nil
}

// read returns the Prepared's evaluation under ctx.  A query with free
// variables keeps the one its first Eval builds, and a cancelled build is not
// kept; a closed query is evaluated afresh by every Eval (keeping its value
// waits on the benchmark timing evaluation on its own; see ROADMAP).
func (p *Prepared) read(ctx context.Context) (func(args []int) (string, error), error) {
	if r := p.ev.read.Load(); r != nil {
		return *r, nil
	}
	if len(p.sh.FreeVars()) == 0 {
		return p.sem.newStatic(ctx, p.sh, p.weights())
	}
	p.ev.mu.Lock()
	defer p.ev.mu.Unlock()
	if r := p.ev.read.Load(); r != nil {
		return *r, nil
	}
	r, err := p.sem.newStatic(ctx, p.sh, p.weightsLocked())
	if err != nil {
		return nil, err
	}
	p.ev.read.Store(&r)
	return r, nil
}

// Session opens a dynamic-update session on the shared compilation: point
// queries plus weight and tuple updates with logarithmic cost (Theorem 8),
// under the concurrency contract the Session type describes.  Each call
// returns independent session state.  An enumerable query with dynamic
// relations keeps its answer set on the session's clock too, so a Reader's
// one pin serves Eval, Enumerate and AnswerCount at one epoch.  A nested
// query's session recomputes: the first read of an epoch re-materialises the
// query over that epoch's database, and epoch 0 is the Prepared's own program.
func (p *Prepared) Session() (*Session, error) {
	open := p.sem.newSession
	if p.cfg.nested != nil {
		open = newNestedSession
	}
	sess := open(p)
	return &Session{p: p, sess: sess, clock: sess.Clock()}, nil
}
