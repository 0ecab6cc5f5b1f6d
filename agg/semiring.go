package agg

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/mvcc"
	"repro/internal/nested"
	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Arithmetic is the contract a carrier type must satisfy to be registered as
// a semiring: a commutative semiring (S, +, ·, 0, 1) with equality and a
// formatter.  Implementations must be cheap to copy and free of side effects
// on their arguments; all methods may be called from many goroutines at
// once.
type Arithmetic[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// One returns the multiplicative identity.
	One() T
	// Add returns a + b.
	Add(a, b T) T
	// Mul returns a · b.
	Mul(a, b T) T
	// Equal reports whether two elements are equal.
	Equal(a, b T) bool
	// Format renders an element as the string surfaced by Eval.
	Format(a T) string
}

// Semiring is one named carrier queries can be evaluated in.  Values are
// opaque to callers: obtain instances from the registry (LookupSemiring) or
// construct new ones with NewSemiring, and select them per query with
// WithSemiring.  The interface is sealed; user-defined carriers plug in
// through NewSemiring's Arithmetic and embedding function.
type Semiring interface {
	// Name returns the registry name of the carrier.
	Name() string

	// convert embeds the database's integer weights into the carrier once;
	// the result is immutable and shared by any number of evaluations.
	convert(w *structure.Weights[int64]) any
	// adopt is convert for weights that already are values of the carrier: the
	// ones a nested query's materialisation derived, dynamically typed.
	adopt(ws *structure.Weights[any]) (any, error)
	// newSession instantiates per-session dynamic state (Theorem 8) on p's
	// compilation, with a private copy of its converted weights.  The Prepare
	// tracer, when there is one, receives the session's propagation-wave
	// timings; without one the update path is uninstrumented (no clock reads).
	newSession(p *Prepared) erasedSession
	// newStatic evaluates a shared compilation once under the converted
	// weights cw, stopping with ctx's error when ctx is cancelled, and returns
	// its point query, a lock-free read.  A closed query keeps its formatted
	// value, not the gates.
	newStatic(ctx context.Context, sh *dynamicq.Shared, cw any) (func(args []int) (string, error), error)
	// boxed returns the dynamically typed view of the carrier used by nested
	// (FOG[C]) formulas; bool carriers map onto the canonical boolean box so
	// nested's boolean positions recognise them.
	boxed() nested.Semiring
	// embedAny embeds one int64 database weight into the carrier, with the
	// type erased for nested S-relation stores.
	embedAny(weight string, tuple []int, v int64) any
}

// erasedSession is the engine state of a dynamic-update session with the
// carrier type erased; the public Session type wraps it with the fail-fast
// writer lock and lifecycle state.
type erasedSession interface {
	// Write validates the batch and applies it as one exclusive section of
	// Clock() that commits at most one epoch, which it returns (0 when the
	// write changed nothing).
	Write(changes []Change) (committed uint64, err error)
	// Clock is the session's one MVCC clock: commit counter, reader pins and
	// reader/writer lock of every engine state the session keeps.
	Clock() *mvcc.Clock
	// Eval is the point query as of the last commit, safe from any goroutine:
	// it waits at most for one write's staged section and never for the
	// writer lock.
	Eval(args []int) (string, error)
	// At returns the point query as of an epoch pinned on Clock(), for a
	// Reader: it keeps answering as of that commit while the writer keeps
	// committing, and is meant for one goroutine.
	At(epoch uint64) func(args []int) (string, error)
	// Answers returns the answer set as of a pinned epoch, nil for a query
	// that is not enumerable.
	Answers(epoch uint64) (answers, error)
}

// answers is the answer set of one epoch: an enumerable Prepared's, which no
// write reaches, a session follower's at a pin, or a nested version's.
type answers interface {
	Cursor() *enumerate.TupleCursor
	Count() int64
}

// NewSemiring builds a registrable semiring from an arithmetic and an
// embedding that maps a database weight — identified by its weight symbol,
// tuple, and serialised int64 value — into the carrier.  The embedding sees
// the full key so carriers like the provenance semiring can mint a distinct
// generator per tuple.
func NewSemiring[T any](name string, ops Arithmetic[T], embed func(weight string, tuple []int, value int64) T) Semiring {
	return &typedSemiring[T]{name: name, s: semiring.Semiring[T](ops), embed: embed}
}

// typedSemiring adapts one semiring.Semiring[T] to the erased interface.
type typedSemiring[T any] struct {
	name  string
	s     semiring.Semiring[T]
	embed func(weight string, tuple []int, value int64) T
}

func (ts *typedSemiring[T]) Name() string { return ts.name }

func (ts *typedSemiring[T]) convert(w *structure.Weights[int64]) any {
	if w == nil {
		return structure.NewWeights[T]()
	}
	return structure.MapWeights(w, func(weight string, t structure.Tuple, v int64) T { return ts.embed(weight, t, v) })
}

func (ts *typedSemiring[T]) adopt(ws *structure.Weights[any]) (any, error) {
	return nested.TypedWeights[T](ws)
}

func (ts *typedSemiring[T]) newSession(p *Prepared) erasedSession {
	q := dynamicq.NewQuery(ts.s, p.sh, p.weights().(*structure.Weights[T]).Clone())
	if hook := p.tr.WaveHook(); hook != nil {
		q.SetWaveHook(hook)
	}
	s := &typedSession[T]{ts: ts, sh: p.sh, q: q}
	switch {
	case p.enum != nil && len(p.cfg.dynamic) > 0:
		s.follower = p.enum.ans.Follower(q.Clock())
	case p.enum != nil:
		s.static = p.enum
	}
	return s
}

func (ts *typedSemiring[T]) newStatic(ctx context.Context, sh *dynamicq.Shared, cw any) (func(args []int) (string, error), error) {
	res, w := sh.Result(), cw.(*structure.Weights[T])
	if len(sh.FreeVars()) > 0 {
		st, err := dynamicq.NewStatic(ctx, ts.s, sh, w)
		if err != nil {
			return nil, err
		}
		return func(args []int) (string, error) { return ts.format(st.Value(args...)) }, nil
	}
	// A closed query has one value: keep it formatted, not the gates.
	vals, err := circuit.ParallelEvaluateAllProgramCtx(ctx, res.Program, ts.s, compile.NewValuation(res, ts.s, w))
	if err != nil {
		return nil, err
	}
	out := ts.s.Format(vals[res.Program.OutputGate()])
	return func(args []int) (string, error) {
		if len(args) > 0 {
			return "", fmt.Errorf("query has no free variables, got %d arguments", len(args))
		}
		return out, nil
	}, nil
}

func (ts *typedSemiring[T]) boxed() nested.Semiring {
	if _, ok := any(ts.s).(semiring.Semiring[bool]); ok {
		return nested.BoolSemiring
	}
	return nested.Box(ts.name, ts.s)
}

func (ts *typedSemiring[T]) embedAny(weight string, tuple []int, v int64) any {
	return ts.embed(weight, tuple, v)
}

// typedSession adapts a dynamicq.Query to the erased session interface.
type typedSession[T any] struct {
	ts *typedSemiring[T]
	sh *dynamicq.Shared
	q  *dynamicq.Query[T]
	// static is an enumerable Prepared's answer set, every epoch's when no
	// relation is dynamic; otherwise follower, a second engine state on q's
	// program and clock, takes every write q validates, committed with it.
	static   answers
	follower *enumerate.Answers
}

// format renders a point read's value, or passes its error on.
func (ts *typedSemiring[T]) format(v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return ts.s.Format(v), nil
}

func (s *typedSession[T]) Clock() *mvcc.Clock { return s.q.Clock() }

func (s *typedSession[T]) Eval(args []int) (string, error) {
	return s.ts.format(s.q.Value(args...))
}

func (s *typedSession[T]) At(epoch uint64) func(args []int) (string, error) {
	snap := s.q.At(epoch)
	return func(args []int) (string, error) { return s.ts.format(snap.Value(args...)) }
}

func (s *typedSession[T]) Answers(epoch uint64) (answers, error) {
	if s.follower != nil {
		return s.follower.At(epoch), nil
	}
	return s.static, nil
}

// Write is the one write section of a session: the query validates the
// batch, records it in the session's one shadow and translates it into leaf
// inputs, then — under the clock, exclusively — the follower (when the
// session keeps one) stages the query's membership leaves, the value state
// stages all of them, and the clock commits once, iff either state changed.
// The embedding is the registrant's code, so it runs before the clock is
// taken.
func (s *typedSession[T]) Write(changes []Change) (uint64, error) {
	// A single Set converts on the stack.
	var one [1]dynamicq.Change[T]
	typed := one[:0]
	if len(changes) > 1 {
		typed = make([]dynamicq.Change[T], 0, len(changes))
	}
	for _, ch := range changes {
		typed = append(typed, dynamicq.Change[T]{Weight: ch.Weight, Rel: ch.Rel, Tuple: ch.Tuple, Present: ch.Present})
		if ch.Weight != "" {
			typed[len(typed)-1].Value = s.ts.embed(ch.Weight, ch.Tuple, ch.Value)
		}
	}
	if err := s.q.Prepare(typed); err != nil {
		return 0, err
	}
	c := s.q.Clock()
	c.Lock()
	defer c.Unlock()
	if s.follower != nil {
		s.follower.Follow(s.sh, s.q.Members())
	}
	s.q.Stage()
	return c.Commit(), nil
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

var registry = struct {
	sync.RWMutex
	m map[string]Semiring
}{m: map[string]Semiring{}}

// Register adds a semiring to the process-wide registry, making it available
// to WithSemiring and to frontends such as aggserve.  Registering an empty
// name or a name that is already taken fails.
func Register(s Semiring) error {
	if s == nil || s.Name() == "" {
		return errorf(ErrArgument, "", "agg: Register needs a named semiring")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[s.Name()]; dup {
		return errorf(ErrArgument, "", "agg: semiring %q is already registered", s.Name())
	}
	registry.m[s.Name()] = s
	return nil
}

// MustRegister is Register, panicking on error; intended for package init
// blocks.
func MustRegister(s Semiring) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// LookupSemiring resolves a registered semiring by name.  The empty name
// selects "natural".
func LookupSemiring(name string) (Semiring, error) {
	if name == "" {
		name = "natural"
	}
	registry.RLock()
	s, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, errorf(ErrUnknownSemiring, "", "unknown semiring %q (available: %v)", name, SemiringNames())
	}
	return s, nil
}

// SemiringNames lists the registered semirings in sorted order.
func SemiringNames() []string {
	registry.RLock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	registry.RUnlock()
	sort.Strings(names)
	return names
}

// The built-in carriers: counting, tropical shortest-path, boolean
// satisfiability, and why-provenance.  The provenance entry maps every
// non-zero weight to a fresh generator named after its tuple, so query
// values come back as provenance polynomials.
func init() {
	MustRegister(NewSemiring[int64]("natural", semiring.Nat,
		func(_ string, _ []int, v int64) int64 { return v }))
	MustRegister(NewSemiring[semiring.Ext]("minplus", semiring.MinPlus,
		func(_ string, _ []int, v int64) semiring.Ext { return semiring.Fin(v) }))
	MustRegister(NewSemiring[semiring.Ext]("maxplus", semiring.MaxPlus,
		func(_ string, _ []int, v int64) semiring.Ext { return semiring.Fin(v) }))
	MustRegister(NewSemiring[bool]("boolean", semiring.Bool,
		func(_ string, _ []int, v int64) bool { return v != 0 }))
	MustRegister(NewSemiring[*provenance.Poly]("provenance", provenance.Free,
		func(weight string, tuple []int, v int64) *provenance.Poly {
			if v == 0 {
				return provenance.NewPoly()
			}
			// The generator is named after the weight's label, w(0,1).
			k := structure.InputLabel(weight, structure.Ordinary, tuple)
			return provenance.Var(provenance.Generator(k.Weight + "(" + k.Tuple + ")"))
		}))
}
