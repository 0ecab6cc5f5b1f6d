// Package dynamicq provides the user-facing dynamic query evaluation of
// Theorem 8 (and the update side of Theorem 24): after linear-time
// preprocessing of a sparse database, the value of a weighted query can be
// read at any tuple of the free variables, and both the weights and the
// tuples of designated dynamic relations can be updated, with logarithmic
// cost in general and constant cost over rings and finite semirings.
package dynamicq

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Query is a compiled weighted query f(x̄) over a structure, ready for
// evaluation, point queries and updates in a fixed semiring.
//
// # Goroutine safety
//
// A Query is a single-writer object: SetWeight, SetTuple and ApplyBatch (or
// Prepare and Stage) mutate the underlying dynamic evaluator and the query's
// own shadow of the weights and relations, and must be serialised by the
// caller (the agg layer does this with a fail-fast writer lock).  Value and
// ValueClosed read the last commit under Clock()'s shared lock, so they are
// safe from any goroutine and wait at most for one write's staged section;
// they must not be called by code already holding the clock.  A read that
// must stay at one commit while the writer moves on goes through At, on an
// epoch pinned on Clock().
type Query[T any] struct {
	// Relations shadows the dynamic relations: ValidateTuple, HasTuple.
	*compile.Relations
	// reader reads the writer's values as they stand; Value and ValueClosed
	// wrap it in the shared lock.
	reader[T]
	s       semiring.Semiring[T]
	dyn     *circuit.Dynamic[T]
	weights *structure.Weights[T]
	// leaves is the reusable leaf-change buffer Prepare fills and Stage
	// applies; members holds its membership leaves before they were embedded
	// in s, for an engine state in lockstep with this one (Members).
	leaves  []circuit.Leaf[T]
	members []circuit.Leaf[bool]
	// changed records that the prepared batch changes the database as the
	// query sees it (see Prepare), so Stage commits it.
	changed bool
	// syms holds what Prepare needs of each weight symbol of the caller's
	// signature, built at the first write; picked is Prepare's reusable list
	// of the symbol of each weight change of a batch, by its index in syms.
	syms   []weightSym
	picked []int32
	// gates maps a row of weights to its input gate, -1 when the Program does
	// not reference it, and unresolved until the row is first written.  Rows
	// are never renumbered and the Program is frozen, so an entry never goes
	// stale.
	gates []int32
}

// weightSym is one weight symbol of the caller's signature as Prepare reads
// it: its declaration, whether the closure's polynomial mentions it, and the
// head of its entries in the query's weights.
type weightSym struct {
	structure.WeightSymbol
	mentioned bool
	head      int32
}

// unresolved marks a row of Query.gates whose input gate is not looked up yet.
const unresolved = -2

// Shared is the semiring-agnostic closure of a query over an ordered list of
// parameters x̄ = x_1, ..., x_k:
//
//	f' = Σ_x̄ f(x̄) · v_1(x_1) ··· v_k(x_k)
//
// compiled into one circuit (Theorem 6), where the v_i are fresh unary weight
// symbols.  Which problem the circuit solves is decided by the semiring its
// consumer evaluates it in and by what it feeds the v_i: a Query raises them
// from 0 to 1 at one tuple to read f there (Theorem 8); enumerate.Answers
// closes f = [ϕ] and sets v_i(a) to the generator e^i_a of the free semiring,
// so the circuit's value enumerates the answers of ϕ (equation (4),
// Theorem 24), or to 1 in ℕ, so it counts them.
//
// One Shared may back any number of engine states, possibly in different
// semirings; instantiating one costs only its own state, not a
// recompilation.  A Query's state leaves out the gates that are 0 while the
// v_i are, as they are in every epoch of a session; the first NewQuery finds
// them, once per Shared (paramZero).  A Shared is safe for concurrent use by
// multiple goroutines: it is immutable after Close but for that set, which is
// written once.
type Shared struct {
	res  *compile.Result
	vars []string
	// sig is the caller's signature, the one writes are validated against;
	// res's extends it with the parameter weights, params[i] = paramWeight(i).
	sig    *structure.Signature
	params []string
	// mentions holds the weight symbols occurring in the closure's polynomial.
	mentions map[string]bool
	// zero marks the gates that are 0 while every parameter weight is 0
	// (circuit.Program.ZeroedBy), found at the first NewQuery; nil when there
	// are no parameters.
	zeroOnce sync.Once
	zero     []bool
	// paramGates[i*N+a] is the input gate of parameter i at element a of the
	// domain {0..N-1}, or -1 when the Program does not reference it, built at
	// the first point read (inputsOf).
	gatesOnce  sync.Once
	paramGates []int32
}

// FreeVars returns the closure's parameters, in the order Query.Value takes
// its arguments and enumerate.Answers lays out its tuples.
func (sh *Shared) FreeVars() []string { return append([]string(nil), sh.vars...) }

// Arity returns the number of parameters.
func (sh *Shared) Arity() int { return len(sh.vars) }

// Result exposes the underlying compilation result.
func (sh *Shared) Result() *compile.Result { return sh.res }

// Close compiles the closure of e over the parameter list vars, which must
// contain every free variable of e (a parameter e does not mention is summed
// out, so its argument is ignored; one listed twice takes two arguments that
// must agree).  This is the expensive, semiring-independent part of every
// dynamic engine: one view of a over the extended signature, one Compile.
func Close(a *structure.Structure, e expr.Expr, vars []string, opts compile.Options) (*Shared, error) {
	for _, v := range expr.FreeVars(e) {
		if !slices.Contains(vars, v) {
			return nil, fmt.Errorf("dynamicq: free variable %q is not among the parameters %v", v, vars)
		}
	}
	closed, base, params := e, a, make([]string, len(vars))
	if len(vars) > 0 {
		extra := make([]structure.WeightSymbol, len(vars))
		factors := []expr.Expr{e}
		// A variable listed twice is bound once and weighted at both
		// positions, so the two arguments must agree (binding it twice would
		// sum the inner binding out and scale the value by the domain size).
		var bound []string
		for i, v := range vars {
			params[i] = paramWeight(i)
			extra[i] = structure.WeightSymbol{Name: params[i], Arity: 1}
			factors = append(factors, expr.W(extra[i].Name, v))
			if !slices.Contains(vars[:i], v) {
				bound = append(bound, v)
			}
		}
		sig, err := a.Sig.WithWeights(extra...)
		if err == nil {
			base, err = a.Extend(sig)
		}
		if err != nil {
			return nil, fmt.Errorf("dynamicq: extending the structure: %w", err)
		}
		closed = expr.Agg(bound, expr.Times(factors...))
	}
	res, err := compile.Compile(base, closed, opts)
	if err != nil {
		return nil, err
	}
	mentions := map[string]bool{}
	for _, m := range res.Polynomial.Monomials {
		for _, w := range m.Weights {
			mentions[w.W] = true
		}
	}
	return &Shared{res: res, vars: slices.Clone(vars), sig: a.Sig, params: params, mentions: mentions}, nil
}

// CompileShared closes e over its own free variables in sorted order.
func CompileShared(a *structure.Structure, e expr.Expr, opts compile.Options) (*Shared, error) {
	return Close(a, e, expr.FreeVars(e), opts)
}

// paramWeight names the fresh unary weight symbol v_i of the closure (the
// free-variable reduction in the proof of Theorem 8, and the answer weight w_i
// of equation (4)).  Writes never reach it: a session validates its writes
// against the caller's signature, which lacks it.
func paramWeight(i int) string { return ".fv:" + strconv.Itoa(i) }

// Param reports whether in is an input of the closure's parameter weights
// and, if so, which parameter it belongs to and at which element.
func (sh *Shared) Param(in circuit.Input) (i int, a structure.Element, ok bool) {
	if i = slices.Index(sh.params, in.Symbol); i < 0 || in.Role != structure.Ordinary {
		return 0, 0, false
	}
	return i, in.Tuple[0], true
}

// paramZero returns the gates a session leaves out: those that are 0 while
// every parameter weight is 0.  A session's parameter weights are 0 in every
// epoch, since a point read raises them only in its private overlay and
// writes never reach them (Query.Prepare), so these gates are too; the
// overlay recomputes those on a raised parameter's cone from their children.
// Enumeration sets the parameters to generators and must not use the set.
func (sh *Shared) paramZero() []bool {
	sh.zeroOnce.Do(func() {
		if len(sh.params) > 0 {
			sh.zero = sh.res.Program.ZeroedBy(func(in circuit.Input) bool {
				_, _, ok := sh.Param(in)
				return ok
			})
		}
	})
	return sh.zero
}

// inputsOf returns the input gate of parameter i at element a, or -1 when a
// is outside the domain or the Program does not reference that input.  The
// first call tabulates every parameter at every element, one int32 each, so
// a point read finds its inputs by indexing, not by probing the Program.
func (sh *Shared) inputsOf(i int, a structure.Element) int {
	n := sh.res.Structure.N
	sh.gatesOnce.Do(func() {
		sh.paramGates = make([]int32, len(sh.params)*n)
		for j, p := range sh.params {
			for b := range n {
				sh.paramGates[j*n+b] = int32(sh.res.Program.FindInput(p, structure.Ordinary, structure.Tuple{b}))
			}
		}
	})
	if a < 0 || a >= n {
		return -1
	}
	return int(sh.paramGates[i*n+a])
}

// NewQuery instantiates a compiled query in the semiring s under the initial
// weight assignment w.  The query keeps a reference to w and records
// SetWeight updates into it; pass a fresh copy when the caller's assignment
// must stay untouched.  Many queries may be built from one Shared; each gets
// independent update state.
func NewQuery[T any](s semiring.Semiring[T], sh *Shared, w *structure.Weights[T]) *Query[T] {
	if w == nil {
		w = structure.NewWeights[T]()
	}
	// Every session instantiated from this Shared borrows the same frozen
	// Program: the ranks, parents CSR and children arena are shared, only the
	// per-session values and maintenance state below are private, and none of
	// it for the gates the parameters hold at zero.
	dyn := circuit.NewDynamicPruned(sh.res.Program, s, compile.NewValuation(sh.res, s, w), sh.paramZero())
	return &Query[T]{
		Relations: compile.NewRelations(sh.res),
		reader:    reader[T]{sh: sh, one: s.One(), vals: dyn.Live()},
		s:         s,
		weights:   w,
		dyn:       dyn,
	}
}

// CompileQuery compiles the weighted expression e, whose free variables
// (if any) become query parameters, over the structure a.  The weights w
// provide the initial valuation.  Equivalent to CompileShared followed by
// NewQuery.
func CompileQuery[T any](s semiring.Semiring[T], a *structure.Structure, w *structure.Weights[T], e expr.Expr, opts compile.Options) (*Query[T], error) {
	sh, err := CompileShared(a, e, opts)
	if err != nil {
		return nil, err
	}
	return NewQuery(s, sh, w), nil
}

// SetWaveHook installs (or, with nil, removes) a listener receiving the
// duration of each propagation wave of this session's dynamic evaluator;
// see circuit.Dynamic.SetWaveHook.  With no hook installed the update path
// performs no clock reads.
func (q *Query[T]) SetWaveHook(f func(time.Duration)) { q.dyn.SetWaveHook(f) }

// FreeVars returns the query's free variables in the order expected by
// Value.
func (q *Query[T]) FreeVars() []string { return q.sh.FreeVars() }

// Result exposes the underlying compilation result (circuit statistics,
// colouring, normalised polynomial).
func (q *Query[T]) Result() *compile.Result { return q.sh.res }

// Value returns the value of the query at the given tuple of the free
// variables as of the last commit, read under the clock's shared lock.
func (q *Query[T]) Value(args ...structure.Element) (T, error) {
	c := q.Clock()
	c.RLock()
	defer c.RUnlock()
	return q.reader.Value(args...)
}

// ValueClosed returns the value of a closed query (no free variables) as of
// the last commit, read under the clock's shared lock.
func (q *Query[T]) ValueClosed() (T, error) {
	c := q.Clock()
	c.RLock()
	defer c.RUnlock()
	return q.reader.ValueClosed()
}

// Clock returns the clock the value state commits under (circuit.Dynamic.Clock).
func (q *Query[T]) Clock() *mvcc.Clock { return q.dyn.Clock() }

// SetWeight updates the weight w(tuple) to the given value: ApplyBatch of the
// one change.
func (q *Query[T]) SetWeight(weight string, tuple structure.Tuple, value T) error {
	return q.ApplyBatch([]Change[T]{{Weight: weight, Tuple: tuple, Value: value}})
}

// SetTuple inserts (present=true) or removes (present=false) a tuple of a
// dynamic relation: ApplyBatch of the one change.  The update must preserve
// the Gaifman graph: the elements of the tuple must already form a clique in
// the Gaifman graph of the compiled structure (Theorem 24's update model).
func (q *Query[T]) SetTuple(rel string, tuple structure.Tuple, present bool) error {
	return q.ApplyBatch([]Change[T]{{Rel: rel, Tuple: tuple, Present: present}})
}

// Change is one element of an ApplyBatch batch: a weight update (Weight
// non-empty: Weight(Tuple) takes Value) or a dynamic-relation update (Rel
// non-empty: membership of Tuple becomes Present).  Exactly one of Weight
// and Rel must be set.
type Change[T any] struct {
	Weight  string
	Rel     string
	Tuple   structure.Tuple
	Value   T
	Present bool
}

// ApplyBatch applies a mixed batch of weight and tuple changes atomically:
// every change is validated up front and either the whole batch is applied
// or none of it is.  All leaf inputs are written first and a single
// propagation wave then refreshes the circuit in rank order (see
// circuit.Dynamic.ApplyBatch), so gates shared by several changes are
// recomputed once per batch and repeated changes to the same key coalesce
// with the last value winning.  The result is observationally identical to
// applying the changes one at a time through SetWeight/SetTuple, except that
// the batch commits one epoch — none if it changes nothing the query can see
// (Prepare) — so a snapshot can never pin a half-applied batch or a
// half-toggled tuple.
func (q *Query[T]) ApplyBatch(changes []Change[T]) error {
	if err := q.Prepare(changes); err != nil {
		return err
	}
	c := q.Clock()
	c.Lock()
	defer c.Unlock()
	q.Stage()
	c.Commit()
	return nil
}

// Prepare is the half of ApplyBatch that needs no lock: it validates the
// batch (all-or-nothing) against the caller's signature — a weight it
// declares, an element of the domain — and not the closure's, so no write
// reaches a parameter weight; records it in the query's shadow of the weights
// and relations; and translates it into the leaf changes the next Stage
// applies.
//
// A weight change names its symbol once, in a small per-query table (its
// declaration, whether the polynomial mentions it, its head in the weights),
// and its tuple once: one probe of the weights' index assigns the value and
// returns the entry's row with the value it replaced.  The row's input gate
// is looked up in the Program on the row's first write and read from a
// row-indexed array after that.
//
// It also decides whether the batch is a commit, by the database and not by
// the circuit: a batch commits iff it changes the stored value (missing is
// zero) of a weight symbol the query's polynomial mentions, or the membership
// of a tuple of a dynamic relation.  Which of those inputs the compiler
// happened to wire to a gate — it prunes the ones no answer can reach — does
// not enter into it.
func (q *Query[T]) Prepare(changes []Change[T]) error {
	picked := q.picked[:0]
	for i, ch := range changes {
		var err error
		switch {
		case ch.Weight != "" && ch.Rel != "":
			err = fmt.Errorf("change names both weight %q and relation %q", ch.Weight, ch.Rel)
		case ch.Weight != "":
			k := q.symbol(ch.Weight)
			picked = append(picked, int32(k))
			if k < 0 {
				err = fmt.Errorf("unknown weight symbol %q", ch.Weight)
			} else if arity := q.syms[k].Arity; arity != len(ch.Tuple) {
				err = fmt.Errorf("weight %q has arity %d, got tuple of length %d", ch.Weight, arity, len(ch.Tuple))
			} else {
				err = q.sh.res.Structure.CheckDomain(ch.Tuple)
			}
		case ch.Rel != "":
			err = q.ValidateTuple(ch.Rel, ch.Tuple, ch.Present)
		default:
			err = fmt.Errorf("change names neither a weight nor a relation")
		}
		if err != nil {
			if len(changes) > 1 {
				err = fmt.Errorf("batch change %d: %w", i, err)
			}
			q.picked = picked[:0]
			return fmt.Errorf("dynamicq: %w", err)
		}
	}
	leaf, members := q.leaves[:0], q.members[:0]
	next := 0
	for _, ch := range changes {
		if ch.Weight != "" {
			sym := &q.syms[picked[next]]
			next++
			row, old, had := q.weights.Assign(sym.head, ch.Tuple, ch.Value)
			if sym.mentioned {
				if !had {
					old = q.s.Zero()
				}
				q.changed = q.changed || !q.s.Equal(old, ch.Value)
			}
			leaf = append(leaf, circuit.Leaf[T]{Gate: q.inputGate(row, ch.Weight, ch.Tuple), Value: ch.Value})
			continue
		}
		// Both membership inputs land in one wave and one epoch.
		pair, was := q.Record(ch.Rel, ch.Tuple, ch.Present)
		q.changed = q.changed || was != ch.Present
		members = append(members, pair[:]...)
		for _, m := range pair {
			leaf = append(leaf, circuit.Leaf[T]{Gate: m.Gate, Value: semiring.Iverson(q.s, m.Value)})
		}
	}
	q.leaves, q.members, q.picked = leaf, members, picked[:0]
	return nil
}

// symbol returns the index in q.syms of the weight symbol name, or -1 when
// the caller's signature does not declare it.  The table is built at the
// first write, so opening a session allocates none of it; a signature
// declares a handful of weight symbols, so a scan beats hashing the name.
func (q *Query[T]) symbol(name string) int {
	if q.syms == nil {
		decls := q.sh.sig.Weights
		q.syms = make([]weightSym, len(decls))
		for i, d := range decls {
			q.syms[i] = weightSym{WeightSymbol: d, mentioned: q.sh.mentions[d.Name], head: q.weights.Head(d.Name)}
		}
	}
	for i := range q.syms {
		if q.syms[i].Name == name {
			return i
		}
	}
	return -1
}

// inputGate returns the input gate of row of the query's weights, which holds
// weight at t, or -1 when the Program does not reference it; it looks the
// gate up on the row's first write only.
func (q *Query[T]) inputGate(row int, weight string, t structure.Tuple) int {
	for len(q.gates) <= row {
		q.gates = append(q.gates, unresolved)
	}
	if g := q.gates[row]; g != unresolved {
		return int(g)
	}
	g := q.sh.res.Program.FindInput(weight, structure.Ordinary, t)
	q.gates[row] = int32(g)
	return g
}

// Members returns the membership leaves of the batch Prepare translated,
// before they were embedded in the query's semiring, so that another engine
// state over the same closure and clock (enumerate.Answers.Follow) stages
// exactly what this one records and stages.  They are valid until Stage.
func (q *Query[T]) Members() []circuit.Leaf[bool] { return q.members }

// Stage is the other half: it writes the prepared leaves into the value
// state, runs one wave and marks the write as a commit if Prepare found it to
// be one, without committing.  The caller holds Clock()
// exclusively and commits, after staging the batch into any other engine
// state on the clock.  The leaf buffer is zeroed before it is recycled, so its
// backing array does not pin the batch's semiring values (e.g.
// provenance polynomials) until the next large batch.
func (q *Query[T]) Stage() {
	q.dyn.Stage(q.leaves)
	if q.changed {
		q.Clock().Touch()
		q.changed = false
	}
	clear(q.leaves)
	q.leaves, q.members = q.leaves[:0], q.members[:0]
}
