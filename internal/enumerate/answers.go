package enumerate

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/mvcc"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Answers is the dynamic constant-delay enumerator for the answer set of a
// first-order query ϕ(x̄) on a sparse database (Theorem 24): linear-time
// preprocessing, constant delay between answers, and constant-time
// Gaifman-preserving updates to the dynamic relations.
//
// It is the closure Σ_x̄ [ϕ(x̄)] · w_1(x_1) ··· w_k(x_k) of equation (4) — the
// same dynamicq.Shared a point query of [ϕ] toggles — evaluated in the free
// semiring with w_i(a) set to the generator e^i_a.  The generator table is
// built once per closure and shared by every Clone and Follower.
type Answers struct {
	// rel shadows the dynamic relations ApplyBatch validates and records
	// against; nil for a Follower, whose writes another engine state records.
	rel  *compile.Relations
	enum *Enumerator
	sh   *dynamicq.Shared
}

// EnumerateAnswers preprocesses the query ϕ over the structure a.  The
// answer tuples are over the variables vars (each answer assigns an element
// to each variable, in order).  Relations listed in opts.DynamicRelations
// may later be updated through SetTuple, provided the updates preserve the
// Gaifman graph.
func EnumerateAnswers(a *structure.Structure, phi logic.Formula, vars []string, opts compile.Options) (*Answers, error) {
	ans, err := closeAnswers(a, phi, vars, opts)
	if err != nil {
		return nil, err
	}
	ans.build()
	return ans, nil
}

// closeAnswers compiles the closure of [ϕ] over vars and shadows its dynamic
// relations; the caller builds the enumerator on it.
func closeAnswers(a *structure.Structure, phi logic.Formula, vars []string, opts compile.Options) (*Answers, error) {
	sh, err := dynamicq.Close(a, expr.Guard(phi), vars, opts)
	if err != nil {
		return nil, fmt.Errorf("enumerate: %w", err)
	}
	return &Answers{rel: compile.NewRelations(sh.Result()), sh: sh}, nil
}

// build tabulates the closure's generators and builds the enumerator on
// them.
func (ans *Answers) build() {
	p := ans.sh.Result().Program
	gens := generators(p, func(in circuit.Input) Generator {
		if i, a, ok := ans.sh.Param(in); ok {
			return Generator{Var: i, Elem: a}
		}
		return NoGenerator
	})
	ans.enum = newProgram(new(mvcc.Clock), p, gens, ans.present)
}

// present reports whether an input is present as compiled: every answer
// generator of the closure's parameter weights, and the dynamic relation
// memberships that hold.
func (ans *Answers) present(in circuit.Input) bool {
	if in.Role != structure.Ordinary {
		return ans.sh.Result().Structure.Holds(in.Symbol, in.Role, in.Tuple)
	}
	_, _, ok := ans.sh.Param(in)
	return ok
}

// Clone returns an independent enumerator over the same compilation and the
// same current dynamic state, on a clock and with a shadow of its own: how
// several local searches, or speculative update sequences, run concurrently
// from one paid preprocessing.  ans must not be a Follower.  The frozen
// circuit program and its CSR arrays are shared; the per-gate enumeration
// state is rebuilt from the original's current input presences with one linear
// preprocessing pass, after which updates to the clone and to the original
// are fully isolated from each other.  The generator table is shared too.
func (ans *Answers) Clone() *Answers { return ans.copyOn(new(mvcc.Clock), true) }

// Follower is Clone committing under c, the clock of another engine state
// over the same closure, and without a shadow: that state validates and
// records every write, and Follow stages its leaves into the copy.
func (ans *Answers) Follower(c *mvcc.Clock) *Answers { return ans.copyOn(c, false) }

func (ans *Answers) copyOn(c *mvcc.Clock, shadow bool) *Answers {
	e := ans.enum
	e.clock.RLock()
	defer e.clock.RUnlock()
	current := func(in circuit.Input) bool { return !e.empty[in.Gate] }
	out := &Answers{sh: ans.sh, enum: newProgram(c, e.p, e.gens, current)}
	if shadow {
		out.rel = ans.rel.Clone()
	}
	return out
}

// Shared returns the closure the enumerator runs on, so that point queries
// and dynamic sessions over the same formula share its one compilation.
func (ans *Answers) Shared() *dynamicq.Shared { return ans.sh }

// Variables returns the answer variables in output order.
func (ans *Answers) Variables() []string { return ans.sh.FreeVars() }

// Result exposes the underlying compilation result.
func (ans *Answers) Result() *compile.Result { return ans.sh.Result() }

// Empty reports whether the query currently has no answers.
func (ans *Answers) Empty() bool { return ans.enum.Empty() }

// Cursor returns a fresh cursor over the current answer set.  Cursors are
// invalidated by updates; create a new one after SetTuple.
func (ans *Answers) Cursor() *TupleCursor { return ans.enum.Cursor(ans.sh.Arity()) }

// collect drains a cursor into a slice of answers (limit ≤ 0 means no limit).
func collect(cur *TupleCursor, limit int) []structure.Tuple {
	var out []structure.Tuple
	for {
		t, ok := cur.Next()
		if !ok {
			return out
		}
		out = append(out, t)
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}

// Collect drains a fresh cursor into a slice of answers (limit ≤ 0 means no
// limit); intended for tests and examples.
func (ans *Answers) Collect(limit int) []structure.Tuple { return collect(ans.Cursor(), limit) }

// Count returns the current number of answers by evaluating the circuit in
// ℕ with every present input sent to 1 and every absent one to 0 (without
// enumerating them).
func (ans *Answers) Count() int64 {
	return countAnswers(ans.sh.Result().Program, ans.enum.GateEmpty)
}

// countAnswers evaluates p in ℕ with every input sent to [it is non-empty],
// under the given emptiness view of the input gates.
func countAnswers(p *circuit.Program, empty func(gate int) bool) int64 {
	return circuit.EvaluateProgram[int64](p, semiring.Nat, func(in circuit.Input) (int64, bool) {
		if empty(in.Gate) {
			return 0, false
		}
		return 1, true
	})
}

// SetTuple inserts or removes a tuple of a dynamic relation, maintaining the
// enumeration data structure in constant time: ApplyBatch of the one change.
// Insertions must preserve the Gaifman graph of the preprocessed structure.
func (ans *Answers) SetTuple(rel string, tuple structure.Tuple, present bool) error {
	return ans.ApplyBatch([]TupleChange{{Rel: rel, Tuple: tuple, Present: present}})
}

// TupleChange is one dynamic-relation update of an ApplyBatch batch:
// membership of Tuple in Rel becomes Present.
type TupleChange struct {
	Rel     string
	Tuple   structure.Tuple
	Present bool
}

// ApplyBatch applies several dynamic-relation updates atomically: every
// change is validated up front (the batch is all-or-nothing) and the
// enumeration data structure is refreshed with a single propagation wave, so
// gates shared by several changes are revisited once per batch.  Repeated
// changes to the same tuple coalesce with the last one winning.  The batch
// commits one epoch — none if it changes no membership — so a snapshot can
// never observe a tuple half-toggled; cursors drawn before it are
// invalidated.  A Follower is written through Follow instead.
func (ans *Answers) ApplyBatch(changes []TupleChange) error {
	for i, ch := range changes {
		if err := ans.rel.ValidateTuple(ch.Rel, ch.Tuple, ch.Present); err != nil {
			if len(changes) > 1 {
				err = fmt.Errorf("batch change %d: %w", i, err)
			}
			return fmt.Errorf("enumerate: %w", err)
		}
	}
	c := ans.enum.clock
	c.Lock()
	defer c.Unlock()
	for _, ch := range changes {
		pair, was := ans.rel.Record(ch.Rel, ch.Tuple, ch.Present)
		if was != ch.Present {
			c.Touch() // a commit by the database, wired to a gate or not
		}
		ans.assign(pair[:])
	}
	ans.enum.runWave()
	c.Commit()
	return nil
}

// Follow stages the membership leaves of a batch that another engine state
// over the same closure sh — the dynamicq.Query of a session, on whose clock
// this Follower commits — has validated once and recorded in its shadow, the
// session's only one (dynamicq.Query.Members).  Nothing is validated or
// recorded again; the caller holds the clock exclusively and commits once for
// both states.  It panics if sh is not the closure these answers were built
// on: the other state's leaves address another program's inputs then.
func (ans *Answers) Follow(sh *dynamicq.Shared, leaves []circuit.Leaf[bool]) {
	if sh != ans.sh {
		panic("enumerate: Follow: the batch was validated against a different closure")
	}
	ans.assign(leaves)
	ans.enum.runWave()
}

// assign writes membership leaves straight into the enumerator's input slots
// under the caller's exclusive hold of the clock; the caller runs one wave
// for the batch.
func (ans *Answers) assign(leaves []circuit.Leaf[bool]) {
	for _, l := range leaves {
		ans.enum.assign(l.Gate, l.Value)
	}
}
