package enumerate

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// answerWeightPrefix names the fresh unary weight symbols carrying the
// answer-tuple generators e^i_a (Section 6 of the paper).
const answerWeightPrefix = ".en:"

// Answers is the dynamic constant-delay enumerator for the answer set of a
// first-order query ϕ(x̄) on a sparse database (Theorem 24): linear-time
// preprocessing, constant delay between answers, and constant-time
// Gaifman-preserving updates to the dynamic relations.
type Answers struct {
	enum *Enumerator
	res  *compile.Result
	vars []string
	// relState tracks membership of dynamic relation tuples after updates.
	relState map[string]map[string]bool
}

// EnumerateAnswers preprocesses the query ϕ over the structure a.  The
// answer tuples are over the variables vars (each answer assigns an element
// to each variable, in order).  Relations listed in opts.DynamicRelations
// may later be updated through SetTuple, provided the updates preserve the
// Gaifman graph.
func EnumerateAnswers(a *structure.Structure, phi logic.Formula, vars []string, opts compile.Options) (*Answers, error) {
	return enumerateAnswers(nil, a, phi, vars, opts, 1)
}

// EnumerateAnswersParallel preprocesses like EnumerateAnswers but computes
// the initial per-gate emptiness with the level-parallel circuit engine
// (NewProgramParallel) on workers goroutines, over the level schedule baked
// into the compiled Program; workers ≤ 0 selects GOMAXPROCS and workers == 1
// falls back to the sequential pass.
func EnumerateAnswersParallel(a *structure.Structure, phi logic.Formula, vars []string, opts compile.Options, workers int) (*Answers, error) {
	return enumerateAnswers(nil, a, phi, vars, opts, workers)
}

// EnumerateAnswersCtx preprocesses like EnumerateAnswersParallel but honours
// cancellation: the context is checked between preprocessing stages and
// inside the level-parallel emptiness wave, so a cancelled preprocessing run
// stops in bounded time and returns the context's error.
func EnumerateAnswersCtx(ctx context.Context, a *structure.Structure, phi logic.Formula, vars []string, opts compile.Options, workers int) (*Answers, error) {
	return enumerateAnswers(ctx, a, phi, vars, opts, workers)
}

func enumerateAnswers(ctx context.Context, a *structure.Structure, phi logic.Formula, vars []string, opts compile.Options, workers int) (*Answers, error) {
	for _, v := range logic.FreeVars(phi) {
		found := false
		for _, u := range vars {
			if u == v {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("enumerate: formula has free variable %q not listed in the answer variables %v", v, vars)
		}
	}
	// Extend the signature with one unary weight symbol per answer variable.
	extra := make([]structure.WeightSymbol, len(vars))
	for i := range vars {
		extra[i] = structure.WeightSymbol{Name: answerWeight(i), Arity: 1}
	}
	sig, err := a.Sig.WithWeights(extra...)
	if err != nil {
		return nil, fmt.Errorf("enumerate: extending signature: %w", err)
	}
	base := structure.NewStructure(sig, a.N)
	for _, r := range a.Sig.Relations {
		for _, t := range a.Tuples(r.Name) {
			base.MustAddTuple(r.Name, t...)
		}
	}
	// f = Σ_x̄ [ϕ(x̄)] · w_1(x_1) ··· w_k(x_k)  (equation (4) of the paper).
	factors := []expr.Expr{expr.Guard(phi)}
	for i, v := range vars {
		factors = append(factors, expr.W(answerWeight(i), v))
	}
	f := expr.Expr(expr.Times(factors...))
	if len(vars) > 0 {
		f = expr.Agg(vars, expr.Times(factors...))
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	res, err := compile.Compile(base, f, opts)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	ans := &Answers{res: res, vars: vars, relState: map[string]map[string]bool{}}
	for rel := range res.DynamicRelations {
		state := map[string]bool{}
		for _, t := range res.Structure.Tuples(rel) {
			state[t.Key()] = true
		}
		ans.relState[rel] = state
	}
	if ctx != nil {
		enum, err := NewProgramParallelCtx(ctx, res.Program, ans.inputValue, workers)
		if err != nil {
			return nil, err
		}
		ans.enum = enum
	} else if workers == 1 {
		ans.enum = NewProgram(res.Program, ans.inputValue)
	} else {
		ans.enum = NewProgramParallel(res.Program, ans.inputValue, workers)
	}
	return ans, nil
}

func answerWeight(i int) string { return answerWeightPrefix + strconv.Itoa(i) }

// inputValue supplies the initial value of every circuit input: answer
// generators for the fresh unary weights, 0/1 for dynamic relation
// memberships, zero otherwise.
func (ans *Answers) inputValue(key structure.WeightKey) Value {
	if rel, tuple, positive, ok := compile.DecodeRelationKey(key); ok {
		holds := ans.res.Structure.HasTuple(rel, tuple...)
		return Bool(holds == positive)
	}
	if strings.HasPrefix(key.Weight, answerWeightPrefix) {
		idx, err := strconv.Atoi(key.Weight[len(answerWeightPrefix):])
		if err != nil {
			return Zero()
		}
		t := structure.ParseTupleKey(key.Tuple)
		if len(t) != 1 {
			return Zero()
		}
		return Gen(answerGenerator(idx, t[0]))
	}
	return Zero()
}

func answerGenerator(varIdx int, elem structure.Element) provenance.Generator {
	return provenance.Generator(fmt.Sprintf("%d|%d", varIdx, elem))
}

func decodeGenerator(g provenance.Generator) (varIdx int, elem structure.Element, err error) {
	parts := strings.SplitN(string(g), "|", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("enumerate: malformed answer generator %q", g)
	}
	varIdx, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	elem, err = strconv.Atoi(parts[1])
	return varIdx, elem, err
}

// Clone returns an independent enumerator over the same compilation and the
// same current dynamic state.  The frozen circuit program and its CSR arrays
// are shared; the per-gate enumeration state is rebuilt from the clone's own
// input view with one linear preprocessing pass, after which updates to the
// clone and to the original are fully isolated from each other.  Cloning is
// how several local searches (or speculative update sequences) run
// concurrently from one paid preprocessing.
func (ans *Answers) Clone() *Answers {
	c := &Answers{res: ans.res, vars: ans.vars, relState: make(map[string]map[string]bool, len(ans.relState))}
	for rel, state := range ans.relState {
		s := make(map[string]bool, len(state))
		for k, v := range state {
			s[k] = v
		}
		c.relState[rel] = s
	}
	c.enum = NewProgram(c.res.Program, c.inputCurrent)
	return c
}

// Variables returns the answer variables in output order.
func (ans *Answers) Variables() []string { return append([]string(nil), ans.vars...) }

// Result exposes the underlying compilation result.
func (ans *Answers) Result() *compile.Result { return ans.res }

// Empty reports whether the query currently has no answers.
func (ans *Answers) Empty() bool { return ans.enum.Empty() }

// TupleCursor enumerates answer tuples with constant delay.
type TupleCursor struct {
	ans   *Answers
	inner Cursor
}

// Cursor returns a fresh cursor over the current answer set.  Cursors are
// invalidated by updates; create a new one after SetTuple.
func (ans *Answers) Cursor() *TupleCursor {
	return &TupleCursor{ans: ans, inner: ans.enum.Cursor()}
}

// Next returns the next answer tuple, or ok=false when the enumeration is
// complete.
func (c *TupleCursor) Next() (structure.Tuple, bool) {
	m, ok := c.inner.Next()
	if !ok {
		return nil, false
	}
	tuple := make(structure.Tuple, len(c.ans.vars))
	for i := range tuple {
		tuple[i] = -1
	}
	for _, g := range m {
		idx, elem, err := decodeGenerator(g)
		if err != nil || idx < 0 || idx >= len(tuple) {
			continue
		}
		tuple[idx] = elem
	}
	return tuple, true
}

// Collect drains a fresh cursor into a slice of answers (limit ≤ 0 means no
// limit); intended for tests and examples.
func (ans *Answers) Collect(limit int) []structure.Tuple {
	var out []structure.Tuple
	cur := ans.Cursor()
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

// Count returns the current number of answers by evaluating the circuit in
// ℕ under the homomorphism sending every generator to 1 (without
// enumerating them); useful for sanity checks and benchmarks.
func (ans *Answers) Count() int64 {
	val := func(key structure.WeightKey) (int64, bool) {
		v := ans.inputCurrent(key)
		if v == nil || v.Empty() {
			return 0, false
		}
		return 1, true
	}
	return circuit.EvaluateProgram[int64](ans.res.Program, semiring.Nat, val)
}

// inputCurrent returns the current value of an input, reflecting dynamic
// updates applied so far.
func (ans *Answers) inputCurrent(key structure.WeightKey) Value {
	if rel, tuple, positive, ok := compile.DecodeRelationKey(key); ok {
		if state, tracked := ans.relState[rel]; tracked {
			return Bool(state[tuple.Key()] == positive)
		}
		return Bool(ans.res.Structure.HasTuple(rel, tuple...) == positive)
	}
	return ans.inputValue(key)
}

// validateTuple checks a dynamic-relation update: the relation must be
// declared dynamic, the tuple must match its arity and insertions must
// preserve the Gaifman graph of the preprocessed structure.
func (ans *Answers) validateTuple(rel string, tuple structure.Tuple, present bool) error {
	if !ans.res.DynamicRelations[rel] {
		return fmt.Errorf("relation %q was not declared dynamic at preprocessing time", rel)
	}
	decl, _ := ans.res.Structure.Sig.Relation(rel)
	if decl.Arity != len(tuple) {
		return fmt.Errorf("relation %q has arity %d, got tuple of length %d", rel, decl.Arity, len(tuple))
	}
	if present {
		g := ans.res.Structure.Gaifman()
		for i := 0; i < len(tuple); i++ {
			for j := i + 1; j < len(tuple); j++ {
				if tuple[i] != tuple[j] && !g.HasEdge(tuple[i], tuple[j]) {
					return fmt.Errorf("inserting %s%v would change the Gaifman graph; only Gaifman-preserving updates are supported (Theorem 24)", rel, tuple)
				}
			}
		}
	}
	return nil
}

// SetTuple inserts or removes a tuple of a dynamic relation, maintaining the
// enumeration data structure in constant time.  Insertions must preserve the
// Gaifman graph of the preprocessed structure.  Both membership inputs flip
// within a single committed epoch, so a snapshot can never observe the tuple
// half-toggled.
func (ans *Answers) SetTuple(rel string, tuple structure.Tuple, present bool) error {
	if err := ans.validateTuple(rel, tuple, present); err != nil {
		return fmt.Errorf("enumerate: %w", err)
	}
	ans.relState[rel][tuple.Key()] = present
	pos, neg := compile.RelationInputKeys(rel, tuple)
	e := ans.enum
	e.mu.Lock()
	defer e.mu.Unlock()
	s1, f1 := e.assign(pos, Bool(present))
	s2, f2 := e.assign(neg, Bool(!present))
	if f1 || f2 {
		e.runWave()
	}
	if s1 || s2 {
		e.log.Commit()
	}
	return nil
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
// changes to the same tuple coalesce with the last one winning.  As with
// SetTuple, cursors drawn before the batch are invalidated.
func (ans *Answers) ApplyBatch(changes []TupleChange) error {
	for i, ch := range changes {
		if err := ans.validateTuple(ch.Rel, ch.Tuple, ch.Present); err != nil {
			return fmt.Errorf("enumerate: batch change %d: %w", i, err)
		}
	}
	// Feed the enumerator's input slots directly and run one coalesced wave
	// at the end, instead of materialising an InputAssignment slice: local
	// search commits many tiny batches, where the slice traffic would cost
	// more than the coalescing saves.  The whole batch commits one epoch.
	e := ans.enum
	e.mu.Lock()
	defer e.mu.Unlock()
	stored, flipped := false, false
	for _, ch := range changes {
		ans.relState[ch.Rel][ch.Tuple.Key()] = ch.Present
		pos, neg := compile.RelationInputKeys(ch.Rel, ch.Tuple)
		s1, f1 := e.assign(pos, Bool(ch.Present))
		s2, f2 := e.assign(neg, Bool(!ch.Present))
		stored = stored || s1 || s2
		flipped = flipped || f1 || f2
	}
	if flipped {
		e.runWave()
	}
	if stored {
		e.log.Commit()
	}
	return nil
}

// HasTuple reports current membership in a dynamic relation.
func (ans *Answers) HasTuple(rel string, tuple structure.Tuple) bool {
	if state, ok := ans.relState[rel]; ok {
		return state[tuple.Key()]
	}
	return ans.res.Structure.HasTuple(rel, tuple...)
}
