package agg

import (
	"context"
	"sync"

	"repro/internal/enumerate"
	"repro/internal/structure"
)

// Searcher drives local search in the style of Example 25 of the paper: a
// formula query prepared with WithDynamic describes a possible improvement of
// the current solution, FindImprovement returns one such improvement in
// constant time, and Apply commits a round of Gaifman-preserving tuple
// updates with a single propagation wave over the frozen program.  A locally
// optimal solution is therefore reached in time linear in the number of
// rounds, after the one-off Prepare.
//
// Each Searcher owns an independent copy of the dynamic enumeration state, so
// any number of searches (with different update sequences) run concurrently
// from one Prepared, which itself never changes.  A Searcher's own methods
// are serialised by an internal lock.
type Searcher struct {
	p *Prepared

	mu     sync.Mutex
	ans    *enumerate.Answers
	rounds int
}

// Search opens a local-search driver over an enumerable query whose dynamic
// relations were declared with WithDynamic.  The Prepared's own answer set is
// unaffected by the search; opening costs one linear pass over the shared
// frozen program to copy the dynamic state.
func (p *Prepared) Search() (*Searcher, error) {
	if p.enum == nil {
		return nil, errorf(ErrNotEnumerable, p.text, "Search needs a first-order improvement formula with free variables; expression queries have no answer set")
	}
	if len(p.enum.ans.Result().DynamicRelations) == 0 {
		return nil, errorf(ErrArgument, p.text, "Search needs updatable relations; prepare the improvement query with WithDynamic(...)")
	}
	return &Searcher{p: p, ans: p.enum.ans.Clone()}, nil
}

// FindImprovement returns one answer of the improvement query for the
// current solution, or ok=false when the solution is locally optimal.
func (s *Searcher) FindImprovement() (Answer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.ans.Cursor().Next()
	if !ok {
		return nil, false
	}
	s.rounds++
	return Answer(t), true
}

// Apply commits one round of relation updates as a single all-or-nothing
// propagation wave.  Only tuple changes are accepted (local search moves
// tuples, not weights); insertions must preserve the Gaifman graph, which
// always holds for unary predicates.
func (s *Searcher) Apply(changes ...Change) error {
	batch := make([]enumerate.TupleChange, len(changes))
	for i, ch := range changes {
		if ch.Weight != "" || ch.Rel == "" {
			return errorf(ErrUpdate, s.p.text, "local search updates relation tuples; change %d is not a tuple change", i)
		}
		batch[i] = enumerate.TupleChange{Rel: ch.Rel, Tuple: structure.Tuple(ch.Tuple), Present: ch.Present}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ans.ApplyBatch(batch); err != nil {
		return newError(ErrUpdate, s.p.text, err)
	}
	return nil
}

// Rounds reports how many improvements FindImprovement has returned.
func (s *Searcher) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// Remaining counts the improvements available for the current solution, by
// evaluating the program in ℕ without enumerating.
func (s *Searcher) Remaining() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ans.Count()
}

// Run loops the search to a local optimum: each round finds one improvement,
// asks step how to change the solution, and commits the returned changes as
// one wave.  It returns the number of rounds performed; the context is
// checked between rounds, so a cancelled search stops in bounded time with
// the context's error.
func (s *Searcher) Run(ctx context.Context, step func(Answer) []Change) (int, error) {
	ctx = ensureCtx(ctx)
	for rounds := 0; ; rounds++ {
		if err := ctx.Err(); err != nil {
			return rounds, err
		}
		ans, ok := s.FindImprovement()
		if !ok {
			return rounds, nil
		}
		if err := s.Apply(step(ans)...); err != nil {
			return rounds, err
		}
	}
}
