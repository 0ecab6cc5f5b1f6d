package agg

import (
	"context"
	"iter"

	"repro/internal/enumerate"
	"repro/internal/obs"
)

// Answer is one answer tuple of a formula query: one database element per
// answer variable, in AnswerVars order.
type Answer []int

// AnswerVars returns the answer variables of an enumerable query, in the
// order Answer tuples are laid out (nil for non-enumerable queries).
func (p *Prepared) AnswerVars() []string {
	if p.enum == nil {
		return nil
	}
	return p.enum.ans.Variables()
}

// Enumerate streams the answer set of a formula query with constant delay
// between answers (Theorem 24), as a range-over iterator:
//
//	for ans, err := range p.Enumerate(ctx) {
//	    if err != nil { ... }        // at most one, always the last pair
//	    use(ans)
//	}
//
// The preprocessing was paid at Prepare; each Enumerate draws an independent
// cursor over the shared enumeration structure, so any number of streams may
// run concurrently.  When ctx is cancelled the stream stops between answers
// and yields the context's error as its final pair.  Expression-mode queries
// yield ErrNotEnumerable.
func (p *Prepared) Enumerate(ctx context.Context) iter.Seq2[Answer, error] {
	return p.stream(ctx, func() (*enumerate.TupleCursor, error) { return p.enum.Cursor(), nil })
}

// stream is the iterator behind Prepared.Enumerate and Reader.Enumerate: it
// draws one cursor (open runs only once the query is known to be enumerable)
// and yields its answers until it is drained, the consumer stops, or ctx is
// cancelled.
func (p *Prepared) stream(ctx context.Context, open func() (*enumerate.TupleCursor, error)) iter.Seq2[Answer, error] {
	ctx = ensureCtx(ctx)
	return func(yield func(Answer, error) bool) {
		if p.enum == nil {
			yield(nil, errorf(ErrNotEnumerable, p.text, "Enumerate needs a first-order formula or a boolean nested query with free variables"))
			return
		}
		cur, err := open()
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			yield(nil, err)
			return
		}
		// One eval span covers the whole stream: the time from the first to
		// the last answer drawn, however the consumer paces the iteration.
		evalSpan := obs.FromContext(ctx).StartSpan(obs.StageEval)
		defer evalSpan.End()
		done := ctx.Done()
		for {
			t, ok := cur.Next()
			if !ok {
				return
			}
			if !yield(Answer(t), nil) {
				return
			}
			select {
			case <-done:
				yield(nil, ctx.Err())
				return
			default:
			}
		}
	}
}

// AnswerCount returns the number of answers of a formula query, computed
// from the circuit without enumerating them.  The enumeration state never
// receives updates, so the total is a constant: the linear-time pass runs
// at most once per Prepare and is memoised across In rebinds.
func (p *Prepared) AnswerCount(ctx context.Context) (int64, error) {
	if p.enum == nil {
		return 0, errorf(ErrNotEnumerable, p.text, "AnswerCount needs a first-order formula or a boolean nested query with free variables")
	}
	if err := ensureCtx(ctx).Err(); err != nil {
		return 0, err
	}
	evalSpan := obs.FromContext(ctx).StartSpan(obs.StageEval)
	defer evalSpan.End()
	return p.enum.Count(), nil
}
