package agg

import (
	"context"
	"iter"

	"repro/internal/enumerate"
	"repro/internal/mvcc"
	"repro/internal/obs"
)

// Reader is a consistent read handle on a Session: one pin of one committed
// epoch on the session's clock, which Eval, Enumerate and AnswerCount all
// resolve.  So they agree with each other — a tuple Enumerate yields evaluates
// to non-zero, AnswerCount counts the tuples enumerated — no matter how many
// updates the session's writer applies afterwards, and none of them can
// return ErrSessionBusy.
//
// A Reader is meant for one goroutine (its snapshot digests are
// unsynchronised); take one Reader per reading goroutine.  Any number of
// Readers may be used concurrently with each other and with the session's
// writer.  Close each Reader when done — an open Reader pins undo history
// whose memory grows with every subsequent update (RetainedUndoBytes shows
// how much).
type Reader struct {
	p      *Prepared
	clock  *mvcc.Clock
	epoch  uint64 // the pin: taken by Snapshot, returned by Close
	point  func(args []int) (string, error)
	ans    answers // nil unless enumerable
	closed bool
}

// Snapshot pins the session's current committed epoch and returns a Reader
// for it.  Taking a snapshot is cheap (no copy of the evaluator state) and
// does not block the writer beyond a brief pin; only an enumerable nested
// query's Snapshot materialises its epoch, as the epoch's first read would.
func (s *Session) Snapshot() (*Reader, error) {
	if err := s.open(); err != nil {
		return nil, err
	}
	r := &Reader{p: s.p, clock: s.clock, epoch: s.clock.Pin()}
	r.point = s.sess.At(r.epoch)
	var err error
	if r.ans, err = s.sess.Answers(r.epoch); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// FreeVars returns the free variables of the underlying query, in the order
// Eval expects its arguments.
func (r *Reader) FreeVars() []string { return r.p.FreeVars() }

// Epoch returns the committed session epoch this Reader is pinned at.
func (r *Reader) Epoch() uint64 { return r.epoch }

// Eval reads the query value at the pinned epoch: no arguments for a closed
// query, one element per free variable for a point query.
func (r *Reader) Eval(ctx context.Context, args ...int) (Value, error) {
	if err := ensureCtx(ctx).Err(); err != nil {
		return "", err
	}
	if r.closed {
		return "", errorf(ErrSessionClosed, r.p.text, "reader was closed")
	}
	evalSpan := obs.FromContext(ctx).StartSpan(obs.StageEval)
	out, err := r.point(args)
	if err != nil {
		return "", newError(ErrArgument, r.p.text, err)
	}
	evalSpan.End()
	return Value(out), nil
}

// Enumerate streams the answer set as of the pinned epoch with constant
// delay between answers, in the same iterator shape as Prepared.Enumerate.
// Unlike live session cursors, the stream is not invalidated by updates the
// writer commits while it runs.  Non-enumerable queries yield
// ErrNotEnumerable.
func (r *Reader) Enumerate(ctx context.Context) iter.Seq2[Answer, error] {
	return r.p.stream(ctx, func() (*enumerate.TupleCursor, error) {
		if r.closed {
			return nil, errorf(ErrSessionClosed, r.p.text, "reader was closed")
		}
		return r.ans.Cursor(), nil
	})
}

// AnswerCount returns the number of answers as of the pinned epoch, computed
// from the circuit without enumerating them.  Non-enumerable queries fail
// with ErrNotEnumerable.
func (r *Reader) AnswerCount(ctx context.Context) (int64, error) {
	if r.p.enum == nil {
		return 0, errorf(ErrNotEnumerable, r.p.text, "AnswerCount needs a first-order formula or a boolean nested query with free variables")
	}
	if r.closed {
		return 0, errorf(ErrSessionClosed, r.p.text, "reader was closed")
	}
	if err := ensureCtx(ctx).Err(); err != nil {
		return 0, err
	}
	evalSpan := obs.FromContext(ctx).StartSpan(obs.StageEval)
	defer evalSpan.End()
	return r.ans.Count(), nil
}

// Close releases the Reader's pin, letting the session reclaim undo history.
// Close is idempotent; operations after it fail with ErrSessionClosed.
func (r *Reader) Close() error {
	if !r.closed {
		r.closed = true
		r.clock.Unpin(r.epoch)
	}
	return nil
}
