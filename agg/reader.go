package agg

import (
	"context"
	"iter"

	"repro/internal/enumerate"
	"repro/internal/obs"
)

// Reader is a consistent read handle on a Session, pinned at one committed
// epoch: Eval, Enumerate and AnswerCount all answer as of that commit no
// matter how many updates the session's writer applies afterwards, and none
// of them can return ErrSessionBusy.
//
// A Reader is meant for one goroutine (its snapshot digests are
// unsynchronised); take one Reader per reading goroutine.  Any number of
// Readers may be used concurrently with each other and with the session's
// writer.  Close each Reader when done — an open Reader pins undo history
// whose memory grows with every subsequent update (RetainedUndoBytes shows
// how much).
type Reader struct {
	p      *Prepared
	snap   erasedSnapshot
	ans    *enumerate.AnswersSnapshot // nil unless enumerable with dynamic relations
	closed bool
}

// Snapshot pins the session's current committed epoch and returns a Reader
// for it.  Taking a snapshot is cheap (no copy of the evaluator state) and
// does not block the writer beyond a brief pin.  Nested sessions cannot
// snapshot and fail with ErrArgument.
//
// For enumerable queries the value snapshot and the answer-set snapshot are
// pinned in two steps, so a batch committed exactly between them may be
// visible to Enumerate but not to Eval (or vice versa); take the snapshot
// while no update is in flight to rule even that out.
func (s *Session) Snapshot() (*Reader, error) {
	s.stateMu.RLock()
	closed, sess, ans := s.closed, s.sess, s.ans
	s.stateMu.RUnlock()
	if closed {
		return nil, errorf(ErrSessionClosed, s.p.text, "session was closed")
	}
	snap, err := sess.Snapshot()
	if err != nil {
		return nil, newError(ErrArgument, s.p.text, err)
	}
	r := &Reader{p: s.p, snap: snap}
	if ans != nil {
		r.ans = ans.Snapshot()
	}
	return r, nil
}

// FreeVars returns the free variables of the underlying query, in the order
// Eval expects its arguments.
func (r *Reader) FreeVars() []string { return r.p.FreeVars() }

// Epoch returns the committed session epoch this Reader is pinned at.
func (r *Reader) Epoch() uint64 { return r.snap.Epoch() }

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
	out, err := r.snap.Point(args)
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
		switch {
		case r.closed:
			return nil, errorf(ErrSessionClosed, r.p.text, "reader was closed")
		case r.ans != nil:
			return r.ans.Cursor(), nil
		}
		// Without dynamic relations the answers never change: the prepared
		// query's static enumeration structure is every epoch's answer set.
		return r.p.enum.ans.Cursor(), nil
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
	if r.ans != nil {
		return r.ans.Count(), nil
	}
	return r.p.AnswerCount(ctx)
}

// Close releases the Reader's pinned snapshots, letting the session reclaim
// undo history.  Close is idempotent; operations after it fail with
// ErrSessionClosed.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.snap.Release()
	if r.ans != nil {
		r.ans.Release()
	}
	return nil
}
