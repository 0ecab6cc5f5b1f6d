package agg

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/live"
	"repro/internal/mvcc"
	"repro/internal/obs"
)

// Session is a dynamic-update handle on a prepared query (Theorem 8): the
// query value can be read at any point of its free variables, and both
// weights and the tuples of relations declared with WithDynamic can be
// updated, with logarithmic cost per update.
//
// Writes serialise and fail fast: a Set or ApplyBatch attempted while
// another update holds the session returns ErrSessionBusy instead of
// queueing.  Reads never fail that way — Eval reads the last commit under
// the session clock's shared lock, writer in flight or not, and Snapshot
// hands out a Reader that pins one commit for reads that must agree with each
// other while the writer moves on.  After Close every operation returns
// ErrSessionClosed, but Readers drawn before the Close stay usable until they
// are closed themselves.
type Session struct {
	p    *Prepared
	once sync.Once

	// writerMu serialises mutations; TryLock keeps the fail-fast contract for
	// writer–writer conflicts.
	writerMu sync.Mutex
	// stateMu guards the lifecycle flag so concurrent readers can check it
	// without contending with writers.
	stateMu sync.RWMutex

	closed bool
	sess   erasedSession
	// clock is sess.Clock(): the session's one commit counter, pin set and
	// reader/writer lock.
	clock *mvcc.Clock
	// one is Set's one-change batch, kept here (under writerMu) because a
	// per-call slice would escape to the heap through the engine interface.
	one [1]Change

	// hub fans committed epochs out to Subscribe streams.  It stays nil
	// until the first subscriber, so the write path of an unobserved
	// session pays one atomic load and nothing else.
	hub atomic.Pointer[live.Hub]
}

// Change is one update of a Session: a weight update (Weight non-empty:
// Weight(Tuple) takes Value) or a dynamic-relation update (Rel non-empty:
// membership of Tuple becomes Present).  Exactly one of Weight and Rel must
// be set.
type Change struct {
	Weight  string
	Rel     string
	Tuple   []int
	Value   int64
	Present bool
}

// SetWeight builds a weight update.
func SetWeight(weight string, tuple []int, value int64) Change {
	return Change{Weight: weight, Tuple: tuple, Value: value}
}

// SetTuple builds a dynamic-relation membership update.
func SetTuple(rel string, tuple []int, present bool) Change {
	return Change{Rel: rel, Tuple: tuple, Present: present}
}

// acquireWriter takes the write half of the session for one mutation,
// failing fast when another writer holds it or the session is closed.  The
// caller must unlock writerMu on success.
func (s *Session) acquireWriter() error {
	if !s.writerMu.TryLock() {
		return errorf(ErrSessionBusy, s.p.text, "session is processing another update")
	}
	if err := s.open(); err != nil {
		s.writerMu.Unlock()
		return err
	}
	return nil
}

// open returns ErrSessionClosed once the session is closed.
func (s *Session) open() error {
	s.stateMu.RLock()
	closed := s.closed
	s.stateMu.RUnlock()
	if closed {
		return errorf(ErrSessionClosed, s.p.text, "session was closed")
	}
	return nil
}

// FreeVars returns the free variables of the underlying query, in the order
// Eval expects its arguments.
func (s *Session) FreeVars() []string { return s.p.FreeVars() }

// Eval reads the query value under the updates applied so far: no arguments
// for a closed query, one element per free variable for a point query.
//
// Eval never returns ErrSessionBusy: it reads the last commit under the
// session clock's shared lock, which a write holds exclusively only while it
// stages and commits one batch, and never takes the writer lock — so reads
// keep flowing under a sustained write stream, run concurrently with each
// other, and never make a concurrent writer fail either.  Two Evals may see
// different commits; a Reader from Snapshot answers every read at one.
func (s *Session) Eval(ctx context.Context, args ...int) (Value, error) {
	if err := ensureCtx(ctx).Err(); err != nil {
		return "", err
	}
	if err := s.open(); err != nil {
		return "", err
	}
	evalSpan := obs.FromContext(ctx).StartSpan(obs.StageEval)
	out, err := s.sess.Eval(args)
	if err != nil {
		return "", newError(ErrArgument, s.p.text, err)
	}
	evalSpan.End()
	return Value(out), nil
}

// Epoch returns the session's committed epoch: the number of writes that
// changed its state so far.  What a commit is is decided by the database, not
// by the compiled circuit: a Set or ApplyBatch commits exactly one epoch —
// whatever the number of changes and of engine states they reach — iff it
// changes the stored value (a missing one is zero) of a weight symbol the
// query mentions, or the membership of a tuple of a dynamic relation (of any
// relation the query reads, for a nested query), whether or not the compiler
// wired that input to a gate.  A write that re-asserts what the session
// already holds, or sets a weight symbol the query does not mention, commits
// none and pushes nothing to subscribers.  Reader.Epoch, Update.Epoch and this
// counter all read the same clock.
func (s *Session) Epoch() uint64 {
	if s.open() != nil {
		return 0
	}
	return s.clock.Epoch()
}

// RetainedUndoBytes reports the undo-history memory currently pinned by
// outstanding Readers and snapshot reads; zero whenever none are open.
func (s *Session) RetainedUndoBytes() int64 {
	if s.open() != nil {
		return 0
	}
	return s.clock.Retained()
}

// Set applies one change: a weight update or a dynamic-relation membership
// update.  Tuple insertions must preserve the Gaifman graph of the compiled
// structure (Theorem 24's update model); violations fail with ErrUpdate and
// leave the session untouched.
func (s *Session) Set(change Change) error {
	if err := s.acquireWriter(); err != nil {
		return err
	}
	defer s.writerMu.Unlock()
	s.one[0] = change
	defer clear(s.one[:])
	return s.write(s.one[:])
}

// ApplyBatch applies a mixed batch of changes atomically: every change is
// validated before anything is applied (all-or-nothing), and the evaluator
// then runs a single propagation wave for the whole batch, so gates shared
// by several changes are recomputed once and repeated changes to one key
// coalesce with the last value winning.
func (s *Session) ApplyBatch(changes []Change) error {
	if err := s.acquireWriter(); err != nil {
		return err
	}
	defer s.writerMu.Unlock()
	return s.write(changes)
}

// write checks the shape of the batch, hands it to the engine and, if the
// write committed an epoch, hands that epoch to the subscribers.  The caller
// holds the write half.
func (s *Session) write(changes []Change) error {
	for i, ch := range changes {
		if (ch.Weight == "") == (ch.Rel == "") {
			return errorf(ErrUpdate, s.p.text, "change %d must name exactly one of a weight and a relation, got weight %q and relation %q", i, ch.Weight, ch.Rel)
		}
	}
	committed, err := s.sess.Write(changes)
	if err != nil {
		return newError(ErrUpdate, s.p.text, err)
	}
	if committed != 0 {
		if h := s.hub.Load(); h != nil {
			h.Notify(committed)
		}
	}
	return nil
}

// Close marks the session closed; subsequent operations fail with
// ErrSessionClosed.  Close blocks until an in-flight update finishes and is
// idempotent.  Readers obtained from Snapshot before the Close keep working —
// close them separately to release their pinned history.  Subscribe streams
// receive any pending update and then end with ErrSessionClosed.
func (s *Session) Close() error {
	s.once.Do(func() {
		s.writerMu.Lock()
		s.stateMu.Lock()
		s.closed = true
		s.stateMu.Unlock()
		s.writerMu.Unlock()
		if h := s.hub.Load(); h != nil {
			h.Close()
		}
	})
	return nil
}
