package dynamicq

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/structure"
)

// Snapshot is a read handle on a Query pinned at one committed epoch: point
// queries and the closed value answer as of that commit no matter how many
// weight or tuple updates the writer applies afterwards.  Point queries run
// on a private overlay of the pinned circuit state, so a snapshot never
// blocks the writer and the writer never disturbs a snapshot.
//
// A Snapshot is intended for a single reader goroutine; take one per
// goroutine.  Release it when done — an unreleased snapshot pins undo
// history whose memory grows with every write.
type Snapshot[T any] struct {
	q     *Query[T]
	snap  *circuit.DynSnapshot[T]
	point []circuit.InputChange[T]
}

// Snapshot pins the current committed epoch of the query's dynamic evaluator
// and returns a read handle for it.  Taking a snapshot is O(1) and safe to
// call concurrently with the writer and with other snapshots.
func (q *Query[T]) Snapshot() *Snapshot[T] {
	return &Snapshot[T]{q: q, snap: q.dyn.Snapshot()}
}

// Epoch returns the committed epoch of the query's dynamic evaluator, i.e.
// the number of committed mutations so far.
func (q *Query[T]) Epoch() uint64 { return q.dyn.Epoch() }

// RetainedUndoBytes reports the memory currently held by undo history for
// outstanding snapshots.  It is zero whenever no snapshot is pinned.
func (q *Query[T]) RetainedUndoBytes() int64 { return q.dyn.RetainedUndoBytes() }

// Epoch returns the committed epoch this snapshot is pinned at.
func (s *Snapshot[T]) Epoch() uint64 { return s.snap.Epoch() }

// Release unpins the snapshot, letting the writer reclaim undo history it no
// longer needs.  Release is idempotent.
func (s *Snapshot[T]) Release() { s.snap.Release() }

// Value returns the value of the query at the given tuple of the free
// variables, as of the pinned epoch.  The free-variable toggles of the
// Theorem 8 reduction run on a private overlay, so concurrent writer commits
// and other snapshots are never observed and never disturbed.
func (s *Snapshot[T]) Value(args ...structure.Element) (T, error) {
	var err error
	s.point, err = point(s.q.sh, s.q.s.One(), args, s.point[:0])
	if err != nil {
		var zero T
		return zero, err
	}
	if len(args) == 0 {
		return s.snap.Value(), nil
	}
	return s.snap.EvalWith(s.point), nil
}

// ValueClosed returns the value of a closed query (no free variables) at the
// pinned epoch.
func (s *Snapshot[T]) ValueClosed() (T, error) {
	var zero T
	if vars := s.q.sh.vars; len(vars) != 0 {
		return zero, fmt.Errorf("dynamicq: query has free variables %v; use Value", vars)
	}
	return s.snap.Value(), nil
}
