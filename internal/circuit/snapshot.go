package circuit

import "repro/internal/mvcc"

// DynSnapshot is a read handle on a Dynamic at one committed epoch pinned on
// its clock: every resolution — Value, GateValue, and point queries through
// EvalWith — answers as of that commit, no matter how many mutations the
// writer has applied since.  Taking a snapshot is O(1); resolving a gate
// costs a digest lookup plus, lazily, one walk over the undo entries
// committed since the pin (mvcc.View).
//
// It is the handle of reads that must stay at one commit: a session's
// Readers and its subscriptions' evaluations.  A read of the last commit
// needs no pin and no handle: it evaluates Live under the clock's shared
// lock, where no write can pass it.
//
// A snapshot holds no copy of the value array: it reads the writer's current
// state under the shared lock and rolls dirtied gates back through the undo
// chain, the copy-on-write scheme of the MVCC session layer.  The pin must be
// released when done — a pinned epoch retains undo history whose memory grows
// with every write.
//
// A DynSnapshot is intended for a single reader goroutine (its digest is
// unsynchronised); take one snapshot per goroutine.  Snapshots
// of one Dynamic may be taken, used and released concurrently with each
// other and with the writer.
type DynSnapshot[T any] struct {
	d     *Dynamic[T]
	view  mvcc.View[valUndo[T]]
	owned bool // Snapshot took the pin itself and Release returns it
}

// At returns a read handle resolving every gate as of epoch, which the caller
// has pinned on Clock() and unpins when done with the handle.
func (d *Dynamic[T]) At(epoch uint64) *DynSnapshot[T] {
	return &DynSnapshot[T]{d: d, view: d.log.At(epoch)}
}

// Snapshot is At on a pin of its own, which Release returns: the stand-alone
// form, for an evaluator that is the only state on its clock.
func (d *Dynamic[T]) Snapshot() *DynSnapshot[T] {
	s := d.At(d.clock.Pin())
	s.owned = true
	return s
}

// Release returns the pin Snapshot took, letting the writer truncate undo
// history it no longer needs.  It is idempotent, and a no-op on a handle from
// At; use the snapshot only before the release.
func (s *DynSnapshot[T]) Release() {
	if s.owned {
		s.owned = false
		s.d.clock.Unpin(s.view.Epoch())
	}
}

// Value returns the output gate's value at the pinned epoch.
func (s *DynSnapshot[T]) Value() T { return s.GateValue(s.d.p.output) }

// GateValue returns an arbitrary gate's value at the pinned epoch.
func (s *DynSnapshot[T]) GateValue(id int) T {
	s.d.clock.RLock()
	defer s.d.clock.RUnlock()
	s.view.Extend()
	if u, ok := s.view.Lookup(int32(id)); ok {
		return u.old
	}
	return s.d.live.vals[id]
}

// EvalWith evaluates the output at the pinned epoch under temporary input
// overrides, without touching the shared state: the one point evaluator
// (Values.EvalWith), reading every gate the overrides do not reach through
// the snapshot.  This is how point queries run on a snapshot — the writer may
// commit concurrent batches the whole time.
func (s *DynSnapshot[T]) EvalWith(leaves []Leaf[T]) T {
	s.d.clock.RLock()
	defer s.d.clock.RUnlock()
	s.view.Extend()
	return s.d.live.evalWith(&s.view, leaves)
}
