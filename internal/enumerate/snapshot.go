package enumerate

import (
	"repro/internal/mvcc"
	"repro/internal/structure"
)

// Snapshot is a read handle on an Enumerator at one committed epoch pinned on
// its clock: emptiness tests and cursors stream the answer set exactly as it
// was at that commit, no matter how many updates the writer applies
// afterwards.
//
// Taking a snapshot is O(1).  Resolution reads the live state under a shared
// lock and rolls dirtied gates back through the undo chain (mvcc.View); the
// per-gate enumeration metadata of addition and permanent gates is re-derived
// lazily from the pinned emptiness bits and memoised, so a cursor touches
// each gate's fan-in at most once per snapshot.
//
// A Snapshot is intended for a single reader goroutine (its digest and
// memoised metadata are unsynchronised); take one per goroutine.  Snapshots
// may be taken, used and released concurrently with each other and with the
// writer.  Whoever pinned the epoch unpins it when done — a pinned epoch
// retains undo history whose memory grows with every write.
type Snapshot struct {
	e    *Enumerator
	view mvcc.View[enumUndo]

	// Lazily derived, memoised enumeration metadata at the pinned epoch.
	adders map[int]*adderMeta
	perms  map[int]*permGateMeta
}

// At returns a read handle for epoch, which the caller has pinned on the
// enumerator's clock and unpins when done with the handle.
func (e *Enumerator) At(epoch uint64) *Snapshot {
	return &Snapshot{
		e: e, view: e.log.At(epoch),
		adders: map[int]*adderMeta{},
		perms:  map[int]*permGateMeta{},
	}
}

// Empty reports whether the output gate was empty at the pinned epoch.
func (s *Snapshot) Empty() bool { return s.GateEmpty(s.e.p.OutputGate()) }

// GateEmpty reports emptiness of an arbitrary gate at the pinned epoch.
func (s *Snapshot) GateEmpty(id int) bool {
	defer s.lock().unlock()
	return s.emptyLocked(id)
}

// Cursor returns a fresh constant-delay cursor over the monomials of the
// output gate at the pinned epoch, read as tuples of the given arity.
// Unlike live cursors, snapshot cursors are not invalidated by updates: the
// writer may commit freely while the cursor streams.
func (s *Snapshot) Cursor(arity int) *TupleCursor { return newCursor(s, s.e, arity) }

// emptyLocked resolves one gate's emptiness at the pinned epoch.  Caller
// holds at least the shared lock with the view extended.
func (s *Snapshot) emptyLocked(id int) bool {
	if u, ok := s.view.Lookup(int32(id)); ok {
		return u.oldEmpty
	}
	return s.e.empty[id]
}

// lock takes the shared lock and extends the view: the snapshot side of the
// source a cursor binds its nodes through, so a node bound mid-stream
// resolves the pinned epoch too.  The caller unlocks.
func (s *Snapshot) lock() *Snapshot {
	s.e.clock.RLock()
	s.view.Extend()
	return s
}

func (s *Snapshot) unlock() { s.e.clock.RUnlock() }

// adder derives (and memoises) the metadata of an addition gate at the
// pinned epoch, with the writer's constructor under the snapshot's
// emptiness view.
func (s *Snapshot) adder(id int) *adderMeta {
	m, ok := s.adders[id]
	if !ok {
		defer s.lock().unlock()
		kids := s.e.p.ChildIDs(id)
		m = new(adderMeta)
		m.init(kids, make([]int32, adderWords(len(kids))), s.emptyLocked)
		s.adders[id] = m
	}
	return m
}

// perm derives (and memoises) the Lemma 39 column-type bookkeeping of a
// permanent gate at the pinned epoch, likewise.
func (s *Snapshot) perm(id int) *permGateMeta {
	m, ok := s.perms[id]
	if !ok {
		defer s.lock().unlock()
		m = new(permGateMeta)
		m.init(s.e.p, id, make([]int32, permWords(s.e.p.PermShape(id))), s.emptyLocked)
		s.perms[id] = m
	}
	return m
}

// ---------------------------------------------------------------------------
// Answer-set snapshots
// ---------------------------------------------------------------------------

// AnswersSnapshot is a read handle on an Answers enumerator at one committed
// epoch pinned on its clock: cursors, Collect and Count all answer as of that
// commit while the writer keeps applying tuple updates.  Like Snapshot, it is
// meant for a single reader goroutine.
type AnswersSnapshot struct {
	ans  *Answers
	snap *Snapshot
}

// At returns a read handle for epoch, which the caller has pinned on the
// enumerator's clock and unpins when done with the handle.
func (ans *Answers) At(epoch uint64) *AnswersSnapshot {
	return &AnswersSnapshot{ans: ans, snap: ans.enum.At(epoch)}
}

// Empty reports whether the query had no answers at the pinned epoch.
func (s *AnswersSnapshot) Empty() bool { return s.snap.Empty() }

// Cursor returns a fresh constant-delay cursor over the answer set at the
// pinned epoch.  Unlike live cursors, it stays valid while the writer
// updates.
func (s *AnswersSnapshot) Cursor() *TupleCursor {
	return s.snap.Cursor(s.ans.sh.Arity())
}

// Collect drains a fresh cursor into a slice of answers (limit ≤ 0 means no
// limit).
func (s *AnswersSnapshot) Collect(limit int) []structure.Tuple { return collect(s.Cursor(), limit) }

// Count returns the number of answers at the pinned epoch by evaluating the
// circuit in ℕ with every input present at that epoch sent to 1 and every
// absent one to 0.
func (s *AnswersSnapshot) Count() int64 {
	return countAnswers(s.ans.sh.Result().Program, s.snap.GateEmpty)
}
