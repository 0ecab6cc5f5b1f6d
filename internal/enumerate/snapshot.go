package enumerate

import (
	"repro/internal/circuit"
	"repro/internal/structure"
)

// Snapshot is a read handle on an Enumerator pinned at one committed epoch:
// emptiness tests and cursors stream the answer set exactly as it was at
// that commit, no matter how many updates the writer applies afterwards.
//
// Taking a snapshot is O(1).  Resolution reads the live state under a shared
// lock and rolls dirtied gates back through the undo chain (first recorded
// pre-change state wins); the per-gate enumeration metadata of addition and
// permanent gates is re-derived lazily from the pinned emptiness bits and
// memoised, so a cursor touches each gate's fan-in at most once per
// snapshot.
//
// A Snapshot is intended for a single reader goroutine (its digest and
// memoised metadata are unsynchronised); take one per goroutine.  Snapshots
// may be taken, used and released concurrently with each other and with the
// writer.  Release when done — an unreleased snapshot pins undo history
// whose memory grows with every write.
type Snapshot struct {
	e        *Enumerator
	epoch    uint64
	digested uint64 // undo history of epochs [epoch, digested) is folded into digest
	digest   map[int32]enumUndo
	released bool

	// Lazily derived, memoised enumeration metadata at the pinned epoch.
	adders map[int]*adderMeta
	perms  map[int]*permGateMeta
}

// Snapshot pins the current committed epoch and returns a read handle for
// it.  From now until Release, updates record undo entries (in reusable
// per-epoch buffers), so the writer's steady state with no snapshots
// outstanding stays free of history bookkeeping.
func (e *Enumerator) Snapshot() *Snapshot {
	e.mu.Lock()
	ep := e.log.Pin()
	e.mu.Unlock()
	return &Snapshot{
		e: e, epoch: ep, digested: ep,
		digest: map[int32]enumUndo{},
		adders: map[int]*adderMeta{},
		perms:  map[int]*permGateMeta{},
	}
}

// Epoch returns the committed epoch this snapshot is pinned at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Release unpins the snapshot, letting the writer truncate undo history it
// no longer needs.  Release is idempotent; a released snapshot keeps
// answering from its digest but stops following new undo entries, so use it
// only before the release.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	s.e.mu.Lock()
	s.e.log.Unpin(s.epoch)
	s.e.mu.Unlock()
}

// Empty reports whether the output gate was empty at the pinned epoch.
func (s *Snapshot) Empty() bool { return s.GateEmpty(s.e.p.OutputGate()) }

// GateEmpty reports emptiness of an arbitrary gate at the pinned epoch.
func (s *Snapshot) GateEmpty(id int) bool {
	s.e.mu.RLock()
	defer s.e.mu.RUnlock()
	s.extendLocked()
	return s.emptyLocked(id)
}

// Cursor returns a fresh constant-delay cursor over the monomials of the
// output gate at the pinned epoch.  Unlike live cursors, snapshot cursors
// are not invalidated by updates: the writer may commit freely while the
// cursor streams.
func (s *Snapshot) Cursor() Cursor { return s.gateCursor(s.e.p.OutputGate()) }

// extendLocked folds undo entries committed since the last resolution into
// the digest.  First entry per gate wins: walking the undo chain forwards
// from the pin, the first pre-change state recorded for a gate is its state
// at the pinned epoch.  Caller holds at least the shared lock.
func (s *Snapshot) extendLocked() {
	if s.released || s.digested == s.e.log.Epoch() {
		return
	}
	s.digested = s.e.log.Walk(s.digested, func(u enumUndo) {
		if _, ok := s.digest[u.gate]; !ok {
			s.digest[u.gate] = u
		}
	})
}

// emptyLocked resolves one gate's emptiness at the pinned epoch.  Caller
// holds at least the shared lock with the digest extended.
func (s *Snapshot) emptyLocked(id int) bool {
	if u, ok := s.digest[int32(id)]; ok {
		return u.oldEmpty
	}
	return s.e.empty[id]
}

// inputLocked resolves one input gate's value at the pinned epoch.  Caller
// holds at least the shared lock with the digest extended.
func (s *Snapshot) inputLocked(id int) Value {
	if u, ok := s.digest[int32(id)]; ok && u.kind == undoInput {
		return u.oldInput
	}
	return s.e.inputValue[id]
}

// gateCursor is the snapshot side of the cursor factory: the same cursor
// machinery as the live Enumerator, reading pinned-epoch state and
// snapshot-derived metadata.  It implements view, so child cursors opened
// mid-stream resolve through the snapshot as well.
func (s *Snapshot) gateCursor(id int) Cursor {
	e := s.e
	e.mu.RLock()
	s.extendLocked()
	if s.emptyLocked(id) {
		e.mu.RUnlock()
		return &sliceCursor{}
	}
	kind := e.p.GateKind(id)
	switch kind {
	case circuit.KindInput:
		v := s.inputLocked(id)
		e.mu.RUnlock()
		return v.Cursor()
	case circuit.KindConst:
		e.mu.RUnlock()
		return &constCursor{remaining: e.p.ConstBig(id)}
	case circuit.KindAdd:
		meta := s.adderLocked(id)
		e.mu.RUnlock()
		return &concatCursor{e: s, meta: meta}
	case circuit.KindMul:
		children := e.p.ChildIDs(id)
		e.mu.RUnlock()
		return newProductCursor(s, children)
	case circuit.KindPerm:
		meta := s.permLocked(id)
		e.mu.RUnlock()
		return newPermCursor(s, meta)
	default:
		e.mu.RUnlock()
		panic("enumerate: unsupported gate kind in snapshot cursor")
	}
}

// adderLocked derives (and memoises) the metadata of an addition gate at the
// pinned epoch, with the writer's constructor under the snapshot's emptiness
// view.  Caller holds at least the shared lock with the digest extended.
func (s *Snapshot) adderLocked(id int) *adderMeta {
	m, ok := s.adders[id]
	if !ok {
		m = newAdderMeta(s.e.p.ChildIDs(id), s.emptyLocked)
		s.adders[id] = m
	}
	return m
}

// permLocked derives (and memoises) the Lemma 39 column-type bookkeeping of
// a permanent gate at the pinned epoch, likewise.  Caller holds at least the
// shared lock with the digest extended.
func (s *Snapshot) permLocked(id int) *permGateMeta {
	m, ok := s.perms[id]
	if !ok {
		m = newPermGateMeta(s.e.p, id, s.emptyLocked)
		s.perms[id] = m
	}
	return m
}

// ---------------------------------------------------------------------------
// Answer-set snapshots
// ---------------------------------------------------------------------------

// AnswersSnapshot is a read handle on an Answers enumerator pinned at one
// committed epoch: cursors, Collect and Count all answer as of that commit
// while the writer keeps applying tuple updates.  Like Snapshot, it is meant
// for a single reader goroutine and must be released when done.
type AnswersSnapshot struct {
	ans  *Answers
	snap *Snapshot
}

// Snapshot pins the current committed epoch of the answer enumerator and
// returns a read handle for it.
func (ans *Answers) Snapshot() *AnswersSnapshot {
	return &AnswersSnapshot{ans: ans, snap: ans.enum.Snapshot()}
}

// Epoch returns the committed epoch of the answer enumerator, i.e. the
// number of committed update operations so far.
func (ans *Answers) Epoch() uint64 { return ans.enum.Epoch() }

// RetainedUndoBytes reports the memory currently held by undo history for
// outstanding snapshots; zero whenever no snapshot is pinned.
func (ans *Answers) RetainedUndoBytes() int64 { return ans.enum.RetainedUndoBytes() }

// Epoch returns the committed epoch this snapshot is pinned at.
func (s *AnswersSnapshot) Epoch() uint64 { return s.snap.Epoch() }

// Release unpins the snapshot.  Release is idempotent.
func (s *AnswersSnapshot) Release() { s.snap.Release() }

// Empty reports whether the query had no answers at the pinned epoch.
func (s *AnswersSnapshot) Empty() bool { return s.snap.Empty() }

// Cursor returns a fresh constant-delay cursor over the answer set at the
// pinned epoch.  Unlike live cursors, it stays valid while the writer
// updates.
func (s *AnswersSnapshot) Cursor() *TupleCursor {
	return &TupleCursor{arity: s.ans.sh.Arity(), inner: s.snap.Cursor()}
}

// Collect drains a fresh cursor into a slice of answers (limit ≤ 0 means no
// limit).
func (s *AnswersSnapshot) Collect(limit int) []structure.Tuple { return collect(s.Cursor(), limit) }

// Count returns the number of answers at the pinned epoch by evaluating the
// circuit in ℕ under the homomorphism sending every generator to 1, with
// each input resolved through the snapshot.
func (s *AnswersSnapshot) Count() int64 {
	return countAnswers(s.ans.sh.Result().Program, s.snap.GateEmpty)
}
