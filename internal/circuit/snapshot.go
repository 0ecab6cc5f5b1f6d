package circuit

import (
	"repro/internal/mvcc"
	"repro/internal/semiring"
)

// DynSnapshot is a read handle on a Dynamic at one committed epoch pinned on
// its clock: every resolution — Value, GateValue, and point queries through
// EvalWith — answers as of that commit, no matter how many mutations the
// writer has applied since.  Taking a snapshot is O(1); resolving a gate
// costs a digest lookup plus, lazily, one walk over the undo entries
// committed since the pin (mvcc.View).
//
// A snapshot holds no copy of the value array: it reads the writer's current
// state under the shared lock and rolls dirtied gates back through the undo
// chain, the copy-on-write scheme of the MVCC session layer.  The pin must be
// released when done — a pinned epoch retains undo history whose memory grows
// with every write.
//
// A DynSnapshot is intended for a single reader goroutine (its digest and
// scratch are unsynchronised); take one snapshot per goroutine.  Snapshots
// of one Dynamic may be taken, used and released concurrently with each
// other and with the writer.
type DynSnapshot[T any] struct {
	d     *Dynamic[T]
	view  mvcc.View[valUndo[T]]
	owned bool // Snapshot took the pin itself and Release returns it

	// Overlay scratch of EvalWith, allocated on first use and reused.  The
	// overlay wave keeps a sparse worklist of its own instead of a Worklist: a
	// pinned read is throwaway, so it may cost O(touched gates) but never
	// O(gates).  A gate waits in a bucket iff it has a changeCh entry.
	overlay  map[int]T     // gate → value under the current overrides
	changeCh map[int][]int // gate → children changed by the overlay wave
	buckets  [][]int       // buckets[r] lists the waiting gates of rank r
	// Operands of the permanent gate being recomputed, gathered in entry
	// order, the identity index that addresses them, and the DP's buffers.
	permOps []T
	permIdx []int32
	permSc  permScratch[T]
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
	return s.resolveLocked(id)
}

// resolveLocked answers one gate at the pinned epoch: its first-recorded
// undo value if the writer dirtied it since the pin, the live value
// otherwise.  Caller holds at least the shared lock with the view extended.
func (s *DynSnapshot[T]) resolveLocked(g int) T {
	if u, ok := s.view.Lookup(int32(g)); ok {
		return u.old
	}
	return s.d.vals[g]
}

// EvalWith evaluates the output at the pinned epoch under temporary input
// overrides, without touching the shared state: the overrides seed a private
// overlay wave that propagates rank-ascending exactly like the writer's
// wave, reading unchanged gates through the snapshot.  This is how point
// queries run on a snapshot — the writer may commit concurrent batches the
// whole time.
//
// Addition gates recompute by the cheapest applicable rule: a ring delta
// when the semiring subtracts; appending the new summands when every changed
// child was zero at the pinned epoch (the usual case for point-query
// toggles, valid in any semiring); a full fan-in re-sum otherwise.
// Permanent gates recompute from scratch with the static sweep's evaluator
// over the snapshot-resolved entries — costlier than the writer's maintained
// structures, but permanents are capped at twelve rows and both sides of a
// snapshot comparison pay the same path.
func (s *DynSnapshot[T]) EvalWith(changes []InputChange[T]) T {
	d := s.d
	d.clock.RLock()
	defer d.clock.RUnlock()
	s.view.Extend()
	if s.overlay == nil {
		s.buckets = make([][]int, d.p.maxRank+1)
		s.overlay = make(map[int]T)
		s.changeCh = make(map[int][]int)
	}
	touched := false
	for _, ch := range changes {
		id := d.p.InputGate(ch.Key)
		if id < 0 {
			continue
		}
		_, already := s.overlay[id]
		if !already && d.s.Equal(s.resolveLocked(id), ch.Value) {
			continue
		}
		s.overlay[id] = ch.Value
		if !already {
			s.markOverlay(id)
		}
		touched = true
	}
	if touched {
		s.runOverlayWave()
	}
	out := s.overlayValue(d.p.output)
	clear(s.overlay)
	clear(s.changeCh)
	return out
}

// overlayValue reads a gate under the current overlay, falling back to the
// snapshot.  Caller holds the shared lock with the view extended.
func (s *DynSnapshot[T]) overlayValue(g int) T {
	if v, ok := s.overlay[g]; ok {
		return v
	}
	return s.resolveLocked(g)
}

// markOverlay enlists g's parents after g's overlay value changed.  Parents
// outrank g and ranks drain in increasing order, so a parent that already has
// a changeCh entry is still waiting and is not queued again.
func (s *DynSnapshot[T]) markOverlay(g int) {
	for _, p32 := range s.d.p.ParentIDs(g) {
		p := int(p32)
		chs, waiting := s.changeCh[p]
		if !waiting {
			r := s.d.p.rank[p]
			s.buckets[r] = append(s.buckets[r], p)
		}
		s.changeCh[p] = append(chs, g)
	}
}

// runOverlayWave drains the private rank buckets in increasing order.
func (s *DynSnapshot[T]) runOverlayWave() {
	d := s.d
	for r := 1; r < len(s.buckets); r++ {
		bucket := s.buckets[r]
		for _, g := range bucket {
			newVal := s.recomputeOverlay(g)
			if d.s.Equal(newVal, s.resolveLocked(g)) {
				continue
			}
			s.overlay[g] = newVal
			s.markOverlay(g)
		}
		s.buckets[r] = bucket[:0]
	}
}

// recomputeOverlay computes gate g's value under the overlay from its
// children, given the changed-children list of the current wave.
func (s *DynSnapshot[T]) recomputeOverlay(g int) T {
	d := s.d
	switch Kind(d.p.kind[g]) {
	case KindMul:
		acc := d.s.One()
		for _, ch := range d.p.ChildIDs(g) {
			acc = d.s.Mul(acc, s.overlayValue(int(ch)))
		}
		return acc
	case KindAdd:
		return s.recomputeOverlayAdd(g)
	case KindPerm:
		return s.recomputeOverlayPerm(g)
	default:
		panic("circuit: snapshot overlay cannot recompute gate kind")
	}
}

func (s *DynSnapshot[T]) recomputeOverlayAdd(g int) T {
	d := s.d
	st := d.adders[g] // children and occurrences are immutable after build
	snapVal := s.resolveLocked(g)
	chs := s.changeCh[g]
	if d.ring != nil {
		acc := snapVal
		for _, ch := range chs {
			occ := int64(len(st.occurrences[ch]))
			if occ == 0 {
				continue
			}
			delta := d.ring.Add(s.overlayValue(ch), d.ring.Neg(s.resolveLocked(ch)))
			acc = d.ring.Add(acc, semiring.ScalarMul[T](d.ring, occ, delta))
		}
		return acc
	}
	// Without subtraction: if every changed child was zero at the snapshot,
	// the old sum simply gains the new summands (zero contributed nothing).
	allZero := true
	for _, ch := range chs {
		if !semiring.IsZero(d.s, s.resolveLocked(ch)) {
			allZero = false
			break
		}
	}
	if allZero {
		acc := snapVal
		for _, ch := range chs {
			occ := int64(len(st.occurrences[ch]))
			if occ == 0 {
				continue
			}
			acc = d.s.Add(acc, semiring.ScalarMul(d.s, occ, s.overlayValue(ch)))
		}
		return acc
	}
	// Fallback: re-sum the whole fan-in.
	acc := d.s.Zero()
	for _, ch := range st.children {
		acc = d.s.Add(acc, s.overlayValue(int(ch)))
	}
	return acc
}

// recomputeOverlayPerm gathers the gate's operands through the overlay and
// runs the shared permanent evaluator over them.
func (s *DynSnapshot[T]) recomputeOverlayPerm(g int) T {
	d := s.d
	kids := d.p.ChildIDs(g)
	for len(s.permIdx) < len(kids) {
		s.permIdx = append(s.permIdx, int32(len(s.permIdx)))
	}
	s.permOps = s.permOps[:0]
	for _, ch := range kids {
		s.permOps = append(s.permOps, s.overlayValue(int(ch)))
	}
	return evaluateProgramPerm(d.p, d.s, g, s.permIdx[:len(kids)], s.permOps, &s.permSc)
}
