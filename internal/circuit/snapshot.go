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

// overlay is the working memory of one DynSnapshot.EvalWith, borrowed from
// the Dynamic's pool for the call — allocated on first use and reused by
// whichever snapshot reads next, since a session read takes a fresh
// DynSnapshot every time.  The overlay wave walks the Program's wires like the
// writer's, but keeps a sparse worklist of its own instead of a Worklist: a
// pinned read is throwaway, so it may cost O(touched gates) but never
// O(gates).  A gate waits in a bucket iff it has a changed entry.
type overlay[T any] struct {
	s       *DynSnapshot[T] // the snapshot being read, while borrowed
	vals    map[int]T       // gate → value under the current overrides
	changed map[int][]int32 // gate → its slots whose child the overlay wave changed
	buckets [][]int         // buckets[r] lists the waiting gates of rank r
	free    [][]int32       // emptied changed lists, for the next wave
	// Operands of the permanent gate being recomputed, gathered in entry
	// order, the identity index that addresses them, and the DP's buffers.
	permOps []T
	permIdx []int32
	permSc  permScratch[T]
}

// borrowOverlay takes an empty overlay for s from the pool.
func (s *DynSnapshot[T]) borrowOverlay() *overlay[T] {
	o, _ := s.d.overlays.Get().(*overlay[T])
	if o == nil {
		o = &overlay[T]{
			vals:    make(map[int]T),
			changed: make(map[int][]int32),
			buckets: make([][]int, s.d.p.maxRank+1),
		}
	}
	o.s = s
	return o
}

// release empties o and returns it to the pool.  The wave has drained every
// bucket and changed entry by then.
func (o *overlay[T]) release() {
	clear(o.vals)
	d := o.s.d
	o.s = nil
	d.overlays.Put(o)
}

// EvalWith evaluates the output at the pinned epoch under temporary input
// overrides, without touching the shared state: the overrides seed a private
// overlay wave that propagates rank-ascending exactly like the writer's
// wave, reading unchanged gates through the snapshot.  This is how point
// queries run on a snapshot — the writer may commit concurrent batches the
// whole time.
//
// Addition gates recompute by the cheapest applicable rule: a ring delta
// when the semiring subtracts; appending the new summands while every changed
// child was zero at the pinned epoch (the usual case for point-query
// toggles, valid in any semiring); a full fan-in re-sum otherwise.
// Permanent gates recompute from scratch with the static sweep's evaluator
// over the snapshot-resolved entries — costlier than the writer's maintained
// structures, but permanents are capped at twelve rows and both sides of a
// snapshot comparison pay the same path.
func (s *DynSnapshot[T]) EvalWith(leaves []Leaf[T]) T {
	d := s.d
	d.clock.RLock()
	defer d.clock.RUnlock()
	s.view.Extend()
	o := s.borrowOverlay()
	touched := false
	for _, l := range leaves {
		id := l.Gate
		if id < 0 {
			continue
		}
		_, already := o.vals[id]
		if !already && d.s.Equal(s.resolveLocked(id), l.Value) {
			continue
		}
		o.vals[id] = l.Value
		if !already {
			o.mark(id)
		}
		touched = true
	}
	if touched {
		o.run()
	}
	out := o.value(d.p.output)
	o.release() // not deferred: a wave that panicked half-way is not pooled
	return out
}

// value reads a gate under the current overlay, falling back to the
// snapshot.  Caller holds the shared lock with the view extended.
func (o *overlay[T]) value(g int) T {
	if v, ok := o.vals[g]; ok {
		return v
	}
	return o.s.resolveLocked(g)
}

// mark enlists the slots g is wired to after g's overlay value changed.
// Parents outrank g and ranks drain in increasing order, so a parent that
// already has a changed entry is still waiting and is not queued again.
func (o *overlay[T]) mark(g int) {
	p := o.s.d.p
	for _, wire := range p.Wires(g) {
		parent := int(wire.Parent)
		slots, waiting := o.changed[parent]
		if !waiting {
			r := p.rank[parent]
			o.buckets[r] = append(o.buckets[r], parent)
			if k := len(o.free); k > 0 {
				slots, o.free = o.free[k-1], o.free[:k-1]
			}
		}
		o.changed[parent] = append(slots, wire.Slot)
	}
}

// run drains the private rank buckets in increasing order.  A gate's changed
// list goes back to the free list once the gate is recomputed: nothing below
// its rank is left to mark it again.
func (o *overlay[T]) run() {
	s := o.s
	for r := 1; r < len(o.buckets); r++ {
		bucket := o.buckets[r]
		for _, g := range bucket {
			slots := o.changed[g]
			newVal := o.recompute(g, slots)
			delete(o.changed, g)
			o.free = append(o.free, slots[:0])
			if s.d.s.Equal(newVal, s.resolveLocked(g)) {
				continue
			}
			o.vals[g] = newVal
			o.mark(g)
		}
		o.buckets[r] = bucket[:0]
	}
}

// recompute computes gate g's value under the overlay from its children,
// given the slots whose child the current wave changed.
func (o *overlay[T]) recompute(g int, slots []int32) T {
	d := o.s.d
	switch Kind(d.p.kind[g]) {
	case KindMul:
		acc := d.s.One()
		for _, ch := range d.p.ChildIDs(g) {
			acc = d.s.Mul(acc, o.value(int(ch)))
		}
		return acc
	case KindAdd:
		return o.recomputeAdd(g, slots)
	case KindPerm:
		return o.recomputePerm(g)
	default:
		panic("circuit: snapshot overlay cannot recompute gate kind")
	}
}

// recomputeAdd applies EvalWith's rules slot by slot, one summand per wire.
func (o *overlay[T]) recomputeAdd(g int, slots []int32) T {
	s, d := o.s, o.s.d
	kids := d.p.ChildIDs(g)
	acc := s.resolveLocked(g)
	for _, slot := range slots {
		ch := int(kids[slot])
		old := s.resolveLocked(ch)
		switch {
		case d.ring != nil:
			acc = d.ring.Add(acc, d.ring.Add(o.value(ch), d.ring.Neg(old)))
		case semiring.IsZero(d.s, old):
			acc = d.s.Add(acc, o.value(ch))
		default: // a non-zero summand to replace, and no subtraction: re-sum
			acc = d.s.Zero()
			for _, ch := range kids {
				acc = d.s.Add(acc, o.value(int(ch)))
			}
			return acc
		}
	}
	return acc
}

// recomputePerm gathers the gate's operands through the overlay and runs the
// shared permanent evaluator over them.
func (o *overlay[T]) recomputePerm(g int) T {
	d := o.s.d
	kids := d.p.ChildIDs(g)
	for len(o.permIdx) < len(kids) {
		o.permIdx = append(o.permIdx, int32(len(o.permIdx)))
	}
	o.permOps = o.permOps[:0]
	for _, ch := range kids {
		o.permOps = append(o.permOps, o.value(int(ch)))
	}
	return evaluateProgramPerm(d.p, d.s, g, o.permIdx[:len(kids)], o.permOps, &o.permSc)
}
