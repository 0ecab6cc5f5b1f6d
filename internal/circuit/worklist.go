package circuit

// Worklist is the rank-bucket worklist of a propagation wave over a Program:
// a gate that changed enlists, along its wires, the slots it occupies in its
// parents; each parent waits once in the bucket of its rank however many of
// its slots changed, and draining the buckets in increasing rank order
// refreshes every affected gate exactly once, after all of its children — a
// gate of rank r only ever enlists gates of strictly larger rank.
//
// The wires are the Program's, frozen once; what a Worklist holds per instance
// is this dense, persistent wave state: one changed-slots list per gate, owned
// by the worklist and reused across waves, so a wave allocates nothing once
// the lists have grown to their steady-state capacity.  The maintenance
// engines (Dynamic here, the enumerator in internal/enumerate) each own one
// and keep what is engine-specific — values, undo log, emptiness bits — in
// the callback they hand to Drain.  A Worklist is not safe for concurrent
// use; its owner serialises waves.
type Worklist struct {
	p       *Program
	buckets [][]int   // buckets[r] lists the waiting gates of rank r
	changed [][]int32 // changed[g] lists g's slots whose child changed this wave; non-empty iff g waits
	skip    []bool    // skip[g]: g never waits (a Dynamic's pruned gates); nil skips none
}

// NewWorklist returns an empty worklist over the program's gates.
func NewWorklist(p *Program) *Worklist {
	return &Worklist{p: p, buckets: make([][]int, p.maxRank+1), changed: make([][]int32, p.numGates)}
}

// Enlist records that gate g changed: every slot g is wired to joins the
// changed-slots list of its parent, and a parent not yet waiting joins its
// rank's bucket, unless the parent is skipped.  Enlisting the same gate twice
// in one wave lists its slots twice: an engine whose per-slot refresh work is
// not idempotent keeps its own guard (Dynamic's generation stamp), the others
// (the enumerator) simply redo the slot.
func (w *Worklist) Enlist(g int) {
	for _, wire := range w.p.Wires(g) {
		p := wire.Parent
		if w.skip != nil && w.skip[p] {
			continue
		}
		if len(w.changed[p]) == 0 {
			r := w.p.rank[p]
			w.buckets[r] = append(w.buckets[r], int(p))
		}
		w.changed[p] = append(w.changed[p], wire.Slot)
	}
}

// Drain runs one wave: it empties the buckets in increasing rank order,
// calling refresh(g, slots) once per waiting gate with the slots of g —
// indexes into ChildIDs(g) — whose child was enlisted.  refresh calls
// Enlist(g) when g itself changed; the slots slice is only valid during the
// call.
func (w *Worklist) Drain(refresh func(g int, slots []int32)) {
	for r := 1; r < len(w.buckets); r++ {
		bucket := w.buckets[r]
		for _, g := range bucket {
			refresh(g, w.changed[g])
			w.changed[g] = w.changed[g][:0]
		}
		w.buckets[r] = bucket[:0]
	}
}
