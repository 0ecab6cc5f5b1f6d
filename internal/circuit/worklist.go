package circuit

// Worklist is the rank-bucket worklist of a propagation wave over a Program:
// a gate that changed enlists its parents, each parent waits once in the
// bucket of its rank however many of its children changed, and draining the
// buckets in increasing rank order refreshes every affected gate exactly
// once, after all of its children — a gate of rank r only ever enlists gates
// of strictly larger rank.
//
// This is the dense, persistent form: one changed-children list per gate,
// owned by the worklist and reused across waves, so a wave allocates nothing
// once the lists have grown to their steady-state capacity.  The maintenance
// engines (Dynamic here, the enumerator in internal/enumerate) each own one
// and keep what is engine-specific — values, undo log, emptiness bits — in
// the callback they hand to Drain.  A Worklist is not safe for concurrent
// use; its owner serialises waves.
type Worklist struct {
	p       *Program
	buckets [][]int // buckets[r] lists the waiting gates of rank r
	changed [][]int // changed[g] lists g's children that changed this wave; non-empty iff g waits
}

// NewWorklist returns an empty worklist over the program's gates.
func NewWorklist(p *Program) *Worklist {
	return &Worklist{p: p, buckets: make([][]int, p.maxRank+1), changed: make([][]int, p.numGates)}
}

// Enlist records that gate g changed: g joins the changed-children list of
// each of its parents, and a parent not yet waiting joins its rank's bucket.
// Enlisting the same gate twice in one wave lists it twice: an engine whose
// per-child refresh work is not idempotent keeps its own guard (Dynamic's
// generation stamp), the others (the enumerator) simply redo the child.
func (w *Worklist) Enlist(g int) {
	for _, p32 := range w.p.ParentIDs(g) {
		p := int(p32)
		if len(w.changed[p]) == 0 {
			r := w.p.rank[p]
			w.buckets[r] = append(w.buckets[r], p)
		}
		w.changed[p] = append(w.changed[p], g)
	}
}

// Drain runs one wave: it empties the buckets in increasing rank order,
// calling refresh(g, changed) once per waiting gate with the children of g
// that were enlisted.  refresh calls Enlist(g) when g itself changed; the
// changed slice is only valid during the call.
func (w *Worklist) Drain(refresh func(g int, changed []int)) {
	for r := 1; r < len(w.buckets); r++ {
		bucket := w.buckets[r]
		for _, g := range bucket {
			refresh(g, w.changed[g])
			w.changed[g] = w.changed[g][:0]
		}
		w.buckets[r] = bucket[:0]
	}
}
