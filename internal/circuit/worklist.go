package circuit

import "slices"

// Worklist is the rank-bucket scheduler of a propagation wave over a Program,
// the one every wave in the repository runs on: a Dynamic's writes, the point
// reads of Values and snapshots, and the enumerator's emptiness updates.  A
// gate that changed enlists, along its wires, the slots it occupies in its
// parents; each parent waits once in the bucket of its rank however many of
// its slots changed, and draining the buckets in increasing rank order
// refreshes every affected gate exactly once, after all of its children — a
// gate of rank r only ever enlists gates of strictly larger rank.
//
// The wires are the Program's, frozen once; what a Worklist holds per gate is
// one int32, the index of the gate's changed-slot list while it waits.  The
// lists come from a pool that waves reuse in turn, so the memory a wave works
// in is proportional to the gates it reaches, and a wave allocates nothing
// once the pool and the buckets have grown to what the largest earlier wave
// needed — whichever gates it reaches.  The engines keep what is
// engine-specific (values, undo log, emptiness bits) in the callback they hand
// to Drain.  A Worklist is not safe for concurrent use; its owner serialises
// waves.
type Worklist struct {
	p       *Program
	buckets [][]int32 // buckets[r] lists the waiting gates of rank r
	list    []int32   // list[g] is 1 + the index in lists of g's changed slots while g waits, else 0
	lists   [][]int32 // the pool; lists[:used] are this wave's
	used    int
	// skip[g]: g never waits (a write's pruned gates); nil skips none.  Bit g
	// of quiet is set when every parent of g is skipped, so Enlist(g) returns
	// without walking g's wires (skipGates).
	skip  []bool
	quiet []uint64
}

// NewWorklist returns an empty worklist over the program's gates.
func NewWorklist(p *Program) *Worklist {
	return &Worklist{p: p, buckets: make([][]int32, p.maxRank+1), list: make([]int32, p.numGates)}
}

// Enlist records that gate g changed: every slot g is wired to joins the
// changed-slots list of its parent, and a parent not yet waiting joins its
// rank's bucket, unless the parent is skipped.  Enlisting the same gate twice
// in one wave lists its slots twice; the enumerator's per-slot refresh is
// idempotent, and the value waves enlist a gate once.
func (w *Worklist) Enlist(g int) {
	if w.quiet != nil && w.quiet[g/64]&(1<<(g%64)) != 0 {
		return
	}
	for _, wire := range w.p.Wires(g) {
		p := wire.Parent
		if w.skip != nil && w.skip[p] {
			continue
		}
		i := w.list[p]
		if i == 0 {
			if w.used == len(w.lists) {
				w.lists = append(w.lists, nil)
			}
			w.lists[w.used] = w.lists[w.used][:0]
			w.used++
			i = int32(w.used)
			w.list[p] = i
			r := w.p.rank[p]
			w.buckets[r] = append(w.buckets[r], p)
		}
		w.lists[i-1] = append(w.lists[i-1], wire.Slot)
	}
}

// skipGates makes every wave of w skip the gates skip marks, and marks quiet
// the gates all of whose parents it skips (or that have none): a write to an
// input whose fan-out the skip set prunes whole then walks none of it,
// however wide.
func (w *Worklist) skipGates(skip []bool) {
	w.skip, w.quiet = skip, make([]uint64, (w.p.numGates+63)/64)
	for g := 0; g < w.p.numGates; g++ {
		if !slices.ContainsFunc(w.p.Wires(g), func(wire Wire) bool { return !skip[wire.Parent] }) {
			w.quiet[g/64] |= 1 << (g % 64)
		}
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
			i := w.list[g]
			w.list[g] = 0
			refresh(int(g), w.lists[i-1])
		}
		w.buckets[r] = bucket[:0]
	}
	w.used = 0
}
