package circuit

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/mvcc"
	"repro/internal/perm"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Dynamic is an incrementally maintained evaluation of a circuit: after a
// linear-time initialisation, the value of the output gate is kept up to
// date while individual weight inputs change.
//
// The per-update cost realises Theorem 8 of the paper:
//
//   - for arbitrary semirings, permanent gates are maintained by the
//     segment-tree structure of perm.Dynamic and wide addition gates by a
//     balanced aggregation tree, giving O(log n) semiring operations per
//     update;
//   - when the semiring is a ring, permanent gates use inclusion–exclusion
//     (perm.RingDynamic) and addition gates use difference updates, giving
//     O(1) operations per update;
//   - when the semiring is finite, permanent gates use column-type counting
//     (perm.FiniteDynamic) and addition gates use value counting, again
//     giving O(1) operations per update.
//
// The strategy is chosen automatically from the semiring's capabilities.
//
// The evaluator runs on the circuit's frozen Program and borrows its
// topological ranks, wires and permanent cells instead of rebuilding them per
// session: what a Dynamic holds per instance is values only — the gate values
// (a Values, the state every point read runs on), and per addition or
// permanent gate the counts, aggregation tree or maintained matrix its
// strategy needs, each addressed by the Program's slots.  A Worklist drains
// dirty gates in increasing rank order, handing each the slots whose child
// changed, so every affected gate is recomputed exactly once per wave no
// matter how many of its children changed.  All wave state
// (worklist, old values) is owned by the Dynamic and reused across updates:
// once the buffers have grown to their steady-state capacity, updates on the
// generic path perform zero heap allocations.
//
// # Goroutine safety
//
// The state is versioned by one mvcc.Clock, its own or the one it shares with
// the other engine state of a session: a mutation holds it exclusively from
// its first leaf assignment through its wave to its commit — one epoch, iff
// it changed something — and a snapshot resolves an epoch pinned on it under
// the shared lock, rolling dirtied slots back through the undo entries the
// wave logs while anything is pinned.  So any number of snapshots, one per
// reading goroutine, run concurrently with each other and with mutations.
// The live reads Value and GateValue take the shared lock too: they are safe
// from any goroutine, but not from a wave hook or other code already holding
// the clock.  Point reads never write: the writer's run on Live, any other
// goroutine's on a snapshot, and both through Values' one overlay evaluator.
type Dynamic[T any] struct {
	p *Program
	s semiring.Semiring[T]

	finite semiring.Finite[T] // nil unless the semiring is finite
	elems  []T                // carrier, when finite
	// elemIdx maps the rendering of a carrier element to its index in elems,
	// so large carriers resolve elements in O(1) instead of scanning on
	// every update.  It stays nil for small carriers (where an Equal scan is
	// cheaper than formatting) and for semirings whose Format is not
	// injective on the carrier (the scan is the always-correct fallback).
	elemIdx map[string]int

	// live holds the gate values, rewritten in place by every wave.
	live *Values[T]

	// What the strategy maintains beside vals, indexed by slot.  An addition
	// gate g keeps nothing over a ring (difference updates on vals);
	// addCounts[g][i], the number of its slots holding elems[i], over a finite
	// semiring; addTree[g], a complete binary aggregation tree with its slots
	// as leaves, otherwise.  perms[k] maintains the Program's k-th permanent
	// gate.
	addCounts [][]int64
	addTree   [][]T
	perms     []perm.Maintainer[T]

	// Wave state, reused across updates (see runWave).
	wave    *Worklist
	refresh func(g int, slots []int32) // refreshGate, bound once so a wave allocates nothing
	oldOf   []T                        // oldOf[g] is g's value right before this wave's change
	stamp   []uint64                   // stamp[g] == gen marks g as changed this wave
	gen     uint64                     // wave generation for stamp (not the commit epoch)

	// log is this state's undo history on clock: while readers are pinned,
	// markChanged records each gate's pre-wave value.
	clock *mvcc.Clock
	log   *mvcc.Log[valUndo[T]]

	// waveHook, when non-nil, receives the wall-clock duration of every
	// propagation wave.  The nil check in runWave keeps the uninstrumented
	// update path free of clock reads and allocations.  The hook runs while
	// the mutation holds the clock, so it must not call back into the
	// Dynamic.
	waveHook func(time.Duration)
}

// valUndo is one undo-log entry: gate held old right before the transition's
// wave.
type valUndo[T any] struct {
	gate int32
	old  T
}

func (u valUndo[T]) Slot() int32 { return u.gate }

// SetWaveHook installs (or, with nil, removes) a listener that receives the
// duration of each propagation wave.  The hook runs on the updating
// goroutine after the wave completes; it must be cheap and must not call
// back into the Dynamic.
func (d *Dynamic[T]) SetWaveHook(f func(time.Duration)) { d.waveHook = f }

// InputChange is one element of an ApplyBatch batch: the input labelled Key
// takes the Value.  Keys the circuit does not reference are ignored, and when
// the same key appears several times in one batch the last value wins.
type InputChange[T any] struct {
	Key   structure.WeightKey
	Value T
}

// Leaf is an input change resolved to its gate, the form engines stage: input
// gate Gate takes the Value, and a Gate of -1 (no such input) is ignored.
type Leaf[T any] struct {
	Gate  int
	Value T
}

// NewDynamicProgram initialises the dynamic evaluator on a frozen Program
// under the given valuation.  Freezing already validated the topological
// gate order, so propagation may trust the Program's ranks.  Many Dynamic
// sessions may share one Program; each gets independent update state — and a
// clock of its own — while the ranks, wires and children arenas stay shared
// and immutable.
func NewDynamicProgram[T any](p *Program, s semiring.Semiring[T], v Valuation[T]) *Dynamic[T] {
	d := &Dynamic[T]{p: p, s: s}
	d.live = valuesOf(p, s, EvaluateAllProgram(p, s, v))
	if f, ok := s.(semiring.Finite[T]); ok {
		d.finite = f
		d.elems = f.Elements()
		if len(d.elems) > smallCarrierScanLimit {
			d.elemIdx = make(map[string]int, len(d.elems))
			for i, e := range d.elems {
				d.elemIdx[s.Format(e)] = i
			}
			if len(d.elemIdx) != len(d.elems) {
				// Format collides on the carrier: a map hit could return the
				// wrong index, so fall back to Equal scans throughout.
				d.elemIdx = nil
			}
		}
	}
	n := p.numGates
	switch {
	case d.live.ring != nil: // difference updates: no state beside vals
	case d.finite != nil:
		d.addCounts = make([][]int64, n)
	default:
		d.addTree = make([][]T, n)
	}
	d.perms = make([]perm.Maintainer[T], len(p.perms))
	for id := 0; id < n; id++ {
		switch Kind(p.kind[id]) {
		case KindAdd:
			d.initAdder(id)
		case KindPerm:
			d.perms[p.arg[id]] = d.newMaintainer(id)
		}
	}
	d.wave = NewWorklist(p)
	d.refresh = d.refreshGate
	d.oldOf = make([]T, n)
	d.stamp = make([]uint64, n)
	d.gen = 1
	d.clock = new(mvcc.Clock)
	d.log = mvcc.NewLog[valUndo[T]](d.clock, int64(unsafe.Sizeof(valUndo[T]{})))
	return d
}

// initAdder builds what the strategy maintains for addition gate g.
func (d *Dynamic[T]) initAdder(g int) {
	children := d.p.ChildIDs(g)
	switch {
	case d.addCounts != nil:
		counts := make([]int64, len(d.elems))
		for _, ch := range children {
			counts[d.elemIndex(d.live.vals[ch])]++
		}
		d.addCounts[g] = counts
	case d.addTree != nil:
		// Balanced aggregation tree over the children values.
		size := 1
		for size < len(children) {
			size *= 2
		}
		tree := make([]T, 2*size)
		for i := range tree {
			tree[i] = d.s.Zero()
		}
		for i, ch := range children {
			tree[size+i] = d.live.vals[ch]
		}
		for i := size - 1; i >= 1; i-- {
			tree[i] = d.s.Add(tree[2*i], tree[2*i+1])
		}
		d.addTree[g] = tree
	}
}

// smallCarrierScanLimit is the carrier size below which elemIndex scans with
// Equal instead of using the rendering map: for a handful of elements the
// scan is both faster and allocation-free, while formatting would allocate a
// string per lookup on the update hot path.
const smallCarrierScanLimit = 32

// elemIndex resolves a carrier element to its index in elems: via the
// rendering map precomputed in NewDynamicProgram for large carriers, by a
// linear Equal scan otherwise (and as the fallback for elements the map
// misses).
func (d *Dynamic[T]) elemIndex(v T) int {
	if d.elemIdx != nil {
		if i, ok := d.elemIdx[d.s.Format(v)]; ok {
			return i
		}
	}
	for i, e := range d.elems {
		if d.s.Equal(e, v) {
			return i
		}
	}
	panic("circuit: value outside the finite semiring carrier")
}

// newMaintainer builds the matrix of permanent gate id from the current
// values and hands it to the strategy's maintainer, which adopts it.
func (d *Dynamic[T]) newMaintainer(id int) perm.Maintainer[T] {
	rows, cols := d.p.PermShape(id)
	m := perm.NewMatrix[T](d.s, rows, cols)
	d.p.ForEachPermEntry(id, func(row, col, gate int) { m.Set(row, col, d.live.vals[gate]) })
	switch {
	case d.live.ring != nil:
		return perm.NewRingDynamic(d.live.ring, m)
	case d.finite != nil:
		return perm.NewFiniteDynamic(d.finite, m)
	default:
		return perm.NewDynamic(d.s, m)
	}
}

// Clock returns the clock this state commits under.  Another engine state
// over the same Program may attach its undo log to it, to be written (Lock,
// Stage both, Commit, Unlock), pinned and read as one with this one.
func (d *Dynamic[T]) Clock() *mvcc.Clock { return d.clock }

// Live returns the values d maintains, for the goroutine that writes d to read
// without the clock; any other goroutine reads at a pinned epoch (At).
func (d *Dynamic[T]) Live() *Values[T] { return d.live }

// Value returns the current value of the output gate.
func (d *Dynamic[T]) Value() T { return d.GateValue(d.p.output) }

// GateValue returns the current value of an arbitrary gate.
func (d *Dynamic[T]) GateValue(id int) T {
	d.clock.RLock()
	v := d.live.vals[id]
	d.clock.RUnlock()
	return v
}

// SetInput sets the input labelled key to value and propagates the change:
// ApplyBatch of the one change.
func (d *Dynamic[T]) SetInput(key structure.WeightKey, value T) {
	d.ApplyBatch([]InputChange[T]{{Key: key, Value: value}})
}

// assign stores value at input gate id and enlists its parents in the
// pending wave.  It reports the value the gate held, or changed=false when id
// is -1 (an input the circuit does not reference) or already holds the value.
// The caller holds the clock and runs the wave.
func (d *Dynamic[T]) assign(id int, value T) (old T, changed bool) {
	if id < 0 || d.s.Equal(d.live.vals[id], value) {
		return old, false
	}
	old = d.live.vals[id]
	d.live.vals[id] = value
	d.markChanged(id, old)
	return old, true
}

// ApplyBatch decodes each change's label to its input gate once, applies every
// leaf change first and then runs one propagation wave in rank order, so gates
// shared by several changed inputs are recomputed once per batch instead of
// once per update.  Repeated changes to the same key coalesce (the last value
// wins); keys the circuit does not reference are ignored, matching the
// convention that weights outside the circuit cannot influence the query
// value.  Applying a batch is observationally equivalent to applying its
// changes one at a time; a batch that changes no input commits no epoch.
func (d *Dynamic[T]) ApplyBatch(changes []InputChange[T]) {
	d.clock.Lock()
	defer d.clock.Unlock()
	d.stage(len(changes), func(i int) (int, T) { return d.p.InputGate(changes[i].Key), changes[i].Value })
	d.clock.Commit()
}

// Stage is ApplyBatch on leaves already resolved to their gates, without the
// lock and without the commit, for a caller that holds Clock() exclusively
// and commits this state's changes together with another's.
func (d *Dynamic[T]) Stage(leaves []Leaf[T]) {
	d.stage(len(leaves), func(i int) (int, T) { return leaves[i].Gate, leaves[i].Value })
}

// stage assigns the n changes leaf yields and runs one wave if any was new.
func (d *Dynamic[T]) stage(n int, leaf func(i int) (gate int, value T)) {
	touched := false
	for i := 0; i < n; i++ {
		if _, changed := d.assign(leaf(i)); changed {
			touched = true
		}
	}
	if touched {
		d.runWave()
		d.clock.Touch()
	}
}

// markChanged records that gate g's value just changed from old and enlists
// g's parents in the wave.  A gate's value changes at most once per wave
// (children drain strictly before parents), so the generation stamp only
// guards against the same *input* being assigned twice within one batch: the
// first assignment records the pre-wave value and enlists the parents, later
// ones merely overwrite vals.  When snapshots are pinned the pre-wave
// value is also appended to the undo log — it is exactly the entry a reader
// at an older epoch needs to roll g back.
func (d *Dynamic[T]) markChanged(g int, old T) {
	if d.stamp[g] == d.gen {
		return
	}
	d.stamp[g] = d.gen
	d.oldOf[g] = old
	if d.log.Logging() {
		d.log.Append(valUndo[T]{gate: int32(g), old: old})
	}
	d.wave.Enlist(g)
}

// runWave drains the propagation wave, timing it only when a wave hook is
// installed so the common path never reads a clock.
func (d *Dynamic[T]) runWave() {
	if d.waveHook == nil {
		d.propagateWave()
		return
	}
	start := time.Now()
	d.propagateWave()
	d.waveHook(time.Since(start))
}

// propagateWave drains the worklist and closes the wave's generation.
func (d *Dynamic[T]) propagateWave() {
	d.wave.Drain(d.refresh)
	d.gen++
}

// refreshGate is the wave's per-gate step: recompute g from the slots whose
// child changed and, when its value moved, store it and pass the change on.
func (d *Dynamic[T]) refreshGate(g int, slots []int32) {
	newVal := d.recomputeGate(g, slots)
	if d.s.Equal(newVal, d.live.vals[g]) {
		return
	}
	old := d.live.vals[g]
	d.live.vals[g] = newVal
	d.markChanged(g, old)
}

// recomputeGate refreshes what is maintained for gate g given the slots whose
// child changed (the children's pre-wave values are in oldOf), and returns the
// new value of g.  A child assigned back to its pre-wave value within one
// batch is enlisted all the same, hence the Equal checks.
func (d *Dynamic[T]) recomputeGate(g int, slots []int32) T {
	kids := d.p.ChildIDs(g)
	switch Kind(d.p.kind[g]) {
	case KindAdd:
		return d.recomputeAdd(g, kids, slots)
	case KindMul:
		acc := d.s.One()
		for _, ch := range kids {
			acc = d.s.Mul(acc, d.live.vals[ch])
		}
		return acc
	case KindPerm:
		maintainer := d.perms[d.p.arg[g]]
		for _, slot := range slots {
			ch := kids[slot]
			if d.s.Equal(d.oldOf[ch], d.live.vals[ch]) {
				continue
			}
			row, col := d.p.PermCell(g, int(slot))
			maintainer.Update(row, col, d.live.vals[ch])
		}
		return maintainer.Value()
	default:
		panic(fmt.Sprintf("circuit: gate %d of kind %v cannot be recomputed dynamically", g, Kind(d.p.kind[g])))
	}
}

func (d *Dynamic[T]) recomputeAdd(g int, kids, slots []int32) T {
	switch {
	case d.live.ring != nil:
		// Each changed slot contributes new − old once per wave: children
		// drain strictly before parents, so oldOf holds the value this gate
		// last incorporated.
		acc := d.live.vals[g]
		for _, slot := range slots {
			ch := kids[slot]
			acc = d.live.ring.Add(acc, d.live.ring.Add(d.live.vals[ch], d.live.ring.Neg(d.oldOf[ch])))
		}
		return acc
	case d.finite != nil:
		counts := d.addCounts[g]
		for _, slot := range slots {
			ch := kids[slot]
			if d.s.Equal(d.oldOf[ch], d.live.vals[ch]) {
				continue
			}
			counts[d.elemIndex(d.oldOf[ch])]--
			counts[d.elemIndex(d.live.vals[ch])]++
		}
		acc := d.s.Zero()
		for i, cnt := range counts {
			if cnt > 0 {
				acc = d.s.Add(acc, semiring.ScalarMul(d.s, cnt, d.elems[i]))
			}
		}
		return acc
	default:
		tree := d.addTree[g]
		for _, slot := range slots {
			ch := kids[slot]
			if d.s.Equal(d.oldOf[ch], d.live.vals[ch]) {
				continue
			}
			pos := len(tree)/2 + int(slot)
			tree[pos] = d.live.vals[ch]
			for pos >= 2 {
				pos /= 2
				tree[pos] = d.s.Add(tree[2*pos], tree[2*pos+1])
			}
		}
		return tree[1]
	}
}
