package circuit

import (
	"fmt"
	"math/bits"
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
// strategy needs, each addressed by the Program's slots, the counts and trees
// carved out of one arena.  A Dynamic built by NewDynamicPruned holds less: a
// gate its fixed inputs zero (a point query's parameters do so for most of its
// closure) is Zero in the values and has no counts, tree or maintainer, and no
// write visits it.
//
// A write is a point read that commits.  Its leaves seed the wave a point
// read runs (an overlay over the values and its Worklist), which visits the
// cone of the changed inputs in increasing rank order, every affected gate
// once however many of its children changed; a write differs only in how a
// gate is recomputed — from what its strategy maintains, which the wave
// updates in place — and in that it then copies the gates the wave changed
// into the values.  The writer keeps one overlay of its own, made by its first
// write and reused by every write after it, so steady-state writes allocate
// nothing on any strategy.
//
// # Goroutine safety
//
// The state is versioned by one mvcc.Clock, its own or the one it shares with
// the other engine state of a session: a mutation holds it exclusively from
// its first leaf assignment through its wave to its commit — one epoch, iff
// it changed something — and a snapshot resolves an epoch pinned on it under
// the shared lock, rolling dirtied slots back through the undo entries the
// commit logs while anything is pinned.  So any number of snapshots, one per
// reading goroutine, run concurrently with each other and with mutations.
// The live reads Value and GateValue take the shared lock too: they are safe
// from any goroutine, but not from a wave hook or other code already holding
// the clock.  Point reads never write: a read of the last commit runs on Live
// under the shared lock (or, for the writer, under its own), a read at a
// pinned epoch on a snapshot, and both through Values' one overlay evaluator.
type Dynamic[T any] struct {
	p *Program
	s semiring.Semiring[T]
	// zero marks the gates left out (NewDynamicPruned); nil leaves out none.
	zero []bool

	finite semiring.Finite[T] // nil unless the semiring is finite
	elems  []T                // carrier, when finite

	// live holds the gate values, rewritten by every commit.
	live *Values[T]

	// What the strategy maintains beside the values.  An addition gate keeps
	// nothing over a ring (difference updates); over a finite semiring,
	// counts[addAt[g]+i] is the number of g's slots holding elems[i];
	// otherwise trees[addAt[g]:] is a complete binary aggregation tree with
	// g's slots as leaves (treeLen).  perms[k] maintains the Program's k-th
	// permanent gate.
	addAt  []int32
	counts []int64
	trees  []T
	perms  []perm.Maintainer[T]

	// o is the overlay every write runs its wave in, made by the first write
	// (the point reads' overlays are the Values'); refresh is refreshGate,
	// bound once so a write allocates nothing.
	o       *overlay[T]
	refresh func(g int, slots []int32)

	// log is this state's undo history on clock: while readers are pinned,
	// every commit records each changed gate's value before it.
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
	return NewDynamicPruned(p, s, v, nil)
}

// NewDynamicPruned is NewDynamicProgram leaving out the gates zero marks
// (Program.ZeroedBy, or nil for none): each holds Zero at every epoch, and the
// Dynamic evaluates it never, keeps no state for it and enlists it in no wave.
// The caller vouches that the inputs marking them are 0 under v and that no
// write reaches them; a leaf change to a marked input panics.
func NewDynamicPruned[T any](p *Program, s semiring.Semiring[T], v Valuation[T], zero []bool) *Dynamic[T] {
	d := &Dynamic[T]{p: p, s: s, zero: zero}
	d.live = valuesOf(p, s, evaluateAllProgram(p, s, v, zero))
	if f, ok := s.(semiring.Finite[T]); ok {
		d.finite = f
		d.elems = f.Elements()
	}
	if d.live.ring == nil {
		d.initAdders()
	}
	d.perms = make([]perm.Maintainer[T], len(p.perms))
	for id := 0; id < p.numGates; id++ {
		if Kind(p.kind[id]) == KindPerm && !d.pruned(id) {
			d.perms[p.arg[id]] = d.newMaintainer(id)
		}
	}
	d.refresh = d.refreshGate
	d.clock = new(mvcc.Clock)
	d.log = mvcc.NewLog[valUndo[T]](d.clock, int64(unsafe.Sizeof(valUndo[T]{})))
	return d
}

// pruned reports whether gate g is one the Dynamic leaves out.
func (d *Dynamic[T]) pruned(g int) bool { return d.zero != nil && d.zero[g] }

// initAdders carves the counts or trees of every addition gate out of one
// arena, sized in a first pass, and fills them from the current values.
func (d *Dynamic[T]) initAdders() {
	p := d.p
	d.addAt = make([]int32, p.numGates)
	size := 0
	for id := 0; id < p.numGates; id++ {
		if Kind(p.kind[id]) == KindAdd && !d.pruned(id) {
			d.addAt[id] = int32(size)
			if d.finite != nil {
				size += len(d.elems)
			} else {
				size += treeLen(len(p.ChildIDs(id)))
			}
		}
	}
	if d.finite != nil {
		d.counts = make([]int64, size)
	} else {
		d.trees = make([]T, size)
	}
	for id := 0; id < p.numGates; id++ {
		if Kind(p.kind[id]) != KindAdd || d.pruned(id) {
			continue
		}
		children := p.ChildIDs(id)
		if d.finite != nil {
			counts := d.addCounts(id)
			for _, ch := range children {
				counts[d.elemIndex(d.live.vals[ch])]++
			}
			continue
		}
		tree := d.addTree(id, len(children))
		half := len(tree) / 2
		for i := half; i < len(tree); i++ {
			if i-half < len(children) {
				tree[i] = d.live.vals[children[i-half]]
			} else {
				tree[i] = d.s.Zero()
			}
		}
		for i := half - 1; i >= 1; i-- {
			tree[i] = d.s.Add(tree[2*i], tree[2*i+1])
		}
	}
}

// treeLen is the length of the aggregation tree over k slots: a complete
// binary tree, root at 1, whose leaves are the k slots padded with Zero to a
// power of two.
func treeLen(k int) int { return 2 << bits.Len(uint(k-1)) }

// addCounts returns addition gate g's value counts.
func (d *Dynamic[T]) addCounts(g int) []int64 {
	at := int(d.addAt[g])
	return d.counts[at : at+len(d.elems)]
}

// addTree returns the aggregation tree of addition gate g over its k slots.
func (d *Dynamic[T]) addTree(g, k int) []T {
	at := int(d.addAt[g])
	return d.trees[at : at+treeLen(k)]
}

// elemIndex resolves a carrier element to its index in elems by a linear
// Equal scan: the finite carriers registered are tiny (boolean has two
// elements), and the scan allocates nothing on the update hot path.
func (d *Dynamic[T]) elemIndex(v T) int {
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

// Live returns the values d maintains.  A goroutine reads them under the
// clock's shared lock, or without it when it is the one that writes d; a read
// that must outlast later writes goes through a pinned epoch (At).
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

// stage is a point read of the n changes leaf yields that commits: it seeds
// them into the write's overlay, drains the wave with the maintained recompute
// (refreshGate), and stores every gate the wave changed into the values,
// logging the value it replaces while readers are pinned.
func (d *Dynamic[T]) stage(n int, leaf func(i int) (gate int, value T)) {
	if d.o == nil {
		d.o = d.live.newOverlay()
		if d.zero != nil {
			d.o.wave.skipGates(d.zero)
		}
	}
	o := d.o
	for i := 0; i < n; i++ {
		if id, value := leaf(i); o.seed(id, value) && d.pruned(id) {
			d.o = nil // it holds the batch's earlier seeds: the next write makes a new one
			panic(fmt.Sprintf("circuit: write to input gate %d, which the Dynamic holds at zero", id))
		}
	}
	if len(o.touched) == 0 {
		return
	}
	d.runWave()
	for _, g := range o.touched {
		if d.log.Logging() {
			d.log.Append(valUndo[T]{gate: g, old: d.live.vals[g]})
		}
		d.live.vals[g] = o.vals[g]
	}
	o.reset()
	d.clock.Touch()
}

// runWave drains the write's wave, timing it only when a wave hook is
// installed so the common path never reads a clock.
func (d *Dynamic[T]) runWave() {
	if d.waveHook == nil {
		d.o.wave.Drain(d.refresh)
		return
	}
	start := time.Now()
	d.o.wave.Drain(d.refresh)
	d.waveHook(time.Since(start))
}

// refreshGate is a write's step for a waiting gate: recompute g from what is
// maintained for it, updated at the slots whose child changed.  A child's
// value before the write is o.base, after it o.value; a child set back to its
// value within one batch is enlisted all the same, hence the Equal checks.
func (d *Dynamic[T]) refreshGate(g int, slots []int32) {
	o := d.o
	kids := d.p.ChildIDs(g)
	switch {
	case Kind(d.p.kind[g]) == KindPerm:
		maintainer := d.perms[d.p.arg[g]]
		for _, slot := range slots {
			ch := int(kids[slot])
			if now := o.value(ch); !d.s.Equal(o.base(ch), now) {
				row, col := d.p.PermCell(g, int(slot))
				maintainer.Update(row, col, now)
			}
		}
		o.settle(g, maintainer.Value())
	case Kind(d.p.kind[g]) != KindAdd || d.live.ring != nil:
		// A product, or a sum over a ring: the read's rule (a ring delta).
		o.refreshRead(g, slots)
	case d.finite != nil:
		counts := d.addCounts(g)
		for _, slot := range slots {
			ch := int(kids[slot])
			if was, now := o.base(ch), o.value(ch); !d.s.Equal(was, now) {
				counts[d.elemIndex(was)]--
				counts[d.elemIndex(now)]++
			}
		}
		acc := d.s.Zero()
		for i, cnt := range counts {
			if cnt > 0 {
				acc = d.s.Add(acc, semiring.ScalarMul(d.s, cnt, d.elems[i]))
			}
		}
		o.settle(g, acc)
	default:
		tree := d.addTree(g, len(kids))
		for _, slot := range slots {
			ch := int(kids[slot])
			if now := o.value(ch); !d.s.Equal(o.base(ch), now) {
				pos := len(tree)/2 + int(slot)
				tree[pos] = now
				for pos >= 2 {
					pos /= 2
					tree[pos] = d.s.Add(tree[2*pos], tree[2*pos+1])
				}
			}
		}
		o.settle(g, tree[1])
	}
}
