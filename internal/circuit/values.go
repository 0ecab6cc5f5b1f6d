package circuit

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/mvcc"
	"repro/internal/semiring"
)

// Values is the value of every gate of a Program in one semiring under one
// valuation, the state every point read runs on.  A Dynamic rewrites its live
// Values in place, committing what a wave over them computed; values nobody
// writes are read without any lock by any number of goroutines at once.
type Values[T any] struct {
	p    *Program
	s    semiring.Semiring[T]
	ring semiring.Ring[T] // nil unless the semiring is a ring
	vals []T
	// Point reads' scratch: spare keeps one overlay alive across garbage
	// collections; overlays pools those of concurrent readers.
	spare    atomic.Pointer[overlay[T]]
	overlays sync.Pool
}

// NewValues evaluates every gate of p in s under the valuation v once, with
// ParallelEvaluateAllProgramCtx: when ctx is cancelled it stops in bounded
// time and returns ctx's error.
func NewValues[T any](ctx context.Context, p *Program, s semiring.Semiring[T], v Valuation[T]) (*Values[T], error) {
	vals, err := ParallelEvaluateAllProgramCtx(ctx, p, s, v)
	if err != nil {
		return nil, err
	}
	return valuesOf(p, s, vals), nil
}

// valuesOf wraps the gate values vals of p in s.
func valuesOf[T any](p *Program, s semiring.Semiring[T], vals []T) *Values[T] {
	if p.output < 0 {
		panic("circuit: no output gate set")
	}
	ring, _ := s.(semiring.Ring[T])
	return &Values[T]{p: p, s: s, ring: ring, vals: vals}
}

// EvalWith evaluates the output under temporary input overrides (evalWith),
// safe from any number of goroutines while nobody writes the values: a
// Dynamic's live values under its clock's shared lock, or values nobody
// writes at all.
func (v *Values[T]) EvalWith(leaves []Leaf[T]) T { return v.evalWith(nil, leaves) }

// evalWith is the one point evaluator, Theorem 8's read of f(ā) with the
// parameter weights raised at ā: the overrides seed a wave over the cone of
// the inputs they change, the wave a Dynamic's write runs too, and every gate
// it does not reach is read from vals as they stand, or through view at a
// pinned epoch (the caller holds the clock shared, view extended).  A read is a
// write that does not commit: it writes nothing shared.
//
// Addition gates recompute by the cheapest applicable rule: a ring delta
// when the semiring subtracts; appending the new summands while every changed
// child was zero (the usual case for point-query toggles, valid in any
// semiring); a full fan-in re-sum otherwise.  Permanent gates recompute from
// scratch with the static sweep's evaluator, over at most twelve rows.
func (v *Values[T]) evalWith(view *mvcc.View[valUndo[T]], leaves []Leaf[T]) T {
	o := v.borrowOverlay(view)
	for _, l := range leaves {
		o.seed(l.Gate, l.Value)
	}
	o.wave.Drain(o.refresh)
	out := o.value(v.p.output)
	o.release() // not deferred: a wave that panicked half-way is not pooled
	return out
}

// overlay is the working memory of one wave, a point read's or a write's: the
// gates whose value the wave changed, and the Worklist that schedules it.  It
// indexes gates densely, but a wave visits and resets only the gates it
// reaches: O(touched gates).
type overlay[T any] struct {
	v       *Values[T]
	view    *mvcc.View[valUndo[T]]
	wave    Worklist
	refresh func(g int, slots []int32) // refreshRead, bound once so a read allocates nothing
	// valued[g] marks the gates this wave changed, to vals[g]; touched lists
	// them in the order they changed.
	valued  []bool
	vals    []T
	touched []int32
	// Operands of the permanent gate being recomputed, gathered in entry
	// order, the identity index that addresses them, and the DP's buffers.
	permOps []T
	permIdx []int32
	permSc  permScratch[T]
}

// borrowOverlay takes an empty overlay for one read through view (or none).
func (v *Values[T]) borrowOverlay(view *mvcc.View[valUndo[T]]) *overlay[T] {
	o := v.spare.Swap(nil)
	if o == nil {
		o, _ = v.overlays.Get().(*overlay[T])
	}
	if o == nil {
		o = v.newOverlay()
	}
	o.view = view
	return o
}

// newOverlay returns an empty overlay over v.
func (v *Values[T]) newOverlay() *overlay[T] {
	n := v.p.numGates
	o := &overlay[T]{v: v, wave: *NewWorklist(v.p), valued: make([]bool, n), vals: make([]T, n)}
	o.refresh = o.refreshRead
	return o
}

// reset forgets the gates the wave changed, leaving o empty.
func (o *overlay[T]) reset() {
	var zero T
	for _, g := range o.touched {
		o.valued[g], o.vals[g] = false, zero
	}
	o.touched = o.touched[:0]
}

// release resets a read's overlay and returns it for the next read.
func (o *overlay[T]) release() {
	o.reset()
	o.view = nil
	if !o.v.spare.CompareAndSwap(nil, o) {
		o.v.overlays.Put(o)
	}
}

// base reads a gate as the wave found it, before any override: its
// first-recorded undo value if the writer dirtied it since the view's pin.
func (o *overlay[T]) base(g int) T {
	if o.view != nil {
		if u, ok := o.view.Lookup(int32(g)); ok {
			return u.old
		}
	}
	return o.v.vals[g]
}

// value reads a gate under the overrides.
func (o *overlay[T]) value(g int) T {
	if o.valued[g] {
		return o.vals[g]
	}
	return o.base(g)
}

// seed overrides input gate id with value, and reports whether the wave now
// holds an override for it.  An id of -1 (an input the circuit does not
// reference) and a value the gate already holds are ignored; the same input
// again takes the last value.
func (o *overlay[T]) seed(id int, value T) bool {
	switch {
	case id < 0:
		return false
	case o.valued[id]:
		o.vals[id] = value
	case o.v.s.Equal(o.base(id), value):
		return false
	default:
		o.set(id, value)
	}
	return true
}

// settle ends gate g's turn in the wave with its recomputed value: a value
// other than the one g held is recorded and passed on to g's parents.
func (o *overlay[T]) settle(g int, val T) {
	if !o.v.s.Equal(val, o.base(g)) {
		o.set(g, val)
	}
}

// set gives g the value val for the rest of the wave and enlists its parents.
func (o *overlay[T]) set(g int, val T) {
	o.valued[g], o.vals[g] = true, val
	o.touched = append(o.touched, int32(g))
	o.wave.Enlist(g)
}

// refreshRead is a read's step for a waiting gate.
func (o *overlay[T]) refreshRead(g int, slots []int32) { o.settle(g, o.recompute(g, slots)) }

// recompute computes gate g's value under the overlay from its children,
// given the slots whose child the current wave changed.
func (o *overlay[T]) recompute(g int, slots []int32) T {
	v := o.v
	switch Kind(v.p.kind[g]) {
	case KindMul:
		acc := v.s.One()
		for _, ch := range v.p.ChildIDs(g) {
			acc = v.s.Mul(acc, o.value(int(ch)))
		}
		return acc
	case KindAdd:
		return o.recomputeAdd(g, slots)
	case KindPerm:
		return o.recomputePerm(g)
	default:
		panic("circuit: overlay cannot recompute gate kind")
	}
}

// recomputeAdd applies evalWith's rules slot by slot, one summand per wire.
func (o *overlay[T]) recomputeAdd(g int, slots []int32) T {
	v := o.v
	kids := v.p.ChildIDs(g)
	acc := o.base(g)
	for _, slot := range slots {
		ch := int(kids[slot])
		old := o.base(ch)
		switch {
		case v.ring != nil:
			acc = v.ring.Add(acc, v.ring.Add(o.value(ch), v.ring.Neg(old)))
		case semiring.IsZero(v.s, old):
			acc = v.s.Add(acc, o.value(ch))
		default: // a non-zero summand to replace, and no subtraction: re-sum
			acc = v.s.Zero()
			for _, ch := range kids {
				acc = v.s.Add(acc, o.value(int(ch)))
			}
			return acc
		}
	}
	return acc
}

// recomputePerm gathers the gate's operands through the overlay and runs the
// shared permanent evaluator over them.
func (o *overlay[T]) recomputePerm(g int) T {
	v := o.v
	kids := v.p.ChildIDs(g)
	for len(o.permIdx) < len(kids) {
		o.permIdx = append(o.permIdx, int32(len(o.permIdx)))
	}
	o.permOps = o.permOps[:0]
	for _, ch := range kids {
		o.permOps = append(o.permOps, o.value(int(ch)))
	}
	return evaluateProgramPerm(v.p, v.s, g, o.permIdx[:len(kids)], o.permOps, &o.permSc)
}
