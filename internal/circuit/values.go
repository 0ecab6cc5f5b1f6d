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
// Values in place; values nobody writes are read without any lock by any
// number of goroutines at once.
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
// ParallelEvaluateAllProgramCtx on workers goroutines: when ctx is cancelled
// it stops in bounded time and returns ctx's error.
func NewValues[T any](ctx context.Context, p *Program, s semiring.Semiring[T], v Valuation[T], workers int) (*Values[T], error) {
	vals, err := ParallelEvaluateAllProgramCtx(ctx, p, s, v, workers)
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
// safe from any number of goroutines while nobody writes the values.
func (v *Values[T]) EvalWith(leaves []Leaf[T]) T { return v.evalWith(nil, leaves) }

// evalWith is the one point evaluator, Theorem 8's read of f(ā) with the
// parameter weights raised at ā: the overrides seed a private overlay wave
// that propagates rank-ascending like the writer's, reading every gate it does
// not reach from vals as they stand, or through view at a pinned epoch (the
// caller holds the clock shared, view extended).  It writes nothing shared.
//
// Addition gates recompute by the cheapest applicable rule: a ring delta
// when the semiring subtracts; appending the new summands while every changed
// child was zero (the usual case for point-query toggles, valid in any
// semiring); a full fan-in re-sum otherwise.  Permanent gates recompute from
// scratch with the static sweep's evaluator, over at most twelve rows.
func (v *Values[T]) evalWith(view *mvcc.View[valUndo[T]], leaves []Leaf[T]) T {
	o := v.borrowOverlay(view)
	for _, l := range leaves {
		switch id := l.Gate; {
		case id < 0: // an input the circuit does not reference
		case o.state[id] == valued: // the same input again: the last value wins
			o.vals[id] = l.Value
		case !v.s.Equal(o.base(id), l.Value):
			o.enter(int32(id), valued)
			o.vals[id] = l.Value
			o.mark(id)
		}
	}
	o.run()
	out := o.value(v.p.output)
	o.release() // not deferred: a wave that panicked half-way is not pooled
	return out
}

// What one point read holds for a gate: nothing (it reads through base), the
// slots whose child changed (lists[list[g]]), or its value (vals[g]).
const (
	unread uint8 = iota
	waiting
	valued
)

// overlay is the working memory of one point read.  It indexes gates densely,
// but a read visits and resets only the gates it touches: O(touched gates).
type overlay[T any] struct {
	v     *Values[T]
	view  *mvcc.View[valUndo[T]]
	state []uint8
	vals  []T
	list  []int32
	// lists[:nlists] are this read's changed-slot lists; touched lists the
	// gates whose state it set; buckets[r] the waiting gates of rank r.
	lists   [][]int32
	nlists  int
	touched []int32
	buckets [][]int32
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
		n := v.p.numGates
		o = &overlay[T]{state: make([]uint8, n), vals: make([]T, n), list: make([]int32, n), buckets: make([][]int32, v.p.maxRank+1)}
	}
	o.v, o.view = v, view
	return o
}

// release resets the gates the read touched and returns o for the next read.
func (o *overlay[T]) release() {
	var zero T
	for _, g := range o.touched {
		o.state[g], o.vals[g] = unread, zero
	}
	o.touched, o.nlists = o.touched[:0], 0
	v := o.v
	o.v, o.view = nil, nil
	if !v.spare.CompareAndSwap(nil, o) {
		v.overlays.Put(o)
	}
}

// enter moves g into state, noting the first time the read touches it.
func (o *overlay[T]) enter(g int32, state uint8) {
	if o.state[g] == unread {
		o.touched = append(o.touched, g)
	}
	o.state[g] = state
}

// base reads a gate as the read found it, before any override: its
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
	if o.state[g] == valued {
		return o.vals[g]
	}
	return o.base(g)
}

// mark enlists the slots g is wired to after g's value changed.  Parents
// outrank g and ranks drain in increasing order, so a parent is waiting
// already, and is not queued again, or unread.
func (o *overlay[T]) mark(g int) {
	p := o.v.p
	for _, wire := range p.Wires(g) {
		parent := wire.Parent
		if o.state[parent] != waiting {
			o.enter(parent, waiting)
			o.buckets[p.rank[parent]] = append(o.buckets[p.rank[parent]], parent)
			if o.nlists == len(o.lists) {
				o.lists = append(o.lists, nil)
			}
			o.list[parent] = int32(o.nlists)
			o.lists[o.nlists] = o.lists[o.nlists][:0]
			o.nlists++
		}
		i := o.list[parent]
		o.lists[i] = append(o.lists[i], wire.Slot)
	}
}

// run drains the rank buckets in increasing order.
func (o *overlay[T]) run() {
	for r := 1; r < len(o.buckets); r++ {
		for _, g := range o.buckets[r] {
			newVal := o.recompute(int(g), o.lists[o.list[g]])
			if o.v.s.Equal(newVal, o.base(int(g))) {
				o.state[g] = unread
				continue
			}
			o.enter(g, valued)
			o.vals[g] = newVal
			o.mark(int(g))
		}
		o.buckets[r] = o.buckets[r][:0]
	}
}

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
