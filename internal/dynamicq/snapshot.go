package dynamicq

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/structure"
)

// reader reads the closure at a tuple of its parameters on one side of the
// clock.  ev is either the live evaluator, whose EvalWith toggles in place
// under one exclusive section of the clock (the writer's logarithmic path),
// or a snapshot of it at a pinned epoch, whose EvalWith runs on a private
// overlay and so neither blocks the writer nor is disturbed by it.  Either
// way no snapshot ever observes the transient toggles.
type reader[T any] struct {
	sh  *Shared
	one T
	ev  interface {
		Value() T
		EvalWith(leaves []circuit.Leaf[T]) T
	}
	// point is the reusable override buffer behind Value's point queries.
	point []circuit.Leaf[T]
}

// Value returns the value of the query at the given tuple of the free
// variables.  Following the proof of Theorem 8, the point query is simulated
// by k temporary weight updates: the fresh weights v_i are raised to 1 at
// the queried elements, the output is read, and the weights are reset.
func (r *reader[T]) Value(args ...structure.Element) (T, error) {
	var err error
	r.point, err = point(r.sh, r.one, args, r.point[:0])
	if err != nil {
		var zero T
		return zero, err
	}
	if len(args) == 0 {
		return r.ev.Value(), nil
	}
	return r.ev.EvalWith(r.point), nil
}

// ValueClosed returns the value of a closed query (no free variables).
func (r *reader[T]) ValueClosed() (T, error) {
	if len(r.sh.vars) != 0 {
		var zero T
		return zero, fmt.Errorf("dynamicq: query has free variables %v; use Value", r.sh.vars)
	}
	return r.ev.Value(), nil
}

// Snapshot is a read handle on a Query at one committed epoch pinned on its
// clock: Value and ValueClosed answer as of that commit no matter how many
// weight or tuple updates the writer applies afterwards.  A Snapshot is
// intended for a single reader goroutine; take one per goroutine.
type Snapshot[T any] struct{ reader[T] }

// At returns a read handle for epoch, which the caller has pinned on Clock()
// and unpins when done with the handle — a pinned epoch retains undo history
// whose memory grows with every write.  It is O(1) and safe to call
// concurrently with the writer and with other snapshots.
func (q *Query[T]) At(epoch uint64) *Snapshot[T] {
	return &Snapshot[T]{reader[T]{sh: q.sh, one: q.one, ev: q.dyn.At(epoch)}}
}
