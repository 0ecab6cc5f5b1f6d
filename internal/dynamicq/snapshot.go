package dynamicq

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// reader reads the closure at a tuple of its parameters through circuit's one
// point evaluator, on vals as they stand (the caller excludes writers to them)
// or, when at is set, on a Dynamic at the epoch at pins.
type reader[T any] struct {
	sh   *Shared
	one  T
	vals *circuit.Values[T]
	at   *circuit.DynSnapshot[T]
}

// Value returns the value of the query at the given tuple of the free
// variables.  Following the proof of Theorem 8, the point query is k weight
// toggles: the fresh weights v_i are raised to 1 at the queried elements
// (ignored outside the universe) in the overlay, and the output is read there.
// Each v_i's input at its element is read from the Shared's dense table of
// parameter inputs, which the first point read of the closure builds.
func (r *reader[T]) Value(args ...structure.Element) (T, error) {
	if len(args) != len(r.sh.vars) {
		var zero T
		return zero, fmt.Errorf("dynamicq: query has %d free variables, got %d arguments", len(r.sh.vars), len(args))
	}
	var buf [4]circuit.Leaf[T]
	leaves := buf[:0]
	for i, a := range args {
		leaves = append(leaves, circuit.Leaf[T]{Gate: r.sh.inputsOf(i, a), Value: r.one})
	}
	return r.eval(leaves), nil
}

// ValueClosed returns the value of a closed query (no free variables).
func (r *reader[T]) ValueClosed() (T, error) {
	if len(r.sh.vars) != 0 {
		var zero T
		return zero, fmt.Errorf("dynamicq: query has free variables %v; use Value", r.sh.vars)
	}
	return r.eval(nil), nil
}

// eval reads the output under the leaves.
func (r *reader[T]) eval(leaves []circuit.Leaf[T]) T {
	if r.at != nil {
		return r.at.EvalWith(leaves)
	}
	return r.vals.EvalWith(leaves)
}

// Snapshot is a read handle on a Query at one committed epoch pinned on its
// clock: Value and ValueClosed answer as of that commit no matter how many
// weight or tuple updates the writer applies afterwards, where the Query's own
// Value answers as of whichever commit it runs after.  A Snapshot is intended
// for a single reader goroutine; take one per goroutine.
type Snapshot[T any] struct{ reader[T] }

// At returns a read handle for epoch, which the caller has pinned on Clock()
// and unpins when done with the handle — a pinned epoch retains undo history
// whose memory grows with every write.  It is O(1) and safe to call
// concurrently with the writer and with other snapshots.
func (q *Query[T]) At(epoch uint64) *Snapshot[T] {
	return &Snapshot[T]{reader[T]{sh: q.sh, one: q.one, at: q.dyn.At(epoch)}}
}

// Static is a read-only handle on a closure under fixed weights, evaluated
// once (circuit.Values): a read takes no lock, and any number of goroutines
// may read one Static at once.
type Static[T any] struct{ reader[T] }

// NewStatic evaluates the closure sh in the semiring s under the weights w,
// which it reads once and does not keep, with circuit.NewValues; when ctx is
// cancelled it stops in bounded time and returns ctx's error.
func NewStatic[T any](ctx context.Context, s semiring.Semiring[T], sh *Shared, w *structure.Weights[T]) (*Static[T], error) {
	vals, err := circuit.NewValues(ctx, sh.res.Program, s, compile.NewValuation(sh.res, s, w))
	if err != nil {
		return nil, err
	}
	return &Static[T]{reader[T]{sh: sh, one: s.One(), vals: vals}}, nil
}
