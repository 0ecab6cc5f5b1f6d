package agg

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPreparedPointReadsAreConcurrent reads every element's point value from
// one Prepared on eight goroutines at once, the first read included, and
// holds each to the value a sequential reader of a second Prepared sees.  A
// closed query, which every Eval evaluates, is read the same way, once per
// element.  Point reads on a Prepared take no lock and write nothing, so
// under -race this is also the check that they share no mutable state.
func TestPreparedPointReadsAreConcurrent(t *testing.T) {
	const readers = 8
	ctx := context.Background()
	for _, kind := range []string{"grid", "pref-attach"} {
		db, err := Generate(kind, 300, 5)
		if err != nil {
			t.Fatalf("Generate(%s): %v", kind, err)
		}
		for _, sem := range []string{"natural", "minplus"} {
			for _, query := range []string{"sum y . [E(x,y)] * u(x) * u(y)", "sum x, y . [E(x,y)] * u(x) * u(y)"} {
				prepare := func() *Prepared {
					p, err := Open(db).Prepare(ctx, query, WithSemiring(sem))
					if err != nil {
						t.Fatalf("%s/%s: Prepare: %v", kind, sem, err)
					}
					return p
				}
				sequential, concurrent := prepare(), prepare()
				// args are read i's arguments: element i, or none for the
				// closed query.
				args := func(i int) []int {
					if len(sequential.FreeVars()) == 0 {
						return nil
					}
					return []int{i}
				}
				n := db.Elements()
				want := make([]Value, n)
				for x := range want {
					if want[x], err = sequential.Eval(ctx, args(x)...); err != nil {
						t.Fatalf("%s/%s: Eval(%d): %v", kind, sem, x, err)
					}
				}
				var wg sync.WaitGroup
				errs := make(chan error, readers)
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							x := (i + r*n/readers) % n // each reader starts elsewhere
							got, err := concurrent.Eval(ctx, args(x)...)
							if err == nil && got != want[x] {
								err = fmt.Errorf("Eval(%d) = %s, sequential %s", x, got, want[x])
							}
							if err != nil {
								errs <- fmt.Errorf("%s/%s %q, reader %d: %w", kind, sem, query, r, err)
								return
							}
						}
					}(r)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			}
		}
	}
}

// countingNat is ℕ counting the additions and multiplications it performs, so
// a test can tell whether an Eval evaluated anything.
type countingNat struct {
	natOps
	ops *atomic.Int64
}

func (c countingNat) Add(a, b int64) int64 { c.ops.Add(1); return a + b }
func (c countingNat) Mul(a, b int64) int64 { c.ops.Add(1); return a * b }

var (
	countingOps          atomic.Int64
	registerCountingOnce sync.Once
)

// registerCounting registers countingNat as "counting-natural" and returns
// its operation counter.
func registerCounting() *atomic.Int64 {
	registerCountingOnce.Do(func() {
		MustRegister(NewSemiring[int64]("counting-natural", countingNat{ops: &countingOps},
			func(_ string, _ []int, v int64) int64 { return v }))
	})
	return &countingOps
}

// TestPreparedEvaluatesOnce: only a point query's first Eval evaluates the
// circuit.  A later point read, and one of a Workers view of the Prepared,
// recompute only the gates the parameter reaches — fewer semiring operations
// than the circuit has gates — and agree with the first; an In rebind, which
// evaluates in a carrier of its own, evaluates the circuit again.
func TestPreparedEvaluatesOnce(t *testing.T) {
	ops := registerCounting()
	ctx := context.Background()
	db, err := Generate("bounded-degree", 600, 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Open(db).Prepare(ctx, "sum y . [E(x,y)] * w(x,y)", WithSemiring("counting-natural"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	gates := int64(p.Stats().Gates)
	// eval reads q at x and returns its value and the operations it performed.
	eval := func(name string, q *Prepared, x int) (Value, int64) {
		t.Helper()
		before := ops.Load()
		v, err := q.Eval(ctx, x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v, ops.Load() - before
	}
	if _, n := eval("first Eval", p, 0); n < gates/2 {
		t.Fatalf("the first Eval performed %d semiring operations on %d gates; want an evaluation", n, gates)
	}
	want, n := eval("second Eval", p, 1)
	if n >= gates {
		t.Errorf("a second point read performed %d semiring operations on %d gates; want a read", n, gates)
	}
	if got, n := eval("Workers(2).Eval", p.Workers(2), 1); got != want || n >= gates {
		t.Errorf("Workers(2).Eval = %s after %d semiring operations on %d gates; want %s after a read", got, n, gates, want)
	}
	rebound, err := p.In("counting-natural")
	if err != nil {
		t.Fatalf("In: %v", err)
	}
	if got, n := eval("In(...).Eval", rebound, 1); got != want || n < gates/2 {
		t.Errorf("an In rebind's first Eval = %s after %d semiring operations on %d gates; want %s after an evaluation", got, n, gates, want)
	}
}

// TestPreparedPointReadAllocations guards what a point read of a Prepared
// builds: the gate values of the shared program, once, and no dynamic state.
// A Session maintains aggregation trees and permanent structures beside the
// same values (on this input about 2.7 MB against 96 KB for the values), so a
// first point read that opens one fails the bound.
func TestPreparedPointReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ctx := context.Background()
	db, err := Generate("pref-attach", 1500, 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Open(db).Prepare(ctx, "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	read := allocatedBytes(func() {
		if _, err := p.Eval(ctx, 0); err != nil {
			t.Fatal(err)
		}
	})
	var s *Session
	open := allocatedBytes(func() {
		if s, err = p.Session(); err != nil {
			t.Fatal(err)
		}
	})
	defer s.Close()
	t.Logf("first Prepared.Eval: %d B; Session: %d B", read, open)
	if 4*read >= open {
		t.Errorf("the first point read allocates %d B, not under a quarter of a session's %d B", read, open)
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
