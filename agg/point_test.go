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
// circuit.  Later point reads recompute only the gates the parameter
// reaches — fewer semiring operations than the circuit has gates — and agree
// with each other; an In rebind, which
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
	if got, n := eval("third Eval", p, 1); got != want || n >= gates {
		t.Errorf("a third point read = %s after %d semiring operations on %d gates; want %s after a read", got, n, gates, want)
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
// The values of this input take about 40 B per gate with the read's overlay;
// a first point read that opens a session, or keeps aggregation trees or
// permanent maintainers beside the values, fails the bound of 48 B per gate.
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
	gates := p.Stats().Gates
	perGate := float64(read) / float64(gates)
	t.Logf("first Prepared.Eval: %d B over %d gates, %.1f B per gate", read, gates, perGate)
	if perGate > 48 {
		t.Errorf("the first point read allocates %.1f B per gate, want ≤ 48", perGate)
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

// TestPointReadsOutsideTheDomain pins what a point read at an element outside
// the domain {0..n-1} returns: the parameter weight is raised at no input, so
// the value is the semiring's zero, with no error, on a Prepared, a session
// and a Reader alike.
func TestPointReadsOutsideTheDomain(t *testing.T) {
	ctx := context.Background()
	db, err := Generate("pref-attach", 200, 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Open(db).Prepare(ctx, "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	r, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer r.Close()
	for _, read := range []struct {
		name string
		eval func(context.Context, ...int) (Value, error)
	}{{"Prepared.Eval", p.Eval}, {"Session.Eval", s.Eval}, {"Reader.Eval", r.Eval}} {
		for _, x := range []int{-1, db.Elements(), 1 << 40} {
			if got, err := read.eval(ctx, x); got != "0" || err != nil {
				t.Errorf("%s(%d) = %q, %v; want \"0\", nil", read.name, x, got, err)
			}
		}
	}
}

// TestFirstSessionReadsAreConcurrent makes the first point reads of a fresh
// session on eight goroutines at once — half live, half through a Reader of
// their own — and holds every read to a second Prepared's value.  The first
// read of a closure builds its table of parameter inputs; under -race this is
// the check that the table is published safely to the reads racing it.
func TestFirstSessionReadsAreConcurrent(t *testing.T) {
	const readers = 8
	ctx := context.Background()
	db, err := Generate("pref-attach", 300, 2)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	const query = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
	ref, err := Open(db).Prepare(ctx, query)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	n := db.Elements()
	want := make([]Value, n)
	for x := range want {
		if want[x], err = ref.Eval(ctx, x); err != nil {
			t.Fatalf("Eval(%d): %v", x, err)
		}
	}
	p, err := Open(db).Prepare(ctx, query)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		read := s.Eval
		if g%2 == 1 {
			r, err := s.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			defer r.Close()
			read = r.Eval
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < n; i++ {
				x := (i + g*n/readers) % n // each reader starts elsewhere
				got, err := read(ctx, x)
				if err == nil && got != want[x] {
					err = fmt.Errorf("Eval(%d) = %s, want %s", x, got, want[x])
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
