package agg

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestPreparedPointReadsAreConcurrent reads every element's point value from
// one Prepared on eight goroutines at once, the first read included, and
// holds each to the value a sequential reader of a second Prepared sees.
// Point reads on a Prepared take no lock and write nothing, so under -race
// this is also the check that they share no mutable state.
func TestPreparedPointReadsAreConcurrent(t *testing.T) {
	const readers = 8
	ctx := context.Background()
	for _, kind := range []string{"grid", "pref-attach"} {
		db, err := Generate(kind, 300, 5)
		if err != nil {
			t.Fatalf("Generate(%s): %v", kind, err)
		}
		for _, sem := range []string{"natural", "minplus"} {
			prepare := func() *Prepared {
				p, err := Open(db).Prepare(ctx, "sum y . [E(x,y)] * u(x) * u(y)", WithSemiring(sem))
				if err != nil {
					t.Fatalf("%s/%s: Prepare: %v", kind, sem, err)
				}
				return p
			}
			sequential, concurrent := prepare(), prepare()
			n := db.Elements()
			want := make([]Value, n)
			for x := range want {
				if want[x], err = sequential.Eval(ctx, x); err != nil {
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
						got, err := concurrent.Eval(ctx, x)
						if err == nil && got != want[x] {
							err = fmt.Errorf("Eval(%d) = %s, sequential %s", x, got, want[x])
						}
						if err != nil {
							errs <- fmt.Errorf("%s/%s, reader %d: %w", kind, sem, r, err)
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
