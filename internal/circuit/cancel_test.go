package circuit_test

import (
	"context"
	"errors"
	"math/rand"
	. "repro/internal/circuit"
	"sync"
	"testing"
	"time"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// slowValuation returns a valuation that busy-waits briefly per input (a
// sleep would round up to the scheduler's timer granularity), so an
// evaluation over many inputs takes long enough to be cancelled mid-flight.
func slowValuation(d time.Duration) Valuation[int64] {
	return func(in Input) (int64, bool) {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		return 1, true
	}
}

// wideCircuit builds a two-level circuit with n inputs feeding n unary add
// gates feeding one output sum: wide levels, so the parallel engine fans out.
func wideCircuit(n int) *Circuit {
	c := NewBuilder()
	adds := make([]int, n)
	for i := 0; i < n; i++ {
		in := c.Input("w", structure.Ordinary, structure.Tuple{i})
		adds[i] = c.Add(in)
	}
	c.SetOutput(c.Add(adds...))
	return c
}

// TestParallelEvaluateCtxCompletesUncancelled checks the ctx variant is
// equivalent to the plain engine when the context never fires.
func TestParallelEvaluateCtxCompletesUncancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 8, 300)
	p := c.Program()
	v := func(in Input) (int64, bool) { return 2, true }
	want := EvaluateAllProgram[int64](p, semiring.Nat, v)
	for _, workers := range []int{1, 2, 4} {
		got, err := ParallelEvaluateOn(context.Background(), p, semiring.Nat, v, workers)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("workers=%d: gate %d = %d, want %d", workers, id, got[id], want[id])
			}
		}
	}
}

// TestParallelEvaluateCtxCancelStops checks a cancelled context stops a
// running parallel evaluation in bounded time, both on the calling goroutine
// and fanned out, under -race.
func TestParallelEvaluateCtxCancelStops(t *testing.T) {
	const n = 4096
	p := wideCircuit(n).Program()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		var evalErr error
		start := time.Now()
		go func() {
			defer wg.Done()
			_, evalErr = ParallelEvaluateOn(ctx, p, semiring.Nat, slowValuation(50*time.Microsecond), workers)
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		wg.Wait()
		elapsed := time.Since(start)
		if !errors.Is(evalErr, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, evalErr)
		}
		// Uncancelled, the input level alone costs n·50µs ≈ 205ms of work;
		// after the cancel each worker may finish at most one check stride
		// (256 gates ≈ 13ms) before noticing, so a cancelled run must stop
		// well before the full-run time.
		if elapsed > 120*time.Millisecond {
			t.Errorf("workers=%d: cancelled evaluation still took %v", workers, elapsed)
		}
	}
}

// slowAddNat is ℕ with a busy-wait in Add, so the cost of a gate grows with
// its fan-in.
type slowAddNat struct{ semiring.Natural }

func (slowAddNat) Add(a, b int64) int64 {
	deadline := time.Now().Add(25 * time.Microsecond)
	for time.Now().Before(deadline) {
	}
	return a + b
}

// TestParallelEvaluateCtxCancelStopsInWideGates checks that the cancellation
// stride counts wires, not gates: a level of 128 additions of fan-in 128 is
// ≈410 ms of work in 128 gates, which a check every 256 gates would never
// interrupt.  Each sum reads all of 129 inputs but one, sum i leaving out input
// i, so the builder, which interns equal gates, keeps 128 distinct sums.
func TestParallelEvaluateCtxCancelStopsInWideGates(t *testing.T) {
	const n = 128
	c := NewBuilder()
	inputs := make([]int, n+1)
	for i := range inputs {
		inputs[i] = c.Input("w", structure.Ordinary, structure.Tuple{i})
	}
	sums := make([]int, n)
	for i := range sums {
		children := make([]int, n)
		for j := range children {
			children[j] = inputs[(i+1+j)%(n+1)]
		}
		sums[i] = c.Add(children...)
	}
	c.SetOutput(c.Add(sums...))
	p := c.Program()
	one := func(Input) (int64, bool) { return 1, true }
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := ParallelEvaluateOn[int64](ctx, p, slowAddNat{}, one, workers)
			errCh <- err
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		err := <-errCh
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A stride is two of these gates, ≈6.4 ms of work per worker.
		if elapsed > 120*time.Millisecond {
			t.Errorf("workers=%d: cancelled evaluation still took %v", workers, elapsed)
		}
	}
}

// TestParallelEvaluateCtxPreCancelled checks an already-cancelled context
// fails fast without evaluating anything.
func TestParallelEvaluateCtxPreCancelled(t *testing.T) {
	p := wideCircuit(64).Program()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	v := func(in Input) (int64, bool) { calls++; return 1, true }
	if _, err := ParallelEvaluateAllProgramCtx(ctx, p, semiring.Nat, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("pre-cancelled evaluation touched %d inputs", calls)
	}
}
