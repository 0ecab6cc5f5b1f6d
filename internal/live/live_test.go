package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEval evaluates keys from an atomic "committed" epoch so tests can play
// writer without a real session.
type fakeEval struct {
	epoch atomic.Uint64
	calls atomic.Int64
}

func (f *fakeEval) eval(reqs []Request) (uint64, []Result, error) {
	f.calls.Add(1)
	e := f.epoch.Load()
	out := make([]Result, len(reqs))
	for i, rq := range reqs {
		r := Result{Epoch: e}
		switch rq.Key.Kind {
		case KindValue, KindPoint:
			r.Value = fmt.Sprintf("v%d@%s", e, rq.Key.Args)
		case KindCount:
			r.Count = int64(e)
		}
		out[i] = r
	}
	return e, out, nil
}

func (f *fakeEval) commit(h *Hub) uint64 {
	e := f.epoch.Add(1)
	h.Notify(e)
	return e
}

func next(t *testing.T, s *Sub) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := s.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return r
}

func TestHubInitialAndCommits(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()

	sub, err := h.Subscribe(Key{Kind: KindValue}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if r := next(t, sub); r.Epoch != 0 || r.Value != "v0@" {
		t.Fatalf("initial = %+v, want epoch 0", r)
	}
	f.commit(h)
	if r := next(t, sub); r.Epoch != 1 {
		t.Fatalf("after commit: epoch = %d, want 1", r.Epoch)
	}
}

func TestHubSharesEvaluationPerKey(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()

	var subs []*Sub
	for i := 0; i < 4; i++ {
		s, err := h.Subscribe(Key{Kind: KindValue}, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs = append(subs, s)
	}
	for _, s := range subs {
		next(t, s) // drain initials
	}
	before := f.calls.Load()
	f.commit(h)
	for _, s := range subs {
		if r := next(t, s); r.Epoch != 1 {
			t.Fatalf("epoch = %d, want 1", r.Epoch)
		}
	}
	// One commit with 4 same-key subscribers must not take 4 evaluations.
	if got := f.calls.Load() - before; got > 2 {
		t.Fatalf("evaluator ran %d times for one commit, want ≤ 2", got)
	}
}

func TestHubCoalescesSlowSubscriber(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()

	sub, err := h.Subscribe(Key{Kind: KindCount}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub)

	const commits = 50
	var last uint64
	for i := 0; i < commits; i++ {
		last = f.commit(h)
	}
	// Wait until the evaluator has caught up with the final epoch, then read
	// once: the mailbox must hold exactly the latest epoch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := next(t, sub)
		if r.Epoch == last {
			if r.Count != int64(last) {
				t.Fatalf("count = %d, want %d", r.Count, last)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw final epoch %d", last)
		}
	}
}

func TestHubResumeSkipsInitial(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()
	f.epoch.Store(7)

	// Resuming from the current epoch owes the client nothing until a new
	// commit arrives.
	sub, err := h.Subscribe(Key{Kind: KindValue}, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if r, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next = %+v, %v; want deadline (no update owed)", r, err)
	}
	f.commit(h)
	if r := next(t, sub); r.Epoch != 8 {
		t.Fatalf("epoch = %d, want 8", r.Epoch)
	}
}

func TestHubDeltaNetMerge(t *testing.T) {
	// Scripted delta evaluator over answer sets E0={0}, E1={0,1,2},
	// E2={0,1,3}.  Like the real one it diffs against the state at its own
	// previous evaluation, so coalesced epochs yield net deltas.
	sets := [][][]int{{{0}}, {{0}, {1}, {2}}, {{0}, {1}, {3}}}
	var epoch atomic.Uint64
	prev := -1 // evaluator-goroutine only, like real delta state
	eval := func(reqs []Request) (uint64, []Result, error) {
		e := epoch.Load()
		cur := tupleMap(sets[e])
		out := make([]Result, len(reqs))
		for i, rq := range reqs {
			r := Result{Epoch: e}
			if prev >= 0 {
				old := tupleMap(sets[prev])
				for k, t := range cur {
					if _, ok := old[k]; !ok {
						r.Added = append(r.Added, t)
					}
				}
				for k, t := range old {
					if _, ok := cur[k]; !ok {
						r.Removed = append(r.Removed, t)
					}
				}
			}
			r.Increments = prev >= 0
			if rq.Full || prev < 0 {
				r.Full, r.Answers = true, sets[e]
			}
			out[i] = r
		}
		prev = int(e)
		return e, out, nil
	}
	h := NewHub(eval)
	defer h.Close()

	sub, err := h.Subscribe(Key{Kind: KindDelta}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	init := next(t, sub)
	if !init.Full || len(init.Answers) != 1 {
		t.Fatalf("initial = %+v, want full reset with 1 answer", init)
	}

	epoch.Store(1)
	h.Notify(1)
	epoch.Store(2)
	h.Notify(2)
	// Read until the mailbox has merged through epoch 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := next(t, sub)
		if r.Epoch == 2 {
			// Net of epochs 1..2 (possibly from a partial read at epoch 1).
			wantAdd := map[string]bool{"1": true, "3": true}
			for _, a := range r.Added {
				delete(wantAdd, EncodeArgs(a))
			}
			if len(wantAdd) != 0 && !r.Full {
				t.Fatalf("merged delta %+v missing adds %v", r, wantAdd)
			}
			for _, rm := range r.Removed {
				if k := EncodeArgs(rm); k == "1" || k == "3" {
					t.Fatalf("merged delta wrongly removes %s", k)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("never reached epoch 2")
		}
	}
}

func TestHubNotifyZeroSubscribersAllocsZero(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()
	var e uint64
	allocs := testing.AllocsPerRun(1000, func() {
		e++
		h.Notify(e)
	})
	if allocs != 0 {
		t.Fatalf("Notify with 0 subscribers allocates %.1f/op, want 0", allocs)
	}

	// The same must hold after a subscriber came and went.
	sub, err := h.Subscribe(Key{Kind: KindValue}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	next(t, sub)
	sub.Close()
	allocs = testing.AllocsPerRun(1000, func() {
		e++
		h.Notify(e)
	})
	if allocs != 0 {
		t.Fatalf("Notify after unsubscribe allocates %.1f/op, want 0", allocs)
	}
}

func TestHubCloseDeliversPendingThenTerminates(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)

	sub, err := h.Subscribe(Key{Kind: KindValue}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	next(t, sub)
	last := f.commit(h)
	// Let the evaluator park the commit in the mailbox before closing.
	deadline := time.Now().Add(5 * time.Second)
	for h.Pushes() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("push never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	h.Close()
	if r := next(t, sub); r.Epoch != last {
		t.Fatalf("pending epoch = %d, want %d", r.Epoch, last)
	}
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after close = %v, want ErrClosed", err)
	}
	if _, err := h.Subscribe(Key{Kind: KindValue}, 0, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after close = %v, want ErrClosed", err)
	}
}

func TestHubEvalErrorTerminatesSubscribers(t *testing.T) {
	boom := errors.New("boom")
	var fail atomic.Bool
	f := &fakeEval{}
	eval := func(reqs []Request) (uint64, []Result, error) {
		if fail.Load() {
			return 0, nil, boom
		}
		return f.eval(reqs)
	}
	h := NewHub(eval)
	defer h.Close()

	sub, err := h.Subscribe(Key{Kind: KindValue}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub)
	fail.Store(true)
	f.commit(h)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, boom) {
		t.Fatalf("Next = %v, want boom", err)
	}
}

func TestHubMonotoneUnderConcurrentWriter(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()

	const commits = 400
	const readers = 6
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		slow := i%2 == 0
		sub, err := h.Subscribe(Key{Kind: KindCount}, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sub *Sub, slow bool) {
			defer wg.Done()
			defer sub.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var prev uint64
			seen := false
			for {
				r, err := sub.Next(ctx)
				if err != nil {
					errs <- err
					return
				}
				if seen && r.Epoch <= prev {
					errs <- fmt.Errorf("epoch went %d -> %d", prev, r.Epoch)
					return
				}
				prev, seen = r.Epoch, true
				if r.Epoch == commits {
					errs <- nil
					return
				}
				if slow {
					time.Sleep(500 * time.Microsecond)
				}
			}
		}(sub, slow)
	}
	for i := 0; i < commits; i++ {
		f.commit(h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
