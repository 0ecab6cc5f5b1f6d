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
	calls atomic.Int64 // rounds
	asked atomic.Int64 // watches, over all rounds
}

func (f *fakeEval) eval(watches []any) (uint64, []any, error) {
	f.calls.Add(1)
	f.asked.Add(int64(len(watches)))
	e := f.epoch.Load()
	out := make([]any, len(watches))
	for i, w := range watches {
		out[i] = fmt.Sprintf("%v@%d", w, e)
	}
	return e, out, nil
}

func (f *fakeEval) commit(h *Hub) uint64 {
	e := f.epoch.Add(1)
	h.Notify(e)
	return e
}

func next(t *testing.T, s *Sub) Delivery {
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

	sub, err := h.Subscribe("k", "w")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if r := next(t, sub); r.Epoch != 0 || r.State != "w@0" || r.Lag != 0 {
		t.Fatalf("initial = %+v, want the state at epoch 0, driven by no commit", r)
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
		s, err := h.Subscribe("k", "w")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs = append(subs, s)
	}
	for _, s := range subs {
		next(t, s) // drain initials
	}
	before, asked := f.calls.Load(), f.asked.Load()
	f.commit(h)
	for _, s := range subs {
		if r := next(t, s); r.Epoch != 1 {
			t.Fatalf("epoch = %d, want 1", r.Epoch)
		}
	}
	// One commit with 4 same-key subscribers must not take 4 evaluations:
	// few rounds, and one watch asked in each.
	rounds := f.calls.Load() - before
	if rounds > 2 {
		t.Fatalf("evaluator ran %d times for one commit, want ≤ 2", rounds)
	}
	if got := f.asked.Load() - asked; got != rounds {
		t.Fatalf("%d watches asked in %d rounds, want one per round for the one key", got, rounds)
	}
}

// TestHubSubscribeAfterUnobservedCommit is the lost update: a commit notified
// while nobody is subscribed leaves no trace in the hub (that is Notify's fast
// path), so whoever registers next must learn the source's epoch from the
// round the registration is owed, not from the next commit.
func TestHubSubscribeAfterUnobservedCommit(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()

	f.commit(h)
	sub, err := h.Subscribe("k", "w")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	d, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next after an unobserved commit: %v", err)
	}
	if d.Epoch != 1 || d.State != "w@1" || d.Lag != 0 {
		t.Fatalf("first delivery = %+v, want the state at epoch 1 with no lag to report", d)
	}
}

func TestHubCoalescesSlowSubscriber(t *testing.T) {
	f := &fakeEval{}
	h := NewHub(f.eval)
	defer h.Close()

	sub, err := h.Subscribe("k", "w")
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
			if want := fmt.Sprintf("w@%d", last); r.State != want {
				t.Fatalf("state = %v, want %s", r.State, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw final epoch %d", last)
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
	sub, err := h.Subscribe("k", "w")
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

	sub, err := h.Subscribe("k", "w")
	if err != nil {
		t.Fatal(err)
	}
	next(t, sub)
	last := f.commit(h)
	// Let the evaluator park the commit in the mailbox before closing.
	parked := func() bool {
		sub.mu.Lock()
		defer sub.mu.Unlock()
		return sub.has
	}
	for deadline := time.Now().Add(5 * time.Second); !parked(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("push never arrived")
		}
	}
	h.Close()
	if r := next(t, sub); r.Epoch != last {
		t.Fatalf("pending epoch = %d, want %d", r.Epoch, last)
	}
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after close = %v, want ErrClosed", err)
	}
	if _, err := h.Subscribe("k", "w"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after close = %v, want ErrClosed", err)
	}
}

func TestHubEvalErrorTerminatesSubscribers(t *testing.T) {
	boom := errors.New("boom")
	var fail atomic.Bool
	f := &fakeEval{}
	eval := func(watches []any) (uint64, []any, error) {
		if fail.Load() {
			return 0, nil, boom
		}
		return f.eval(watches)
	}
	h := NewHub(eval)
	defer h.Close()

	sub, err := h.Subscribe("k", "w")
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
		sub, err := h.Subscribe("k", "w")
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
