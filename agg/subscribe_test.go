package agg

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// pullSub starts a subscription and returns a pull-style reader plus its
// stop function; the context bounds every blocking read.
func pullSub(ctx context.Context, s *Session, opts ...SubscribeOption) (func() (Update, error, bool), func()) {
	return iter.Pull2(s.Subscribe(ctx, opts...))
}

// mustNext reads one update, failing the test on stream errors.
func mustNext(t *testing.T, next func() (Update, error, bool)) Update {
	t.Helper()
	u, err, ok := next()
	if !ok {
		t.Fatal("subscription ended early")
	}
	if err != nil {
		t.Fatalf("subscription error: %v", err)
	}
	return u
}

// awaitEpoch reads updates until one at or past the wanted epoch arrives
// (coalescing may skip intermediate epochs).
func awaitEpoch(t *testing.T, next func() (Update, error, bool), epoch uint64) Update {
	t.Helper()
	for {
		u := mustNext(t, next)
		if u.Epoch >= epoch {
			return u
		}
	}
}

func TestSubscribeValue(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	next, stop := pullSub(ctx, s)
	defer stop()
	u := mustNext(t, next)
	if u.Epoch != 0 || u.Kind != "value" || u.Value != "11" {
		t.Fatalf("initial update = %+v, want epoch 0 value 11", u)
	}
	if err := s.Set(SetWeight("w", []int{0, 1}, 10)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if u = awaitEpoch(t, next, 1); u.Value != "19" {
		t.Fatalf("after w(0,1)=10: value = %q at epoch %d, want 19", u.Value, u.Epoch)
	}
	if err := s.Set(SetWeight("w", []int{1, 2}, 0)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if u = awaitEpoch(t, next, 2); u.Value != "16" {
		t.Fatalf("after w(1,2)=0: value = %q at epoch %d, want 16", u.Value, u.Epoch)
	}
}

func TestSubscribePointCountDelta(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := eng.Prepare(ctx, "E(x,y) & S(x)", WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	point, stopPoint := pullSub(ctx, s, SubscribePoint(2, 1))
	defer stopPoint()
	count, stopCount := pullSub(ctx, s, SubscribeCount())
	defer stopCount()
	delta, stopDelta := pullSub(ctx, s, SubscribeDelta())
	defer stopDelta()

	if u := mustNext(t, point); u.Kind != "point" || u.Value != "0" {
		t.Fatalf("initial point(2,1) = %+v, want 0 (edge absent)", u)
	}
	if u := mustNext(t, count); u.Kind != "count" || u.Count != 3 {
		t.Fatalf("initial count = %+v, want 3", u)
	}
	ud := mustNext(t, delta)
	if ud.Kind != "delta" || !ud.Reset || len(ud.Answers) != 3 {
		t.Fatalf("initial delta = %+v, want reset with 3 answers", ud)
	}

	// Insert E(2,1): S(2) holds, so answer (2,1) appears everywhere.
	if err := s.Set(SetTuple("E", []int{2, 1}, true)); err != nil {
		t.Fatalf("SetTuple: %v", err)
	}
	if u := awaitEpoch(t, point, 1); u.Value != "1" {
		t.Fatalf("point(2,1) after insert = %+v, want 1", u)
	}
	if u := awaitEpoch(t, count, 1); u.Count != 4 {
		t.Fatalf("count after insert = %+v, want 4", u)
	}
	ud = awaitEpoch(t, delta, 1)
	if ud.Reset || len(ud.Added) != 1 || fmt.Sprint(ud.Added[0]) != "[2 1]" || len(ud.Removed) != 0 {
		t.Fatalf("delta after insert = %+v, want added [2 1]", ud)
	}

	// Remove E(2,0): answer (2,0) disappears.
	if err := s.Set(SetTuple("E", []int{2, 0}, false)); err != nil {
		t.Fatalf("SetTuple: %v", err)
	}
	if u := awaitEpoch(t, count, 2); u.Count != 3 {
		t.Fatalf("count after remove = %+v, want 3", u)
	}
	ud = awaitEpoch(t, delta, 2)
	if ud.Reset || len(ud.Removed) != 1 || fmt.Sprint(ud.Removed[0]) != "[2 0]" {
		t.Fatalf("delta after remove = %+v, want removed [2 0]", ud)
	}
}

func TestSubscribeResume(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if err := s.Set(SetWeight("w", []int{0, 1}, int64(10+i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}

	// Resuming at the current epoch owes no initial snapshot: the first
	// delivery is the next commit.
	short, shortCancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer shortCancel()
	next, stop := pullSub(short, s, SubscribeFrom(2))
	if _, err, ok := next(); !ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("resume-at-current yielded %v (ok=%v), want deadline while idle", err, ok)
	}
	stop()

	next, stop = pullSub(ctx, s, SubscribeFrom(2))
	defer stop()
	if err := s.Set(SetWeight("w", []int{1, 2}, 9)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if u := mustNext(t, next); u.Epoch != 3 {
		t.Fatalf("resume first delivery at epoch %d, want 3", u.Epoch)
	}

	// Resuming below the current epoch re-syncs with a fresh snapshot.
	old, stopOld := pullSub(ctx, s, SubscribeFrom(1))
	defer stopOld()
	if u := mustNext(t, old); u.Epoch != 3 {
		t.Fatalf("stale resume snapshot at epoch %d, want 3", u.Epoch)
	}
}

func TestSubscribeValidation(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	expectErr := func(s *Session, want error, opts ...SubscribeOption) {
		t.Helper()
		for _, err := range s.Subscribe(ctx, opts...) {
			if !errors.Is(err, want) {
				t.Errorf("Subscribe error = %v, want %v", err, want)
			}
			return
		}
		t.Error("Subscribe yielded no error")
	}

	closedP, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	closedS, err := closedP.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer closedS.Close()
	expectErr(closedS, ErrNotEnumerable, SubscribeCount())
	expectErr(closedS, ErrArgument, SubscribePoint(1))
	expectErr(closedS, ErrArgument, SubscribeCount(), SubscribeDelta())

	openP, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	openS, err := openP.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer openS.Close()
	expectErr(openS, ErrArgument)                 // free variables need a point
	expectErr(openS, ErrArgument, SubscribePoint( // wrong arity
		1, 2))

	nested := NSum([]string{"x", "y"},
		NTimes(NBracket(NAtom("E", "x", "y")), NWeight("w", "x", "y")))
	np, err := eng.Prepare(ctx, "nested edge sum", WithNested(nested))
	if err != nil {
		t.Fatalf("Prepare nested: %v", err)
	}
	ns, err := np.Session()
	if err != nil {
		t.Fatalf("Session nested: %v", err)
	}
	defer ns.Close()
	for u, err := range ns.Subscribe(ctx) {
		if err != nil || u.Value != "11" {
			t.Errorf("nested Subscribe first update = %+v, %v; want the value 11", u, err)
		}
		break
	}
}

func TestSubscribeSessionCloseEndsStream(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}

	next, stop := pullSub(ctx, s)
	defer stop()
	mustNext(t, next)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for {
		_, err, ok := next()
		if !ok {
			t.Fatal("stream ended without a terminal error")
		}
		if err != nil {
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("terminal error = %v, want ErrSessionClosed", err)
			}
			return
		}
	}
}

// TestSubscribeStress is the subscriber stress satellite: slow and fast
// subscribers under a sustained hot-key write stream must each observe a
// strictly monotone subsequence of committed epochs, end at the final epoch
// with the final value, and the slow ones must actually coalesce.
func TestSubscribeStress(t *testing.T) {
	eng := ringEngine(t, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	p, err := eng.Prepare(ctx, "sum x, y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	const commits = 300
	const slowSubs, fastSubs = 3, 3

	// expected[e] is the committed value at epoch e, recorded by the writer.
	expected := make([]Value, commits+1)
	v, err := s.Eval(ctx)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	expected[0] = v

	type obsv struct {
		last      Update
		epochs    []uint64
		values    []Value
		coalesced uint64
	}
	results := make([]obsv, slowSubs+fastSubs)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < slowSubs+fastSubs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slow := i < slowSubs
			<-start
			for u, err := range s.Subscribe(ctx) {
				if err != nil {
					t.Errorf("subscriber %d: %v", i, err)
					return
				}
				results[i].epochs = append(results[i].epochs, u.Epoch)
				results[i].values = append(results[i].values, u.Value)
				results[i].coalesced += u.Coalesced
				results[i].last = u
				if u.Epoch == commits {
					return
				}
				if slow {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(i)
	}
	close(start)

	for e := uint64(1); e <= commits; e++ {
		hot := int(e) % 8 // hammer a few hot edges
		if err := s.Set(SetWeight("w", []int{hot, hot + 1}, int64(e%100))); err != nil {
			t.Fatalf("Set at epoch %d: %v", e, err)
		}
		v, err := s.Eval(ctx)
		if err != nil {
			t.Fatalf("Eval at epoch %d: %v", e, err)
		}
		expected[e] = v
		// Pace the writer so the evaluator keeps up per-epoch and the slow
		// subscribers' mailboxes (not just the evaluator's latest-wins
		// target) do the coalescing.
		time.Sleep(200 * time.Microsecond)
	}
	wg.Wait()

	var slowCoalesced uint64
	for i, r := range results {
		if len(r.epochs) == 0 {
			t.Fatalf("subscriber %d saw nothing", i)
		}
		for j := 1; j < len(r.epochs); j++ {
			if r.epochs[j] <= r.epochs[j-1] {
				t.Fatalf("subscriber %d: epochs not strictly monotone: %d then %d", i, r.epochs[j-1], r.epochs[j])
			}
		}
		if got := r.epochs[len(r.epochs)-1]; got != commits {
			t.Errorf("subscriber %d ended at epoch %d, want %d", i, got, commits)
		}
		if r.last.Value != expected[commits] {
			t.Errorf("subscriber %d final value = %q, want %q", i, r.last.Value, expected[commits])
		}
		// Every delivered value must match what the writer recorded for
		// that epoch.
		for j, e := range r.epochs {
			if want := expected[e]; r.values[j] != want {
				t.Errorf("subscriber %d at epoch %d: value %q, want %q", i, e, r.values[j], want)
			}
		}
		if i < slowSubs {
			slowCoalesced += r.coalesced
		}
	}
	if slowCoalesced == 0 {
		t.Error("slow subscribers never coalesced; backpressure path untested")
	}
}

// TestSubscribeWriterZeroAllocOverhead pins the acceptance criterion that
// with zero subscribers the live subsystem adds zero allocations to the
// steady-state update path: the allocation count of Set with a hub present
// (after the last subscriber left) must equal the no-hub baseline exactly.
// (The hub's Notify itself is proven 0-alloc in internal/live; the baseline
// facade allocations come from tuple keying and semiring parsing that
// predate this subsystem.)
func TestSubscribeWriterZeroAllocOverhead(t *testing.T) {
	eng := ringEngine(t, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := eng.Prepare(ctx, "sum x, y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	tuples := make([][]int, 16)
	for i := range tuples {
		tuples[i] = []int{i, (i + 1) % 16}
	}
	warm := func() {
		for round := 0; round < 3; round++ {
			for i, tup := range tuples {
				if err := s.Set(SetWeight("w", tup, int64(round+i+1))); err != nil {
					t.Fatalf("Set: %v", err)
				}
			}
		}
	}
	measure := func() float64 {
		warm()
		step := 0
		return testing.AllocsPerRun(200, func() {
			step++
			_ = s.Set(SetWeight("w", tuples[step%16], int64(step%5+1)))
		})
	}

	baseline := measure()

	// One subscriber comes and goes; the hub stays but must cost nothing.
	next, stop := pullSub(ctx, s)
	mustNext(t, next)
	stop()

	if withHub := measure(); withHub != baseline {
		t.Errorf("Set with idle hub allocates %.2f objects/update, baseline %.2f; live adds %+.2f, want 0",
			withHub, baseline, withHub-baseline)
	}
}

// marksSession opens a session of "S(x)", S dynamic, on a four-element
// database where S = {0}: its answer set is whatever a test writes to S.
func marksSession(t *testing.T, ctx context.Context) *Session {
	t.Helper()
	eng, err := OpenReader(strings.NewReader("domain 4\nrel S 1\nS 0\n"))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	p, err := eng.Prepare(ctx, "S(x)", WithDynamic("S"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSubscribeDeltaNetMerge: a delta subscriber that does not read while
// the answer set goes {0} → {0,1,2} → {0,1,3} is told the difference from
// what it was last given — 1 and 3 arrive, neither is ever taken back, and 2,
// which came and went between two of its reads, is never mentioned when the
// two commits reach it as one delivery.
func TestSubscribeDeltaNetMerge(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := marksSession(t, ctx)

	delta, stopDelta := pullSub(ctx, s, SubscribeDelta())
	defer stopDelta()
	count, stopCount := pullSub(ctx, s, SubscribeCount())
	defer stopCount()
	if u := mustNext(t, delta); !u.Reset || fmt.Sprint(u.Answers) != "[[0]]" {
		t.Fatalf("initial delta = %+v, want a reset to {0}", u)
	}

	if err := s.ApplyBatch([]Change{SetTuple("S", []int{1}, true), SetTuple("S", []int{2}, true)}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if err := s.ApplyBatch([]Change{SetTuple("S", []int{2}, false), SetTuple("S", []int{3}, true)}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	// The count subscriber is served by the same rounds: once it holds epoch
	// 2, that round is in (or about to enter) the delta mailbox too.
	if u := awaitEpoch(t, count, 2); u.Count != 3 {
		t.Fatalf("count at epoch 2 = %+v, want 3", u)
	}

	have := map[int]bool{0: true}
	for deliveries := 1; ; deliveries++ {
		u := mustNext(t, delta)
		if u.Reset {
			t.Fatalf("delta %+v is a reset; a subscriber that was given a set gets differences", u)
		}
		for _, a := range u.Added {
			have[a[0]] = true
		}
		for _, a := range u.Removed {
			if a[0] == 1 || a[0] == 3 {
				t.Fatalf("delta %+v takes back %d, which is in the final set", u, a[0])
			}
			delete(have, a[0])
		}
		if u.Epoch < 2 {
			continue // read a round early; the next one completes it
		}
		if deliveries == 1 && (fmt.Sprint(u.Added) != "[[1] [3]]" || u.Removed != nil) {
			t.Fatalf("both commits in one delivery = %+v, want added [[1] [3]] and nothing removed", u)
		}
		if fmt.Sprint(have) != "map[0:true 1:true 3:true]" {
			t.Fatalf("deltas fold to %v, want {0,1,3}", have)
		}
		return
	}
}

// TestSubscribeDeltaResume: a delta subscriber resuming at the current epoch
// hears nothing until the next commit and is then sent an increment — the
// state it swallowed is its baseline — while one resuming from a stale epoch
// is re-synced with a Reset.
func TestSubscribeDeltaResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := marksSession(t, ctx)
	if err := s.Set(SetTuple("S", []int{1}, true)); err != nil {
		t.Fatalf("Set: %v", err)
	}

	idle, idleCancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer idleCancel()
	next, stop := pullSub(idle, s, SubscribeDelta(), SubscribeFrom(1))
	if u, err, ok := next(); !ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("resume at the current epoch yielded %+v, %v (ok=%v); want nothing while idle", u, err, ok)
	}
	stop()

	stale, stopStale := pullSub(ctx, s, SubscribeDelta(), SubscribeFrom(0))
	defer stopStale()
	if u := mustNext(t, stale); u.Epoch != 1 || !u.Reset || fmt.Sprint(u.Answers) != "[[0] [1]]" {
		t.Fatalf("stale resume = %+v, want a reset to {0,1} at epoch 1", u)
	}

	// A subscription registers on its first pull, which then blocks, so the
	// commit it waits for has to come from here after a pause; when the pause
	// was too short the subscriber was in fact stale and says so with a Reset,
	// and the round is played again with a longer one.
	for pause := 20 * time.Millisecond; ; pause *= 4 {
		epoch := s.Epoch()
		firsts := make(chan Update, 2)
		for _, from := range []uint64{epoch, epoch + 99} {
			go func() {
				for u, err := range s.Subscribe(ctx, SubscribeDelta(), SubscribeFrom(from)) {
					if err != nil {
						t.Errorf("resume from %d: %v", from, err)
					}
					firsts <- u
					return
				}
			}()
		}
		time.Sleep(pause)
		if err := s.Set(SetTuple("S", []int{0}, epoch%2 == 0)); err != nil {
			t.Fatalf("Set: %v", err)
		}
		late := false
		for range 2 {
			u := <-firsts
			if u.Reset && pause < time.Second {
				late = true
			} else if u.Epoch != epoch+1 || u.Reset || len(u.Added)+len(u.Removed) != 1 {
				t.Fatalf("resume at epoch %d: first delivery = %+v, want the one-tuple increment of epoch %d", epoch, u, epoch+1)
			}
		}
		if !late {
			return
		}
	}
}

// TestSubscribeRacingCommitIsNotLost: a client resuming from the epoch it
// read a moment ago (an SSE reconnect with Last-Event-ID, during a write) must
// be told about a commit that lands between that read and its registration.
// The hub's writer fast path records nothing while nobody is subscribed, so
// this holds only because a registration is always owed one evaluation at
// whatever epoch the session then has.  Each round is a fresh session, one
// Set and one Subscribe, with a swept delay before the Set.
func TestSubscribeRacingCommitIsNotLost(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	// A lost update never arrives (until some later commit), so the patience
	// only bounds how long a failure takes to show.
	const patience = 300 * time.Millisecond
	lost := 0
	for i := range rounds {
		s, err := p.Session()
		if err != nil {
			t.Fatalf("Session: %v", err)
		}
		from := s.Epoch()
		got := make(chan uint64, 1)
		sctx, stop := context.WithCancel(ctx)
		go func() {
			defer close(got)
			for u, err := range s.Subscribe(sctx, SubscribeFrom(from)) {
				if err == nil {
					got <- u.Epoch
				}
				return
			}
		}()
		for spin := i % 512; spin > 0; spin-- {
			runtime.Gosched()
		}
		if err := s.Set(SetWeight("w", []int{0, 1}, 10)); err != nil {
			t.Fatalf("Set: %v", err)
		}
		select {
		case e := <-got:
			if e != 1 {
				t.Fatalf("round %d: first delivery at epoch %d, want 1", i, e)
			}
		case <-time.After(patience):
			lost++
		}
		stop()
		<-got
		s.Close()
	}
	if lost > 0 {
		t.Fatalf("%d of %d subscribers were never told about the commit that raced their registration", lost, rounds)
	}
}

// TestSessionCloseLeavesNoGoroutines: closing a session with open
// subscriptions ends their streams and the hub's evaluator.
func TestSessionCloseLeavesNoGoroutines(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := eng.Prepare(ctx, "E(x,y) & S(x)", WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base := runtime.NumGoroutine()
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	var streams sync.WaitGroup
	started := make(chan struct{}, 2)
	for _, opt := range []SubscribeOption{SubscribePoint(2, 0), SubscribeDelta()} {
		streams.Add(1)
		go func() {
			defer streams.Done()
			var last error
			for _, err := range s.Subscribe(ctx, opt) {
				if last = err; err == nil {
					started <- struct{}{}
				}
			}
			if !errors.Is(last, ErrSessionClosed) {
				t.Errorf("stream ended with %v, want ErrSessionClosed", last)
			}
		}()
	}
	<-started
	<-started
	if n := runtime.NumGoroutine(); n < base+3 {
		t.Fatalf("%d goroutines with two subscribers and a hub open, baseline %d", n, base)
	}
	s.Close()
	streams.Wait()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 2s after Session.Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
}

// TestSubscribeCanceledContextTouchesNothing: a context that is over before
// Subscribe is ranged is reported after validation and before the session is
// asked for anything — which is how /subscribe probes for argument errors
// before it commits to a 200 — so it creates no hub and costs no evaluation.
func TestSubscribeCanceledContextTouchesNothing(t *testing.T) {
	eng := testEngine(t)
	p, err := eng.Prepare(context.Background(), edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for u, err := range s.Subscribe(ctx) {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Subscribe on a canceled context yielded %+v, %v; want context.Canceled", u, err)
		}
	}
	for _, err := range s.Subscribe(ctx, SubscribeCount()) {
		if !errors.Is(err, ErrNotEnumerable) {
			t.Fatalf("validation must still come first: got %v, want ErrNotEnumerable", err)
		}
	}
	if s.hub.Load() != nil {
		t.Fatal("a canceled Subscribe created the session's hub")
	}
}
