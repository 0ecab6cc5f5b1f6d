package agg

import (
	"context"
	"iter"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/parser"
)

// pairedSession opens the session that keeps two engine states over one
// Program: "E(x,y) & S(x)" on testDB with S dynamic, so the value state
// decides membership of one tuple and the answer state enumerates them all.
func pairedSession(t *testing.T) (*Engine, *Session) {
	t.Helper()
	eng := testEngine(t)
	p, err := eng.Prepare(context.Background(), "E(x,y) & S(x)", WithDynamic("S"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return eng, s
}

// TestEpochCountsWritesThatChangeState pins the one definition of an epoch on
// every kind of session: a write commits exactly one epoch iff it changed
// some engine state, a Reader's epoch is the session's at the pin, and a
// no-op write pushes nothing to subscribers.
func TestEpochCountsWritesThatChangeState(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tc := range []struct {
		name, query  string
		opts         []Option
		sub          SubscribeOption
		change, noop Change // change moves the state; noop re-asserts the database as loaded
	}{
		{"expression", "sum y . [E(x,y)] * w(x,y)", nil, SubscribePoint(0),
			SetWeight("w", []int{0, 1}, 9), SetWeight("w", []int{1, 2}, 3)},
		{"formula", "E(x,y) & S(x)", nil, SubscribeCount(),
			Change{}, SetWeight("w", []int{1, 2}, 7)}, // no dynamic relation: nothing a write could change
		{"formula+dynamic", "E(x,y) & S(x)", []Option{WithDynamic("S")}, SubscribeDelta(),
			SetTuple("S", []int{1}, true), SetTuple("S", []int{0}, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := testEngine(t).Prepare(ctx, tc.query, tc.opts...)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			s, err := p.Session()
			if err != nil {
				t.Fatalf("Session: %v", err)
			}
			defer s.Close()
			next, stop := pullSub(ctx, s, tc.sub)
			defer stop()
			if u := mustNext(t, next); u.Epoch != 0 {
				t.Fatalf("initial update at epoch %d, want 0", u.Epoch)
			}
			epochs := func(want uint64, when string) {
				t.Helper()
				r, err := s.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				defer r.Close()
				if s.Epoch() != want || r.Epoch() != want {
					t.Fatalf("%s: Session.Epoch %d, Reader.Epoch %d, want %d", when, s.Epoch(), r.Epoch(), want)
				}
			}
			write := func(batch bool, ch Change) {
				t.Helper()
				var err error
				if batch {
					err = s.ApplyBatch([]Change{ch, ch})
				} else {
					err = s.Set(ch)
				}
				if err != nil {
					t.Fatalf("write %+v: %v", ch, err)
				}
			}

			epochs(0, "fresh")
			write(false, tc.noop)
			write(true, tc.noop)
			epochs(0, "after no-op writes")
			if tc.change.Weight == "" && tc.change.Rel == "" {
				return
			}
			// One real write and three re-assertions of it: one epoch, everywhere.
			write(false, tc.change)
			write(false, tc.change)
			write(true, tc.change)
			write(false, tc.change)
			epochs(1, "after one real and three no-op writes")
			// The subscriber saw exactly that one commit: nothing was evaluated and
			// folded on behalf of the no-op writes before or after it.
			if u := mustNext(t, next); u.Epoch != 1 || u.Coalesced != 0 {
				t.Fatalf("subscriber got epoch %d with %d coalesced, want epoch 1 with 0", u.Epoch, u.Coalesced)
			}
			if s.RetainedUndoBytes() != 0 {
				t.Fatalf("retained %d undo bytes with no Reader open", s.RetainedUndoBytes())
			}
		})
	}
}

// TestCommitIsDecidedByTheDatabase pins the commit rule where the compiler
// and the database disagree: elements 3 and 4 lie on no 2-path, so the circuit
// of the 2-path query wires no input gate for u there, yet a Set that changes
// u(4) — a weight the query mentions — is a commit like any other: exactly one
// epoch, delivered to a point subscriber.  Re-asserting the value commits
// nothing, and neither does a weight symbol the query does not mention.
func TestCommitIsDecidedByTheDatabase(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	eng, err := OpenReader(strings.NewReader(`
domain 5
rel E 2
wsym u 1
wsym w 2
E 0 1
E 1 2
E 3 4
u 0 1
u 1 2
u 2 3
u 3 4
u 4 5
`))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	p, err := eng.Prepare(ctx, "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	next, stop := pullSub(ctx, s, SubscribePoint(0))
	defer stop()
	if u := mustNext(t, next); u.Epoch != 0 || u.Value != "6" {
		t.Fatalf("initial update %+v, want value 6 at epoch 0", u)
	}
	set := func(ch Change, want uint64) {
		t.Helper()
		if err := s.Set(ch); err != nil {
			t.Fatalf("Set %+v: %v", ch, err)
		}
		if got := s.Epoch(); got != want {
			t.Fatalf("after Set %+v: epoch %d, want %d", ch, got, want)
		}
	}
	set(SetWeight("u", []int{4}, 9), 1)
	if u := mustNext(t, next); u.Epoch != 1 || u.Value != "6" || u.Coalesced != 0 {
		t.Fatalf("subscriber got %+v, want value 6 at epoch 1", u)
	}
	set(SetWeight("u", []int{4}, 9), 1)    // re-asserted
	set(SetWeight("w", []int{3, 4}, 7), 1) // not in the query
	set(SetWeight("u", []int{2}, 4), 2)    // and a weight the circuit does read
	if u := mustNext(t, next); u.Epoch != 2 || u.Value != "8" {
		t.Fatalf("subscriber got %+v, want value 8 at epoch 2", u)
	}
}

// TestSnapshotIsOnePin counts pins on the session clock: a Reader on a
// session with two engine states is one pin, returned by Close, and a
// Session.Eval leaves none behind.
func TestSnapshotIsOnePin(t *testing.T) {
	ctx := context.Background()
	_, s := pairedSession(t)
	pins := func(want int, when string) {
		t.Helper()
		if got := s.clock.Pins(); got != want {
			t.Fatalf("%s: %d pins on the session clock, want %d", when, got, want)
		}
	}
	pins(0, "fresh")
	if _, err := s.Eval(ctx, 0, 1); err != nil {
		t.Fatalf("Eval: %v", err)
	}
	pins(0, "after Eval")
	r, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	pins(1, "with one Reader open")
	for _, present := range []bool{false, true, false} {
		if err := s.Set(SetTuple("S", []int{0}, present)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if s.RetainedUndoBytes() == 0 {
		t.Fatal("no undo history retained under an open Reader")
	}
	if v, err := r.Eval(ctx, 0, 1); err != nil || v != "1" {
		t.Fatalf("pinned Eval(0,1) = %q, %v; want 1", v, err)
	}
	if n, err := r.AnswerCount(ctx); err != nil || n != 3 {
		t.Fatalf("pinned AnswerCount = %d, %v; want 3", n, err)
	}
	r.Close()
	r.Close() // idempotent: the pin is returned once
	pins(0, "after Close")
	if got := s.RetainedUndoBytes(); got != 0 {
		t.Fatalf("retained %d undo bytes after Close, want 0", got)
	}
}

// TestReaderNeverSplitsValueAndAnswers is the regression test for the split
// view: while a writer toggles S(0), every Reader must agree with itself —
// Eval(0,1) is non-zero exactly when Enumerate yields (0,1), and AnswerCount
// is the brute-force count at that membership — and a point and a delta
// subscriber of the same session must never be told different things about
// one epoch.  With one pin set per engine state (the parent of this test) a
// commit landing between the two pins split the Reader within a few hundred
// snapshots.
func TestReaderNeverSplitsValueAndAnswers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	eng, s := pairedSession(t)

	// Brute-force answer counts with and without S(0).
	phi, err := parser.ParseFormula("E(x,y) & S(x)")
	if err != nil {
		t.Fatal(err)
	}
	var wantCount [2]int64
	for in := range wantCount {
		edit := eng.db.a.Edit()
		if in == 0 {
			if err := edit.RemoveTuple("S", 0); err != nil {
				t.Fatal(err)
			}
		}
		wantCount[in] = int64(len(logic.Answers(phi, edit.Build(), []string{"x", "y"})))
	}

	var wg sync.WaitGroup
	stopWriter := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for present := false; ; present = !present {
			select {
			case <-stopWriter:
				return
			default:
			}
			if err := s.Set(SetTuple("S", []int{0}, present)); err != nil {
				t.Errorf("Set: %v", err)
				return
			}
		}
	}()

	// Two subscribers of the same session record what they are told about the
	// membership of (0,1) per epoch.
	var mu sync.Mutex
	told := map[uint64][2]int{} // epoch → 1+membership as seen by [point, delta]; 0 = not seen
	record := func(who int, epoch uint64, in bool) {
		mu.Lock()
		defer mu.Unlock()
		e := told[epoch]
		e[who] = 1
		if in {
			e[who] = 2
		}
		if e[0] != 0 && e[1] != 0 && e[0] != e[1] {
			t.Errorf("epoch %d: point subscriber saw membership %v, delta subscriber %v", epoch, e[0] == 2, e[1] == 2)
		}
		told[epoch] = e
	}
	subCtx, stopSubs := context.WithCancel(ctx)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for u, err := range s.Subscribe(subCtx, SubscribePoint(0, 1)) {
			if err != nil {
				return
			}
			record(0, u.Epoch, u.Value != "0")
		}
	}()
	go func() {
		defer wg.Done()
		in := false
		has01 := func(as []Answer) bool {
			for _, a := range as {
				if a[0] == 0 && a[1] == 1 {
					return true
				}
			}
			return false
		}
		for u, err := range s.Subscribe(subCtx, SubscribeDelta()) {
			if err != nil {
				return
			}
			switch {
			case u.Reset:
				in = has01(u.Answers)
			case has01(u.Added):
				in = true
			case has01(u.Removed):
				in = false
			}
			record(1, u.Epoch, in)
		}
	}()

	snapshots := 20000
	if testing.Short() {
		snapshots = 2000
	}
	for i := 0; i < snapshots && !t.Failed(); i++ {
		r, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		v, err := r.Eval(ctx, 0, 1)
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		in, enumerated := 0, false
		if v != "0" {
			in = 1
		}
		for a, err := range r.Enumerate(ctx) {
			if err != nil {
				t.Fatalf("Enumerate: %v", err)
			}
			enumerated = enumerated || (a[0] == 0 && a[1] == 1)
		}
		count, err := r.AnswerCount(ctx)
		if err != nil {
			t.Fatalf("AnswerCount: %v", err)
		}
		if enumerated != (in == 1) || count != wantCount[in] {
			t.Errorf("snapshot %d at epoch %d: Eval(0,1) = %s, Enumerate has (0,1): %v, AnswerCount %d (brute force: %d)",
				i, r.Epoch(), v, enumerated, count, wantCount[in])
		}
		r.Close()
	}
	close(stopWriter)
	stopSubs()
	wg.Wait()
}

// TestWritePathAllocations guards what one unobserved, unpinned write and one
// point read allocate (go1.24, no race detector).  A write is translated into
// circuit inputs once: a weight Set formats its tuple key and nothing else
// (no key is formatted and parsed back for the embedding), a membership Set
// over one-digit elements allocates nothing (the role is a field, not a
// "rel±:" name built per shadow), and a batch adds only its typed copy.  The
// reads keep the one-clock bounds: the shared clock may not cost the read
// path a heap pin.
func TestWritePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ctx := context.Background()
	check := func(what string, bound float64, f func(step int)) {
		t.Helper()
		step := 0
		for ; step < 64; step++ { // grow every reusable buffer first
			f(step)
		}
		got := testing.AllocsPerRun(500, func() { step++; f(step) })
		t.Logf("%s: %.0f allocs (bound %.0f)", what, got, bound)
		if got > bound {
			t.Errorf("%s allocates %.0f objects, want ≤ %.0f", what, got, bound)
		}
	}

	ring := make([][]int, 16)
	for i := range ring {
		ring[i] = []int{i, (i + 1) % 16}
	}
	p, err := ringEngine(t, 16).Prepare(ctx, "sum y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	expr, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer expr.Close()
	check("expression Session.Set", 0, func(i int) { _ = expr.Set(SetWeight("w", ring[i%16], int64(i%5+1))) })
	check("expression Session.Eval", 26, func(i int) { _, _ = expr.Eval(ctx, i%16) })

	_, paired := pairedSession(t)
	elems := [][]int{{0}, {1}, {2}, {3}}
	check("paired Session.Set", 0, func(i int) { _ = paired.Set(SetTuple("S", elems[i%4], i%3 == 0)) })
	check("paired Session.Eval", 26, func(i int) { _, _ = paired.Eval(ctx, 0, 1) })
	batch := []Change{SetTuple("S", elems[0], true), SetTuple("S", elems[1], false), SetTuple("S", elems[3], true)}
	check("paired Session.ApplyBatch(3)", 1, func(i int) {
		batch[0].Present = i%2 == 0
		_ = paired.ApplyBatch(batch)
	})
}

// enumerateDB prepares the benchmark's 2-path query "E(x,y) & E(y,z) & S(x)"
// on bounded-degree n = 1,200 (2,879 answers) twice: static, and with S
// dynamic in a session pinned by a Reader one write stale.
func enumerateDB(t *testing.T) (static *Prepared, stale *Reader) {
	t.Helper()
	ctx := context.Background()
	db, err := Generate("bounded-degree", 1200, 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	const query = "E(x,y) & E(y,z) & S(x)"
	if static, err = Open(db).Prepare(ctx, query); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	dyn, err := Open(db).Prepare(ctx, query, WithDynamic("S"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := dyn.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	if stale, err = s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	t.Cleanup(func() { stale.Close() })
	before := s.Epoch()
	if err := s.Set(SetTuple("S", []int{0}, !db.HasTuple("S", 0))); err != nil || s.Epoch() != before+1 {
		t.Fatalf("Set: %v, epoch %d → %d", err, before, s.Epoch())
	}
	return static, stale
}

// TestEnumerateAllocations guards the answer cursor's constant garbage: a
// cursor is a stack of nodes over the enumeration structure, reset in place,
// so one full enumeration pass allocates the caller's tuple per answer and
// the stack once — at most 2 objects per answer, live and through a Reader
// pinned one write stale.  (Rebuilding a monomial per answer cost ≈62.)
func TestEnumerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	static, stale := enumerateDB(t)
	for _, tc := range []struct {
		name   string
		stream func(context.Context) iter.Seq2[Answer, error]
	}{{"Prepared.Enumerate", static.Enumerate}, {"Reader.Enumerate one write stale", stale.Enumerate}} {
		answers := 0
		got := testing.AllocsPerRun(5, func() {
			answers = 0
			for _, err := range tc.stream(context.Background()) {
				if err != nil {
					t.Fatal(err)
				}
				answers++
			}
		})
		perAnswer := got / float64(max(answers, 1))
		t.Logf("%s: %.0f allocs over %d answers, %.3f per answer", tc.name, got, answers, perAnswer)
		if answers == 0 || perAnswer > 2 {
			t.Errorf("%s allocates %.3f objects per answer over %d answers, want ≤ 2", tc.name, perAnswer, answers)
		}
	}
}

// TestEnumerateAnswersAreIndependent holds the answer cursor to its ownership
// contract: every Answer a stream yields is the caller's, unchanged after the
// stream has moved 1,000 answers on, so no frame of the cursor leaks into
// it, and every slot holds an element — an answer generator is an integer
// pair written straight into its slot, so a slot left unset is not
// representable.
func TestEnumerateAnswersAreIndependent(t *testing.T) {
	static, stale := enumerateDB(t)
	for _, tc := range []struct {
		name   string
		stream func(context.Context) iter.Seq2[Answer, error]
	}{{"Prepared.Enumerate", static.Enumerate}, {"Reader.Enumerate", stale.Enumerate}} {
		var got, copies []Answer
		check := func(i int) {
			if !slices.Equal(got[i], copies[i]) {
				t.Fatalf("%s: answer %d changed from %v to %v", tc.name, i, copies[i], got[i])
			}
		}
		for ans, err := range tc.stream(context.Background()) {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(ans) != 3 || slices.Contains(ans, -1) {
				t.Fatalf("%s: answer %d is %v", tc.name, len(got), ans)
			}
			got, copies = append(got, ans), append(copies, slices.Clone(ans))
			if i := len(got) - 1 - 1000; i >= 0 {
				check(i)
			}
		}
		if len(got) <= 1000 {
			t.Fatalf("%s: %d answers, want more than 1,000", tc.name, len(got))
		}
		for i := range got {
			check(i)
		}
	}
}

// TestSessionEvalAllocations guards the pooled overlay: a session read takes
// a fresh snapshot handle every call, so the overlay wave's maps, buckets and
// changed-children lists come from the circuit's pool or the read allocates
// them all over again (48–61 objects per read before the pool, at a leaf and
// at a hub of this input).
func TestSessionEvalAllocations(t *testing.T) {
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
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	for _, x := range []int{0, 1499} { // the oldest vertex is a hub, the newest a leaf
		for i := 0; i < 64; i++ { // grow every reusable buffer first
			_, _ = s.Eval(ctx, x)
		}
		got := testing.AllocsPerRun(500, func() {
			if _, err := s.Eval(ctx, x); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Session.Eval(%d): %.0f allocs", x, got)
		if got > 10 {
			t.Errorf("Session.Eval(%d) allocates %.0f objects, want ≤ 10", x, got)
		}
	}
}

// TestSessionOpenAllocations guards what opening a session builds per
// instance: values only.  The circuit's shape — which slot of which parent a
// gate feeds, which cell of a permanent a slot is — is frozen into the shared
// Program, so a session that rebuilds it as per-gate maps (7.0 objects per
// gate on this input, against 3.6 without them and with each permanent's
// matrix allocated once) fails the bound.  A closed query's session
// maintains every gate, so the bound holds on every update strategy:
// natural's generic one, and ℤ's and boolean's constant-time ones, whose
// permanent maintainers must not rebuild per gate what depends on the row
// count only (a ring session that tabulated set partitions with big.Int
// coefficients per gate made 9.4 objects per gate, and a boolean one that
// kept big.Int counts per column type 7.7).  The "closed" row's query keeps
// no permanent — no data node can take both y and z of one level — so the
// "closed-siblings" row holds the bound on a query whose in-neighbours y ≠ z
// of one x are a level where injectivity is real (518 permanents of 15,551
// gates at pref-attach n = 1,500).
//
// A point query's session leaves out the gates its parameters hold at zero,
// which on session_rw's query is every addition and permanent gate, so its
// open allocates the same few objects at n = 6,000 as at n = 1,500; a session
// that builds a tree or a maintainer for one of them fails.
func TestSessionOpenAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	registerStrategyCarriers()
	carriers := []string{"natural", ringCarrier, "boolean"}
	prepare := func(n int, query string) *Prepared {
		db, err := Generate("pref-attach", n, 1)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		p, err := Open(db).Prepare(context.Background(), query)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		return p
	}
	opens := func(natural *Prepared, carrier string) (*Prepared, float64) {
		p, err := natural.In(carrier)
		if err != nil {
			t.Fatalf("In(%s): %v", carrier, err)
		}
		return p, testing.AllocsPerRun(5, func() {
			s, err := p.Session()
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
	}
	opensPerGate := func(t *testing.T, closed *Prepared) {
		for _, carrier := range carriers {
			p, got := opens(closed, carrier)
			perGate := got / float64(p.Stats().Gates)
			t.Logf("%s: Prepared.Session: %.0f allocs, %.2f per gate, %d permanents", carrier, got, perGate, p.Stats().PermGates)
			if perGate > 5 {
				t.Errorf("%s: Prepared.Session allocates %.2f objects per gate, want ≤ 5", carrier, perGate)
			}
		}
	}
	t.Run("closed", func(t *testing.T) {
		opensPerGate(t, prepare(1500, "sum x,y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"))
	})
	t.Run("closed-siblings", func(t *testing.T) {
		closed := prepare(1500, "sum x,y,z . [E(y,x)&E(z,x)&!(y=z)] * u(y)*u(z)")
		if closed.Stats().PermGates == 0 {
			t.Fatal("the query compiles to no permanent: no maintainer runs")
		}
		opensPerGate(t, closed)
	})
	t.Run("point", func(t *testing.T) {
		const query = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
		small, large := prepare(1500, query), prepare(6000, query)
		for _, carrier := range carriers {
			_, atSmall := opens(small, carrier)
			_, atLarge := opens(large, carrier)
			t.Logf("%s: Prepared.Session: %.0f allocs at n = 1,500, %.0f at n = 6,000", carrier, atSmall, atLarge)
			if atLarge != atSmall {
				t.Errorf("%s: Prepared.Session allocates %.0f objects at n = 6,000 and %.0f at n = 1,500, want as many", carrier, atLarge, atSmall)
			}
		}
	})
}
