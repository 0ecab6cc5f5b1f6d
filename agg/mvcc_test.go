package agg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// ringEngine builds a directed ring 0→1→…→n-1→0 with edge weights
// w(i, i+1) = i+1, for MVCC tests that want a writable edge set.
func ringEngine(t *testing.T, n int) *Engine {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "domain %d\nrel E 2\nwsym w 2\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "E %d %d\n", i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "w %d %d %d\n", i, (i+1)%n, i+1)
	}
	eng, err := OpenReader(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	return eng
}

// evalAll reads the point value at every element through f.
func evalAll(t *testing.T, n int, f func(context.Context, ...int) (Value, error)) []Value {
	t.Helper()
	out := make([]Value, n)
	for x := 0; x < n; x++ {
		v, err := f(context.Background(), x)
		if err != nil {
			t.Fatalf("Eval(%d): %v", x, err)
		}
		out[x] = v
	}
	return out
}

// TestReaderPinsEpoch opens Readers along an update stream and checks that
// each keeps answering Eval, Enumerate and AnswerCount exactly as of its
// pinned epoch, that undo memory is retained only while Readers are open,
// and that closed Readers fail cleanly.
func TestReaderPinsEpoch(t *testing.T) {
	ctx := context.Background()
	const n = 8
	eng := ringEngine(t, n)
	p, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)", WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	type pinned struct {
		r    *Reader
		want []Value
	}
	record := func() pinned {
		r, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return pinned{r: r, want: evalAll(t, n, s.Eval)}
	}

	pins := []pinned{record()}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 40; step++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			err = s.Set(SetTuple("E", []int{i, (i + 1) % n}, rng.Intn(2) == 0))
		case 1:
			err = s.Set(SetWeight("w", []int{i, (i + 1) % n}, int64(rng.Intn(50))))
		default:
			err = s.ApplyBatch([]Change{
				SetTuple("E", []int{i, (i + 1) % n}, true),
				SetWeight("w", []int{i, (i + 1) % n}, int64(rng.Intn(50))),
			})
		}
		if err != nil {
			t.Fatalf("update %d: %v", step, err)
		}
		if step%11 == 0 {
			pins = append(pins, record())
		}
	}
	if s.RetainedUndoBytes() == 0 {
		t.Error("no undo history retained while Readers are open")
	}

	for i, pin := range pins {
		if got := evalAll(t, n, pin.r.Eval); !valuesEqual(got, pin.want) {
			t.Errorf("pin %d (epoch %d): reader values %v, want %v", i, pin.r.Epoch(), got, pin.want)
		}
	}
	// A fresh Reader sees the present.
	fresh, err := s.Snapshot()
	if err != nil {
		t.Fatalf("fresh Snapshot: %v", err)
	}
	if got, want := evalAll(t, n, fresh.Eval), evalAll(t, n, s.Eval); !valuesEqual(got, want) {
		t.Errorf("fresh reader values %v, live %v", got, want)
	}
	fresh.Close()

	for _, pin := range pins {
		if err := pin.r.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := pin.r.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}
	if got := s.RetainedUndoBytes(); got != 0 {
		t.Errorf("retained undo bytes %d after all Readers closed, want 0", got)
	}
	if _, err := pins[0].r.Eval(ctx, 0); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Eval on closed Reader: %v, want ErrSessionClosed", err)
	}
}

func valuesEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReaderEnumeratesPinnedAnswers checks the answer-set half of a Reader on
// an enumerable query with a dynamic relation: Enumerate and AnswerCount
// answer as of the pinned epoch while tuple updates keep committing, and
// agree with each other.
func TestReaderEnumeratesPinnedAnswers(t *testing.T) {
	ctx := context.Background()
	eng := testEngine(t)
	p, err := eng.Prepare(ctx, "E(x,y) & S(x)", WithDynamic("S"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	collect := func(r *Reader) []string {
		var keys []string
		for ans, err := range r.Enumerate(ctx) {
			if err != nil {
				t.Fatalf("Enumerate: %v", err)
			}
			keys = append(keys, fmt.Sprint([]int(ans)))
		}
		sort.Strings(keys)
		return keys
	}

	type pinned struct {
		r    *Reader
		want []string
	}
	var pins []pinned
	record := func() {
		r, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		pins = append(pins, pinned{r: r, want: collect(r)})
	}

	record()
	for step, ch := range []Change{
		SetTuple("S", []int{1}, true),
		SetTuple("S", []int{0}, false),
		SetTuple("S", []int{2}, false),
		SetTuple("S", []int{3}, true),
	} {
		if err := s.Set(ch); err != nil {
			t.Fatalf("Set %d: %v", step, err)
		}
		record()
	}

	for i, pin := range pins {
		if got := collect(pin.r); !equalStrings(got, pin.want) {
			t.Errorf("pin %d: answers %v, want %v", i, got, pin.want)
		}
		count, err := pin.r.AnswerCount(ctx)
		if err != nil {
			t.Fatalf("AnswerCount: %v", err)
		}
		if int(count) != len(pin.want) {
			t.Errorf("pin %d: AnswerCount %d, enumerated %d", i, count, len(pin.want))
		}
	}
	for _, pin := range pins {
		pin.r.Close()
	}
	if got := s.RetainedUndoBytes(); got != 0 {
		t.Errorf("retained undo bytes %d after all Readers closed, want 0", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentReadersNeverBusy is the race-enabled stress test of the MVCC
// contract at the public API: one writer streams updates while reader
// goroutines Eval through Session.Snapshot Readers and, between Reader passes,
// through Session.Eval, asserting that every Reader observes exactly the
// values of some committed epoch, that every live read observes the values of
// an epoch committed while it ran (differential against the sequential oracle
// the writer records after each commit), and that no read ever fails with
// ErrSessionBusy.
func TestConcurrentReadersNeverBusy(t *testing.T) {
	ctx := context.Background()
	const (
		n       = 8
		updates = 150
		readers = 4
	)
	eng := ringEngine(t, n)
	p, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)", WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	var oracle sync.Map // epoch → []Value at that commit
	oracle.Store(s.Epoch(), evalAll(t, n, s.Eval))

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < updates; i++ {
			v := rng.Intn(n)
			var err error
			if rng.Intn(2) == 0 {
				err = s.Set(SetTuple("E", []int{v, (v + 1) % n}, rng.Intn(2) == 0))
			} else {
				err = s.ApplyBatch([]Change{
					SetTuple("E", []int{v, (v + 1) % n}, true),
					SetWeight("w", []int{v, (v + 1) % n}, int64(rng.Intn(40))),
				})
			}
			if err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			// Readers that pinned this epoch first spin until the oracle entry
			// lands; the single writer is the only committer, so the epoch read
			// here is the one its updates produced.
			vals := make([]Value, n)
			for x := 0; x < n; x++ {
				if vals[x], err = s.Eval(ctx, x); err != nil {
					t.Errorf("oracle Eval(%d): %v", x, err)
					return
				}
			}
			oracle.Store(s.Epoch(), vals)
		}
	}()

	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := s.Snapshot()
				if err != nil {
					errs <- fmt.Errorf("reader %d: Snapshot: %v", id, err)
					return
				}
				got := make([]Value, n)
				for x := 0; x < n; x++ {
					v, err := r.Eval(ctx, x)
					if err != nil {
						errs <- fmt.Errorf("reader %d: Eval(%d): %v", id, x, err)
						r.Close()
						return
					}
					got[x] = v
				}
				var want any
				for {
					var ok bool
					if want, ok = oracle.Load(r.Epoch()); ok {
						break
					}
					runtime.Gosched()
				}
				if !valuesEqual(got, want.([]Value)) {
					errs <- fmt.Errorf("reader %d at epoch %d: values %v, oracle %v", id, r.Epoch(), got, want)
					r.Close()
					return
				}
				r.Close()
				// Session.Eval, the live read, must never be busy either: it
				// reads the last commit under the clock's shared lock, never
				// under the writer lock, so its value is the oracle's at some
				// epoch committed while it ran.
				for x := 0; x < n; x++ {
					lo := s.Epoch()
					v, err := s.Eval(ctx, x)
					hi := s.Epoch()
					if err != nil {
						errs <- fmt.Errorf("reader %d: Session.Eval(%d): %v", id, x, err)
						return
					}
					for {
						if _, ok := oracle.Load(hi); ok {
							break
						}
						runtime.Gosched()
					}
					seen := false
					for e := lo; e <= hi && !seen; e++ {
						want, _ := oracle.Load(e)
						seen = want.([]Value)[x] == v
					}
					if !seen {
						errs <- fmt.Errorf("reader %d: Session.Eval(%d) = %s, no oracle value at epochs %d..%d", id, x, v, lo, hi)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.RetainedUndoBytes(); got != 0 {
		t.Errorf("retained undo bytes %d after all readers done, want 0", got)
	}
}

// TestNestedSessionSnapshots pins the MVCC read contract on a nested session:
// a write commits an epoch iff it changes a value or a membership the formula
// reads, a Reader keeps its epoch's value while the writer moves on, and Eval
// under a held writer answers the last committed epoch.
func TestNestedSessionSnapshots(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()
	q := NSum([]string{"x", "y"},
		NTimes(NBracket(NAtom("E", "x", "y")), NWeight("w", "x", "y")))
	p, err := eng.Prepare(ctx, "nested edge sum", WithNested(q))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	r0, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Re-asserting stored state, and writing u and S, which the formula does
	// not read, commit nothing.
	for _, ch := range []Change{
		SetWeight("w", []int{0, 1}, 2),
		SetTuple("E", []int{0, 1}, true),
		SetTuple("E", []int{1, 0}, false),
		SetWeight("u", []int{0}, 9),
		SetTuple("S", []int{1}, true),
	} {
		if err := s.Set(ch); err != nil {
			t.Fatalf("Set(%+v): %v", ch, err)
		}
		if got := s.Epoch(); got != 0 {
			t.Fatalf("Set(%+v) committed epoch %d; it changes nothing the formula reads", ch, got)
		}
	}
	if err := s.ApplyBatch([]Change{SetWeight("u", []int{1}, 7), SetWeight("w", []int{1, 2}, 3)}); err != nil || s.Epoch() != 0 {
		t.Fatalf("a batch of unread and re-asserted writes: %v, epoch %d; want no commit", err, s.Epoch())
	}

	if err := s.Set(SetWeight("w", []int{0, 1}, 7)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after a value-changing write = %d, want 1", got)
	}
	if got, err := r0.Eval(ctx); err != nil || got != "11" {
		t.Errorf("Reader at epoch 0 = %q, %v; want 11", got, err)
	}
	if got, err := s.Eval(ctx); err != nil || got != "16" {
		t.Errorf("Eval at epoch 1 = %q, %v; want 16", got, err)
	}
	if got := s.RetainedUndoBytes(); got <= 0 {
		t.Errorf("RetainedUndoBytes = %d with a Reader pinned behind a commit, want > 0", got)
	}

	s.writerMu.Lock()
	got, err := s.Eval(ctx)
	s.writerMu.Unlock()
	if err != nil || got != "16" {
		t.Errorf("Eval while a writer holds the session = %q, %v; want 16", got, err)
	}

	// A pin resolved only after the writer moved on still reads its epoch's
	// version, which the writer froze before changing the database.
	if err := s.Set(SetWeight("w", []int{1, 2}, 13)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	epoch := s.clock.Pin()
	if err := s.Set(SetWeight("w", []int{1, 2}, 3)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	pinned, err := s.sess.At(epoch)(nil)
	s.clock.Unpin(epoch)
	if err != nil || pinned != "26" {
		t.Errorf("a pin of epoch %d resolved after a commit reads %q, %v; want 26", epoch, pinned, err)
	}
	if got, err := s.Eval(ctx); err != nil || got != "16" {
		t.Errorf("Eval at epoch %d = %q, %v; want 16", s.Epoch(), got, err)
	}

	r0.Close()
	if got := s.RetainedUndoBytes(); got != 0 {
		t.Errorf("RetainedUndoBytes = %d after the last Reader closed, want 0", got)
	}
}

// TestSessionEvalAllocationIndependentOfDatabaseSize is the regression guard
// for point reads on a session: Eval pins a throwaway snapshot per call, so
// what one read allocates must follow the cone of gates its overrides touch
// (bounded on a bounded-degree graph), never the size of the circuit.  Ten
// times the database may not double the bytes per read.
func TestSessionEvalAllocationIndependentOfDatabaseSize(t *testing.T) {
	ctx := context.Background()
	bytesPerEval := func(n int) float64 {
		db, err := Generate("bounded-degree", n, 1)
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
		const reads = 200
		read := func() {
			for i := 0; i < reads; i++ {
				if _, err := s.Eval(ctx, i*7%n); err != nil {
					t.Fatalf("Eval: %v", err)
				}
			}
		}
		read() // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / reads
	}
	nSmall, nLarge := 200, 2000
	if testing.Short() {
		nSmall, nLarge = 60, 600 // Prepare at n=2000 takes half a minute under -race
	}
	small, large := bytesPerEval(nSmall), bytesPerEval(nLarge)
	t.Logf("Session.Eval allocates %.0f B per read at n=%d, %.0f B at n=%d", small, nSmall, large, nLarge)
	if large >= 2*small {
		t.Errorf("Session.Eval allocates %.0f B per read at n=%d against %.0f B at n=%d; a point read must not scale with the circuit", large, nLarge, small, nSmall)
	}
}
