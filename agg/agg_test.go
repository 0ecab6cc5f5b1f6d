package agg

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testDB is a tiny deterministic database: a directed triangle 0→1→2→0 plus
// the edge 2→3, marks S = {0, 2}, edge weights w and vertex weights u.
const testDB = `
domain 4
rel E 2
rel S 1
wsym w 2
wsym u 1
E 0 1
E 1 2
E 2 0
E 2 3
S 0
S 2
w 0 1 2
w 1 2 3
w 2 0 5
w 2 3 1
u 0 1
u 1 2
u 2 3
u 3 4
`

func testEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := OpenReader(strings.NewReader(testDB))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	return eng
}

const edgeSum = "sum x, y . [E(x,y)] * w(x,y)"

func TestPrepareEvalSemirings(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if got, err := p.Eval(ctx); err != nil || got != "11" {
		t.Fatalf("natural edge sum = %q, %v; want 11", got, err)
	}
	if p.Enumerable() {
		t.Error("expression query reports Enumerable")
	}
	if st := p.Stats(); st.Gates == 0 || st.Depth == 0 {
		t.Errorf("degenerate circuit stats %+v", st)
	}
	if p.Footprint() <= 0 {
		t.Errorf("non-positive footprint %d", p.Footprint())
	}
	if p.Canonical() == "" {
		t.Error("empty canonical form")
	}

	// Rebinding semirings shares the compilation.
	mp, err := p.In("minplus")
	if err != nil {
		t.Fatalf("In(minplus): %v", err)
	}
	if got, _ := mp.Eval(ctx); got != "1" {
		t.Errorf("minplus edge sum = %q, want 1 (the lightest edge)", got)
	}
	bl, err := p.In("boolean")
	if err != nil {
		t.Fatalf("In(boolean): %v", err)
	}
	if got, _ := bl.Eval(ctx); got != "true" {
		t.Errorf("boolean edge sum = %q, want true", got)
	}
	pv, err := p.In("provenance")
	if err != nil {
		t.Fatalf("In(provenance): %v", err)
	}
	if got, _ := pv.Eval(ctx); !strings.Contains(string(got), "w(0,1)") {
		t.Errorf("provenance value %q does not mention w(0,1)", got)
	}

	// The triangle query in natural and minplus.
	tri, err := eng.Prepare(ctx,
		"sum x, y, z . [E(x,y) & E(y,z) & E(z,x)] * w(x,y) * w(y,z) * w(z,x)")
	if err != nil {
		t.Fatalf("Prepare triangles: %v", err)
	}
	// The triangle 0→1→2→0 in 3 rotations: 3 · (2·3·5) = 90.
	if got, _ := tri.Eval(ctx); got != "90" {
		t.Errorf("triangle weight = %q, want 90", got)
	}
}

func TestPointEval(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()
	p, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if got := p.FreeVars(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("FreeVars = %v, want [x]", got)
	}
	wants := map[int]string{0: "2", 1: "3", 2: "6", 3: "0"}
	for x, want := range wants {
		got, err := p.Eval(ctx, x)
		if err != nil {
			t.Fatalf("Eval(%d): %v", x, err)
		}
		if string(got) != want {
			t.Errorf("f(%d) = %q, want %s", x, got, want)
		}
	}
	// Closed evaluation of an open query, and wrong arity, are argument
	// errors.
	if _, err := p.Eval(ctx); !errors.Is(err, ErrArgument) {
		t.Errorf("Eval() on open query: %v, want ErrArgument", err)
	}
	if _, err := p.Eval(ctx, 1, 2); !errors.Is(err, ErrArgument) {
		t.Errorf("Eval(1,2): %v, want ErrArgument", err)
	}
}

// TestConcurrentClosedPrepare prepares one closed query from four goroutines
// on one Engine.  A closed query compiles over the engine's own structure,
// so every Prepare reads its cached Gaifman graph, the first ones while it
// is built; under -race this is the check that the cache is published
// safely.  Every goroutine must get the value a lone Prepare gets.
func TestConcurrentClosedPrepare(t *testing.T) {
	ctx := context.Background()
	const query = "sum x, y . [E(x,y)] * w(x,y)"
	db, err := Generate("bounded-degree", 300, 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	eng := Open(db)
	vals := make([]Value, 4)
	var wg sync.WaitGroup
	for i := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := eng.Prepare(ctx, query)
			if err == nil {
				vals[i], err = p.Eval(ctx)
			}
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	p, err := eng.Prepare(ctx, query)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	want, err := p.Eval(ctx)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	for i, v := range vals {
		if v != want {
			t.Errorf("goroutine %d got %q, want %q", i, v, want)
		}
	}
}

// TestSessionWritesALoop: testDB's E has no loop, but a dynamic relation may
// gain one, so the compiler keeps the shapes that put both variables of
// E(x,y) on one node, and a session's write of E(3,3) is counted.
func TestSessionWritesALoop(t *testing.T) {
	ctx := context.Background()
	p, err := testEngine(t).Prepare(ctx, "sum x,y . [E(x,y)]", WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	if got, _ := s.Eval(ctx); got != "4" {
		t.Fatalf("initial session value %q, want 4", got)
	}
	if err := s.Set(SetTuple("E", []int{3, 3}, true)); err != nil {
		t.Fatalf("Set(E(3,3)): %v", err)
	}
	if got, _ := s.Eval(ctx); got != "5" {
		t.Errorf("after inserting the loop E(3,3): %q, want 5", got)
	}
}

func TestSessionUpdates(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()
	p, err := eng.Prepare(ctx, edgeSum, WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	if got, _ := s.Eval(ctx); got != "11" {
		t.Fatalf("initial session value %q, want 11", got)
	}
	if err := s.Set(SetWeight("w", []int{0, 1}, 10)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if got, _ := s.Eval(ctx); got != "19" {
		t.Errorf("after w(0,1)=10: %q, want 19", got)
	}
	// Remove the edge 2→3 (weight 1), then restore everything in one batch.
	if err := s.Set(SetTuple("E", []int{2, 3}, false)); err != nil {
		t.Fatalf("SetTuple: %v", err)
	}
	if got, _ := s.Eval(ctx); got != "18" {
		t.Errorf("after deleting E(2,3): %q, want 18", got)
	}
	if err := s.ApplyBatch([]Change{
		SetWeight("w", []int{0, 1}, 2),
		SetTuple("E", []int{2, 3}, true),
	}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if got, _ := s.Eval(ctx); got != "11" {
		t.Errorf("after restoring batch: %q, want 11", got)
	}

	// The Prepared's own evaluation is unaffected by session updates.
	if got, _ := p.Eval(ctx); got != "11" {
		t.Errorf("Prepared.Eval after session updates: %q, want 11", got)
	}

	// Update errors.
	if err := s.Set(Change{}); !errors.Is(err, ErrUpdate) {
		t.Errorf("empty change: %v, want ErrUpdate", err)
	}
	if err := s.Set(SetWeight("nope", []int{0}, 1)); !errors.Is(err, ErrUpdate) {
		t.Errorf("unknown weight: %v, want ErrUpdate", err)
	}
	if err := s.Set(SetTuple("S", []int{0}, false)); !errors.Is(err, ErrUpdate) {
		t.Errorf("non-dynamic relation: %v, want ErrUpdate", err)
	}
	// All-or-nothing batches.
	before, _ := s.Eval(ctx)
	err = s.ApplyBatch([]Change{
		SetWeight("w", []int{0, 1}, 999),
		SetWeight("nope", []int{0}, 1),
	})
	if !errors.Is(err, ErrUpdate) {
		t.Fatalf("invalid batch: %v, want ErrUpdate", err)
	}
	if after, _ := s.Eval(ctx); after != before {
		t.Errorf("invalid batch partially applied: %q -> %q", before, after)
	}
}

func TestSessionBusyAndClosed(t *testing.T) {
	eng := testEngine(t)
	p, err := eng.Prepare(context.Background(), edgeSum)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}

	// Hold the write half as a concurrent update would: writes fail fast
	// with ErrSessionBusy, reads are served at a pinned epoch and succeed.
	want, err := s.Eval(context.Background())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	s.writerMu.Lock()
	if err := s.Set(SetWeight("w", []int{0, 1}, 3)); !errors.Is(err, ErrSessionBusy) {
		t.Errorf("busy Set: %v, want ErrSessionBusy", err)
	}
	if got, err := s.Eval(context.Background()); err != nil || got != want {
		t.Errorf("Eval under held writer = %q, %v; want %q from snapshot fallback", got, err, want)
	}
	s.writerMu.Unlock()

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Eval(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Eval after Close: %v, want ErrSessionClosed", err)
	}
	if err := s.Set(SetWeight("w", []int{0, 1}, 3)); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Set after Close: %v, want ErrSessionClosed", err)
	}
}

func TestEnumerate(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()
	p, err := eng.Prepare(ctx, "E(x,y) & S(x)")
	if err != nil {
		t.Fatalf("Prepare formula: %v", err)
	}
	if !p.Enumerable() {
		t.Fatal("formula query is not Enumerable")
	}
	if got := p.AnswerVars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("AnswerVars = %v, want [x y]", got)
	}
	count, err := p.AnswerCount(ctx)
	if err != nil {
		t.Fatalf("AnswerCount: %v", err)
	}
	if count != 3 {
		t.Fatalf("AnswerCount = %d, want 3 {(0,1),(2,0),(2,3)}", count)
	}

	seen := map[string]bool{}
	for ans, err := range p.Enumerate(ctx) {
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
		if len(ans) != 2 {
			t.Fatalf("answer %v has arity %d", ans, len(ans))
		}
		x, y := ans[0], ans[1]
		if !eng.db.a.HasTuple("E", x, y) || !eng.db.a.HasTuple("S", x) {
			t.Errorf("answer (%d,%d) does not satisfy the formula", x, y)
		}
		key := fmt.Sprint(ans)
		if seen[key] {
			t.Errorf("answer %v enumerated twice", ans)
		}
		seen[key] = true
	}
	if int64(len(seen)) != count {
		t.Errorf("enumerated %d answers, count says %d", len(seen), count)
	}

	// Membership point query through the same Prepared.
	if got, err := p.Eval(ctx, 2, 0); err != nil || got != "1" {
		t.Errorf("membership (2,0) = %q, %v; want 1", got, err)
	}
	if got, err := p.Eval(ctx, 1, 2); err != nil || got != "0" {
		t.Errorf("membership (1,2) = %q, %v; want 0", got, err)
	}

	// WithAnswerVars reorders the answer tuples.
	q, err := eng.Prepare(ctx, "E(x,y) & S(x)", WithAnswerVars("y", "x"))
	if err != nil {
		t.Fatalf("Prepare with answer vars: %v", err)
	}
	for ans, err := range q.Enumerate(ctx) {
		if err != nil {
			t.Fatalf("Enumerate reordered: %v", err)
		}
		if !eng.db.a.HasTuple("E", ans[1], ans[0]) {
			t.Errorf("reordered answer %v is not an (y,x) edge", ans)
		}
	}

	// Expression queries are not enumerable.
	ex, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare expression: %v", err)
	}
	for _, err := range ex.Enumerate(ctx) {
		if !errors.Is(err, ErrNotEnumerable) {
			t.Errorf("Enumerate on expression: %v, want ErrNotEnumerable", err)
		}
	}
	if _, err := ex.AnswerCount(ctx); !errors.Is(err, ErrNotEnumerable) {
		t.Errorf("AnswerCount on expression: %v, want ErrNotEnumerable", err)
	}
}

// TestPrepareRejectsDynamicRelationUnderQuantifier wants a dynamic relation
// under a quantifier refused even where its atom does not mention the
// quantified variable.  Eliminating ∃y E(x,y) ∧ S(x) would fold S into a
// static derived predicate, and the session would keep reading 90 after S
// came to hold everywhere, where the value is 214.
func TestPrepareRejectsDynamicRelationUnderQuantifier(t *testing.T) {
	db, err := Generate("bounded-degree", 50, 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx := context.Background()
	const query = "sum x . [exists y . E(x,y) & S(x)] * u(x)"
	if _, err := Open(db).Prepare(ctx, query, WithDynamic("S")); !errors.Is(err, ErrCompile) {
		t.Fatalf("Prepare(%q) with S dynamic: %v, want ErrCompile", query, err)
	}
	p, err := Open(db).Prepare(ctx, query)
	if err != nil {
		t.Fatalf("Prepare(%q) with S static: %v", query, err)
	}
	if got, err := p.Eval(ctx); err != nil || got != "90" {
		t.Errorf("Eval(%q) = %q, %v; want 90", query, got, err)
	}
	const everywhere = "sum x . [exists y . E(x,y)] * u(x)"
	if p, err = Open(db).Prepare(ctx, everywhere); err != nil {
		t.Fatalf("Prepare(%q): %v", everywhere, err)
	}
	if got, err := p.Eval(ctx); err != nil || got != "214" {
		t.Errorf("Eval(%q) = %q, %v; want 214", everywhere, got, err)
	}
}

// TestGenerateRejectsNegativeSizes checks that every workload kind refuses
// n < 0 with ErrArgument, before its generator sizes anything by n.
func TestGenerateRejectsNegativeSizes(t *testing.T) {
	for _, kind := range []string{"bounded-degree", "grid", "forest", "pref-attach", "road", "nested", "search"} {
		if _, err := Generate(kind, -1, 1); !errors.Is(err, ErrArgument) {
			t.Errorf("Generate(%q, -1, 1): %v, want ErrArgument", kind, err)
		}
	}
}

func TestErrorTaxonomy(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	// Parse errors carry the byte offset of the failure.
	_, err := eng.Prepare(ctx, "sum x , . [E(x,y)]")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("parse failure: %v, want ErrParse", err)
	}
	var aggErr *Error
	if !errors.As(err, &aggErr) {
		t.Fatalf("parse failure is not an *agg.Error: %v", err)
	}
	if aggErr.Pos < 0 {
		t.Errorf("parse error lost its position: %+v", aggErr)
	}
	if aggErr.Query != "sum x , . [E(x,y)]" {
		t.Errorf("parse error lost its query: %q", aggErr.Query)
	}

	// Compile errors: unknown relation in an otherwise valid expression.
	if _, err := eng.Prepare(ctx, "sum x . [Nope(x)] * u(x)"); !errors.Is(err, ErrCompile) {
		t.Errorf("unknown relation: %v, want ErrCompile", err)
	}

	// Unknown semirings.
	if _, err := eng.Prepare(ctx, edgeSum, WithSemiring("nope")); !errors.Is(err, ErrUnknownSemiring) {
		t.Errorf("unknown semiring: %v, want ErrUnknownSemiring", err)
	}
	p, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.In("nope"); !errors.Is(err, ErrUnknownSemiring) {
		t.Errorf("In(nope): %v, want ErrUnknownSemiring", err)
	}

	// Error codes are stable.
	for _, tc := range []struct {
		err  error
		code string
	}{
		{&Error{Kind: ErrParse}, "parse"},
		{&Error{Kind: ErrCompile}, "compile"},
		{&Error{Kind: ErrUnknownSemiring}, "unknown_semiring"},
		{&Error{Kind: ErrSessionBusy}, "session_busy"},
		{context.Canceled, "canceled"},
		{errors.New("other"), "error"},
	} {
		if got := ErrorCode(tc.err); got != tc.code {
			t.Errorf("ErrorCode(%v) = %q, want %q", tc.err, got, tc.code)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register(nil); !errors.Is(err, ErrArgument) {
		t.Errorf("Register(nil): %v, want ErrArgument", err)
	}
	dup := NewSemiring[int64]("natural", natOps{}, func(_ string, _ []int, v int64) int64 { return v })
	if err := Register(dup); !errors.Is(err, ErrArgument) {
		t.Errorf("duplicate Register: %v, want ErrArgument", err)
	}
	names := SemiringNames()
	for _, want := range []string{"boolean", "minplus", "natural", "provenance"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("builtin semiring %q missing from %v", want, names)
		}
	}
}

// natOps is a standalone Arithmetic implementation, proving the public
// interface is sufficient to define a carrier without internal imports.
type natOps struct{}

func (natOps) Zero() int64           { return 0 }
func (natOps) One() int64            { return 1 }
func (natOps) Add(a, b int64) int64  { return a + b }
func (natOps) Mul(a, b int64) int64  { return a * b }
func (natOps) Equal(a, b int64) bool { return a == b }
func (natOps) Format(a int64) string { return fmt.Sprint(a) }

// slowOps is natOps with a busy-wait in Add, slowing evaluation enough to be
// cancelled mid-flight deterministically.
type slowOps struct{ natOps }

func (slowOps) Add(a, b int64) int64 {
	deadline := time.Now().Add(20 * time.Microsecond)
	for time.Now().Before(deadline) {
	}
	return a + b
}

var registerSlowOnce sync.Once

func registerSlow(t *testing.T) {
	t.Helper()
	registerSlowOnce.Do(func() {
		MustRegister(NewSemiring[int64]("slow-natural", slowOps{},
			func(_ string, _ []int, v int64) int64 { return v }))
	})
}

// TestEvalCancellation checks a cancelled context stops a running parallel
// evaluation in bounded time (run under -race in CI), for a closed query,
// which every Eval evaluates, and for a point query, which its first Eval
// evaluates: the mid-flight cancellation targets the first Eval of a fresh
// Prepared, whose cancelled evaluation must not be kept.
func TestEvalCancellation(t *testing.T) {
	registerSlow(t)
	db, err := Generate("grid", 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := Open(db)
	for _, c := range []struct {
		query string
		args  []int
	}{{edgeSum, nil}, {"sum y . [E(x,y)] * w(x,y)", []int{0}}} {
		prepare := func() *Prepared {
			p, err := eng.Prepare(context.Background(), c.query, WithSemiring("slow-natural"), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p, fresh := prepare(), prepare()

		// Uncancelled baseline: the query evaluates fine (and slowly).
		start := time.Now()
		want, err := p.Eval(context.Background(), c.args...)
		if err != nil {
			t.Fatalf("%s: baseline Eval: %v", c.query, err)
		}
		full := time.Since(start)

		// Pre-cancelled contexts fail fast.
		pre, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := p.Eval(pre, c.args...); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled Eval: %v, want context.Canceled", c.query, err)
		}

		// Mid-flight cancellation stops well before the full evaluation time.
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		start = time.Now()
		go func() {
			_, err := fresh.Eval(ctx, c.args...)
			errCh <- err
		}()
		time.Sleep(full / 10)
		cancel()
		err = <-errCh
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-flight Eval: %v, want context.Canceled", c.query, err)
		}
		if elapsed > full {
			t.Errorf("%s: cancelled Eval took %v, full evaluation takes %v", c.query, elapsed, full)
		}
		// The cancelled evaluation is not kept, and the next Eval evaluates.
		if fresh.ev.read.Load() != nil {
			t.Errorf("%s: the cancelled evaluation was kept", c.query)
		}
		if got, err := fresh.Eval(context.Background(), c.args...); err != nil || got != want {
			t.Errorf("%s: Eval after a cancelled first Eval = %q, %v; want %q", c.query, got, err, want)
		}
		// And the Prepared still works afterwards.
		if got, err := p.Eval(context.Background(), c.args...); err != nil || got != want {
			t.Errorf("%s: Eval after cancellation = %q, %v; want %q", c.query, got, err, want)
		}
	}
}

// TestEnumerateCancellation checks a cancelled context stops an enumeration
// stream between answers and fails preprocessing fast.
func TestEnumerateCancellation(t *testing.T) {
	db, err := Generate("grid", 144, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := Open(db)

	// Pre-cancelled Prepare of a formula aborts the preprocessing wave.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Prepare(pre, "E(x,y) & E(y,z)"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Prepare: %v, want context.Canceled", err)
	}

	p, err := eng.Prepare(context.Background(), "E(x,y) & E(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	total, err := p.AnswerCount(context.Background())
	if err != nil || total < 16 {
		t.Fatalf("AnswerCount = %d, %v; want a rich answer set", total, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	var finalErr error
	for ans, err := range p.Enumerate(ctx) {
		if err != nil {
			finalErr = err
			break
		}
		_ = ans
		streamed++
		if streamed == 8 {
			cancel()
		}
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("cancelled stream ended with %v, want context.Canceled", finalErr)
	}
	if streamed != 8 {
		t.Errorf("streamed %d answers after cancelling at 8", streamed)
	}
}
