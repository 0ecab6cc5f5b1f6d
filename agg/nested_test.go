package agg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/nested"
	"repro/internal/obs"
)

// outWeight is Σ_y [E(x,y)]·w(x,y): the outgoing edge weight of x.
func outWeight() *Nested {
	return NSum([]string{"y"}, NTimes(NBracket(NAtom("E", "x", "y")), NWeight("w", "x", "y")))
}

func TestNestedEvalClosed(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	// Σ_{x,y} [E(x,y)]·w(x,y) — same aggregate as the flat edgeSum query.
	q := NSum([]string{"x", "y"},
		NTimes(NBracket(NAtom("E", "x", "y")), NWeight("w", "x", "y")))
	p, err := eng.Prepare(ctx, "nested edge sum", WithNested(q))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if got, err := p.Eval(ctx); err != nil || got != "11" {
		t.Fatalf("nested edge sum = %q, %v; want 11", got, err)
	}
	if p.Enumerable() {
		t.Error("semiring-valued nested query reports Enumerable")
	}
	if fv := p.FreeVars(); len(fv) != 0 {
		t.Errorf("closed query FreeVars = %v", fv)
	}

	// Flat and nested agree.
	flat, err := eng.Prepare(ctx, edgeSum)
	if err != nil {
		t.Fatalf("Prepare flat: %v", err)
	}
	fv, err := flat.Eval(ctx)
	if err != nil {
		t.Fatalf("flat Eval: %v", err)
	}
	nv, err := p.Eval(ctx)
	if err != nil {
		t.Fatalf("nested Eval: %v", err)
	}
	if fv != nv {
		t.Errorf("flat %q != nested %q", fv, nv)
	}
}

func TestNestedEvalFreeVars(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	p, err := eng.Prepare(ctx, "out-weight", WithNested(outWeight()))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if fv := p.FreeVars(); len(fv) != 1 || fv[0] != "x" {
		t.Fatalf("FreeVars = %v; want [x]", fv)
	}
	// Out-weights on the test graph: 0→1:2, 1→2:3, 2→{0,3}:5+1=6, 3:0.
	for x, want := range map[int]string{0: "2", 1: "3", 2: "6", 3: "0"} {
		if got, err := p.Eval(ctx, x); err != nil || string(got) != want {
			t.Errorf("outWeight(%d) = %q, %v; want %s", x, got, err, want)
		}
	}
	// Arity mismatch surfaces as ErrArgument.
	if _, err := p.Eval(ctx); !errors.Is(err, ErrArgument) {
		t.Errorf("Eval() error = %v; want ErrArgument", err)
	}
}

func TestNestedBooleanEnumerate(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	// [S(x)]·(outWeight(x) > 3): marked vertices of out-weight above 3.
	q := NGuard("S", []string{"x"}, ConnGreaterThan, outWeight(), NConst(3))
	p, err := eng.Prepare(ctx, "heavy marked", WithNested(q))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if !p.Enumerable() {
		t.Fatal("boolean nested query with a free variable is not Enumerable")
	}
	n, err := p.AnswerCount(ctx)
	if err != nil {
		t.Fatalf("AnswerCount: %v", err)
	}
	if n != 1 {
		t.Errorf("AnswerCount = %d; want 1", n)
	}
	var got []int
	for ans, err := range p.Enumerate(ctx) {
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
		if len(ans) != 1 {
			t.Fatalf("answer arity %d; want 1", len(ans))
		}
		got = append(got, ans[0])
	}
	// S = {0, 2}; outWeight(0)=2, outWeight(2)=6 — only 2 qualifies.
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("answers = %v; want [2]", got)
	}
	// Point evaluation agrees with the answer set.
	for x, want := range map[int]string{0: "false", 2: "true", 3: "false"} {
		if got, err := p.Eval(ctx, x); err != nil || string(got) != want {
			t.Errorf("heavy(%d) = %q, %v; want %s", x, got, err, want)
		}
	}
}

func TestNestedSession(t *testing.T) {
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

	// w(0,1): 2 → 7 lifts the total from 11 to 16.
	if err := s.Set(Change{Weight: "w", Tuple: []int{0, 1}, Value: 7}); err != nil {
		t.Fatalf("Set weight: %v", err)
	}
	if got, err := s.Eval(ctx); err != nil || got != "16" {
		t.Fatalf("after weight update = %q, %v; want 16", got, err)
	}
	// Dropping edge (2,3) removes its weight-1 contribution.
	if err := s.Set(Change{Rel: "E", Tuple: []int{2, 3}, Present: false}); err != nil {
		t.Fatalf("Set tuple: %v", err)
	}
	if got, err := s.Eval(ctx); err != nil || got != "15" {
		t.Fatalf("after edge removal = %q, %v; want 15", got, err)
	}
	// Inserting a fresh edge counts its (zero-defaulted, then set) weight.
	if err := s.ApplyBatch([]Change{
		{Rel: "E", Tuple: []int{3, 0}, Present: true},
		{Weight: "w", Tuple: []int{3, 0}, Value: 4},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got, err := s.Eval(ctx); err != nil || got != "19" {
		t.Fatalf("after batch = %q, %v; want 19", got, err)
	}
	// A bad change in a batch rejects the whole batch.
	if err := s.ApplyBatch([]Change{
		{Rel: "E", Tuple: []int{0, 3}, Present: true},
		{Rel: "Nope", Tuple: []int{0}, Present: true},
	}); !errors.Is(err, ErrUpdate) {
		t.Fatalf("bad batch error = %v; want ErrUpdate", err)
	}
	if got, err := s.Eval(ctx); err != nil || got != "19" {
		t.Fatalf("after rejected batch = %q, %v; want 19 (unchanged)", got, err)
	}

	// The prepared query itself is unaffected by session mutations.
	if got, err := p.Eval(ctx); err != nil || got != "11" {
		t.Fatalf("base query after session updates = %q, %v; want 11", got, err)
	}
}

func TestNestedConnectiveErrors(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	// GreaterThan needs two arguments.
	if _, err := eng.Prepare(ctx, "bad arity",
		WithNested(NGuard("S", []string{"x"}, ConnGreaterThan, outWeight()))); !errors.Is(err, ErrCompile) {
		t.Errorf("one-argument > error = %v; want ErrCompile", err)
	}
	// Free variables of connective arguments must be guard variables.
	if _, err := eng.Prepare(ctx, "unbound",
		WithNested(NGuard("S", []string{"z"}, ConnGreaterThan, outWeight(), NConst(3)))); !errors.Is(err, ErrCompile) {
		t.Errorf("unbound-variable error = %v; want ErrCompile", err)
	}
	// Provenance polynomials are unordered; comparisons must be rejected.
	if _, err := eng.Prepare(ctx, "unordered", WithSemiring("provenance"),
		WithNested(NGuard("S", []string{"x"}, ConnGreaterThan, outWeight(), NConst(3)))); !errors.Is(err, ErrCompile) {
		t.Errorf("unordered-semiring error = %v; want ErrCompile", err)
	}
	// Nested mode fixes its carrier at Prepare: In() refuses to rebind.
	p, err := eng.Prepare(ctx, "edge sum", WithNested(NSum([]string{"x", "y"},
		NTimes(NBracket(NAtom("E", "x", "y")), NWeight("w", "x", "y")))))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := p.In("minplus"); !errors.Is(err, ErrArgument) {
		t.Errorf("In on nested query error = %v; want ErrArgument", err)
	}
}

func TestNestedMaxPlusRatio(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	// max over marked x of ⌊outWeight(x)/u(x)⌋, through toMaxPlus:
	// x=0: ⌊2/1⌋ = 2;  x=2: ⌊6/3⌋ = 2 → max = 2.
	ratio := NGuard("S", []string{"x"}, ConnRatio, outWeight(), NWeight("u", "x"))
	q := NSum([]string{"x"}, NGuard("S", []string{"x"}, ConnToMaxPlus, ratio))
	p, err := eng.Prepare(ctx, "max ratio", WithNested(q))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	got, err := p.Eval(ctx)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if got != "2" {
		t.Errorf("max ratio = %q; want 2", got)
	}
}

// avgNeighbourWeight is the README's ⌊Σ_y [E(x,y)]·u(y) / Σ_y [E(x,y)]⌋ at x,
// and maxAvgNeighbourWeight its maximum over x, through max-plus.
func avgNeighbourWeight() *Nested {
	sumW := NSum([]string{"y"}, NTimes(NBracket(NAtom("E", "x", "y")), NWeight("u", "y")))
	degree := NSum([]string{"y"}, NBracket(NAtom("E", "x", "y")))
	return NGuard("V", []string{"x"}, ConnRatio, sumW, degree)
}

func maxAvgNeighbourWeight() *Nested {
	return NSum([]string{"x"}, NGuard("V", []string{"x"}, ConnToMaxPlus, avgNeighbourWeight()))
}

// TestNestedEvalCompilesOnce pins the preprocessing/read split of a nested
// query: Prepare materialises and compiles, and after it a read — closed or at
// a point — is a read of the one program, which compiles nothing, allocates
// like a flat point query and agrees with the reference recursion.
func TestNestedEvalCompilesOnce(t *testing.T) {
	db, err := Generate("nested", 300, 13)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	tr := obs.NewTracer()
	ctx := obs.NewContext(context.Background(), tr)
	rng := rand.New(rand.NewSource(1))
	for name, q := range map[string]*Nested{"closed": maxAvgNeighbourWeight(), "point": avgNeighbourWeight()} {
		p, err := Open(db).Prepare(ctx, name, WithNested(q))
		if err != nil {
			t.Fatalf("%s: Prepare: %v", name, err)
		}
		in, err := p.nestedInput()
		if err != nil {
			t.Fatalf("%s: nestedInput: %v", name, err)
		}
		compiles := tr.Stage(obs.StageCompile).Snapshot().Count
		for i := 0; i < 100; i++ {
			var args []int
			env := map[string]int{}
			if len(p.FreeVars()) == 1 {
				args = []int{rng.Intn(db.Elements())}
				env["x"] = args[0]
			}
			got, err := p.Eval(ctx, args...)
			if err != nil {
				t.Fatalf("%s: Eval(%v): %v", name, args, err)
			}
			want, err := nested.ReferenceEvalAt(in.db, in.f, env)
			if err != nil {
				t.Fatalf("%s: ReferenceEvalAt(%v): %v", name, args, err)
			}
			if string(got) != in.f.Out().Format(want) {
				t.Fatalf("%s: Eval(%v) = %s, reference %s", name, args, got, in.f.Out().Format(want))
			}
		}
		if n := tr.Stage(obs.StageCompile).Snapshot().Count - compiles; n != 0 {
			t.Errorf("%s: 100 reads observed %d compile stages; want none", name, n)
		}
		if len(p.FreeVars()) == 1 && !raceEnabled {
			// A materialisation allocates megabytes; a point read a few words.
			if allocs := testing.AllocsPerRun(20, func() { p.Eval(ctx, 7) }); allocs > 16 {
				t.Errorf("%s: a point read allocates %.0f times; it must not re-materialise", name, allocs)
			}
		}
	}
}

// TestNestedSessionRecompilesPerWrite: a nested session re-runs the front end
// on the first read after a write, and not on the reads that follow it.
func TestNestedSessionRecompilesPerWrite(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.NewContext(context.Background(), tr)
	p, err := testEngine(t).Prepare(ctx, "out-weight", WithNested(outWeight()))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	compiles := func() uint64 { return tr.Stage(obs.StageCompile).Snapshot().Count }
	before := compiles()
	if err := s.Set(SetWeight("w", []int{0, 1}, 7)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	for x, want := range map[int]string{0: "7", 2: "6"} {
		if got, err := s.Eval(ctx, x); err != nil || string(got) != want {
			t.Errorf("outWeight(%d) after the write = %q, %v; want %s", x, got, err, want)
		}
	}
	if n := compiles() - before; n != 1 {
		t.Errorf("one write and two reads observed %d compile stages; want 1", n)
	}
}

// TestNestedRejectedWriteKeepsMaterialisation: a batch that fails and rolls
// back leaves the nested session's database as it was, so the read after it
// answers from the standing materialisation and compiles nothing.
func TestNestedRejectedWriteKeepsMaterialisation(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.NewContext(context.Background(), tr)
	p, err := testEngine(t).Prepare(ctx, "out-weight", WithNested(outWeight()))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	before, err := s.Eval(ctx, 0)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	compiles := tr.Stage(obs.StageCompile).Snapshot().Count
	if err := s.ApplyBatch([]Change{
		SetWeight("w", []int{0, 1}, 7),
		{Rel: "Nope", Tuple: []int{0}, Present: true},
	}); !errors.Is(err, ErrUpdate) {
		t.Fatalf("bad batch error = %v; want ErrUpdate", err)
	}
	if got, err := s.Eval(ctx, 0); err != nil || got != before {
		t.Errorf("outWeight(0) after the rejected batch = %q, %v; want %q", got, err, before)
	}
	if n := tr.Stage(obs.StageCompile).Snapshot().Count - compiles; n != 0 {
		t.Errorf("a rejected batch and a read observed %d compile stages; want 0", n)
	}
}

// TestNestedSessionFirstReadCompilesNothing: epoch 0 of a nested session is
// the Prepared's own program, so a fresh session's first read compiles
// nothing.
func TestNestedSessionFirstReadCompilesNothing(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.NewContext(context.Background(), tr)
	p, err := testEngine(t).Prepare(ctx, "out-weight", WithNested(outWeight()))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	compiles := tr.Stage(obs.StageCompile).Snapshot().Count
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	if got, err := s.Eval(ctx, 2); err != nil || got != "6" {
		t.Fatalf("outWeight(2) = %q, %v; want 6", got, err)
	}
	if n := tr.Stage(obs.StageCompile).Snapshot().Count - compiles; n != 0 {
		t.Errorf("a fresh session's first read observed %d compile stages; want 0", n)
	}
}

// TestNestedSessionMatchesReference replays seeded scripts of weight and tuple
// writes — edge inserts that change the Gaifman graph, removals,
// re-assertions, writes of a symbol the formula does not read — on a nested
// session and on a mirror database.  After every write it takes a Reader and
// checks it from a goroutine of its own, while the writer moves on, against
// the reference recursion over the mirror as of that write: Eval at every
// element and, for the boolean formula, Enumerate and AnswerCount.
func TestNestedSessionMatchesReference(t *testing.T) {
	const n = 24
	db, err := Generate("nested", n, 5)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx := context.Background()
	for name, q := range map[string]*Nested{
		"point":   avgNeighbourWeight(),
		"closed":  maxAvgNeighbourWeight(),
		"boolean": NGuard("V", []string{"x"}, ConnAtLeast, avgNeighbourWeight(), NConst(3)),
	} {
		t.Run(name, func(t *testing.T) {
			p, err := Open(db).Prepare(ctx, name, WithNested(q))
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			s, err := p.Session()
			if err != nil {
				t.Fatalf("Session: %v", err)
			}
			defer s.Close()
			mirror, err := p.nestedInput()
			if err != nil {
				t.Fatalf("nestedInput: %v", err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			rng := rand.New(rand.NewSource(int64(len(name))))
			for step := 0; step < 40; step++ {
				batch := make([]Change, 1+rng.Intn(3))
				for i := range batch {
					x, y := rng.Intn(n), rng.Intn(n-1)
					switch rng.Intn(4) {
					case 0:
						batch[i] = SetTuple("E", []int{x, (x + 1 + y) % n}, rng.Intn(3) > 0)
					case 1:
						batch[i] = SetTuple("S", []int{x}, rng.Intn(2) == 0)
					default:
						batch[i] = SetWeight("u", []int{x}, int64(rng.Intn(5)))
					}
				}
				if err := s.ApplyBatch(batch); err != nil {
					t.Fatalf("step %d: ApplyBatch(%+v): %v", step, batch, err)
				}
				for _, ch := range batch {
					if ch.Rel != "" {
						err = mirror.db.SetTuple(ch.Rel, ch.Tuple, ch.Present)
					} else {
						err = mirror.db.SetValue(ch.Weight, ch.Tuple, mirror.base.embedAny(ch.Weight, ch.Tuple, ch.Value))
					}
					if err != nil {
						t.Fatalf("step %d: mirror: %v", step, err)
					}
				}
				r, err := s.Snapshot()
				if err != nil {
					t.Fatalf("step %d: Snapshot: %v", step, err)
				}
				wg.Add(1)
				go func(db *nested.Database) {
					defer wg.Done()
					defer r.Close()
					if err := checkNestedReader(ctx, r, mirror.f, db, n); err != nil {
						errs <- fmt.Errorf("step %d: %w", step, err)
					}
				}(mirror.db.Clone())
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if got := s.RetainedUndoBytes(); got != 0 {
				t.Errorf("RetainedUndoBytes = %d after every Reader closed, want 0", got)
			}
		})
	}
}

// checkNestedReader compares a Reader of a nested session with the reference
// recursion over db: Eval at every point and, when the query is enumerable,
// the answer set and its count.
func checkNestedReader(ctx context.Context, r *Reader, f nested.Formula, db *nested.Database, n int) error {
	points := [][]int{nil}
	if vars := r.FreeVars(); len(vars) == 1 {
		points = points[:0]
		for x := 0; x < n; x++ {
			points = append(points, []int{x})
		}
	}
	var want []Answer
	for _, args := range points {
		env := map[string]int{}
		for i, v := range r.FreeVars() {
			env[v] = args[i]
		}
		ref, err := nested.ReferenceEvalAt(db, f, env)
		if err != nil {
			return err
		}
		got, err := r.Eval(ctx, args...)
		if err != nil {
			return fmt.Errorf("epoch %d: Eval(%v): %w", r.Epoch(), args, err)
		}
		if string(got) != f.Out().Format(ref) {
			return fmt.Errorf("epoch %d: Eval(%v) = %s, reference %s", r.Epoch(), args, got, f.Out().Format(ref))
		}
		if ref == true {
			want = append(want, Answer(args))
		}
	}
	if !r.p.Enumerable() {
		return nil
	}
	var got []Answer
	for a, err := range r.Enumerate(ctx) {
		if err != nil {
			return fmt.Errorf("epoch %d: Enumerate: %w", r.Epoch(), err)
		}
		got = append(got, a)
	}
	slices.SortFunc(got, slices.Compare[Answer])
	if !slices.EqualFunc(got, want, slices.Equal[Answer]) {
		return fmt.Errorf("epoch %d: Enumerate = %v, reference %v", r.Epoch(), got, want)
	}
	if count, err := r.AnswerCount(ctx); err != nil || count != int64(len(want)) {
		return fmt.Errorf("epoch %d: AnswerCount = %d, %v; reference %d", r.Epoch(), count, err, len(want))
	}
	return nil
}

// TestNestedSubscribeValue: a value subscription on a nested session follows
// its commits to the final epoch, and Close ends the stream without leaving a
// goroutine behind.
func TestNestedSubscribeValue(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	q := NSum([]string{"x", "y"},
		NTimes(NBracket(NAtom("E", "x", "y")), NWeight("w", "x", "y")))
	p, err := testEngine(t).Prepare(ctx, "nested edge sum", WithNested(q))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base := runtime.NumGoroutine()
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	next, stop := pullSub(ctx, s)
	if u := mustNext(t, next); u.Epoch != 0 || u.Value != "11" {
		t.Fatalf("first update = %+v; want the value 11 at epoch 0", u)
	}
	for _, v := range []int64{3, 4, 5} {
		if err := s.Set(SetWeight("w", []int{0, 1}, v)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if u := awaitEpoch(t, next, 3); u.Epoch != 3 || u.Value != "14" {
		t.Fatalf("final update = %+v; want the value 14 at epoch 3", u)
	}
	s.Close()
	for {
		_, err, ok := next()
		if !ok {
			t.Fatal("stream ended without an error after Close")
		}
		if err != nil {
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("stream ended with %v, want ErrSessionClosed", err)
			}
			break
		}
	}
	stop()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 2s after Session.Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
}
