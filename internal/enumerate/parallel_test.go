package enumerate

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/workload"
)

// newProgramParallel builds an enumerator whose initial emptiness comes from
// the level-parallel Nonempty pass on workers goroutines.
func newProgramParallel(t *testing.T, p *circuit.Program, inputs func(circuit.Input) (Generator, bool), workers int) *Enumerator {
	t.Helper()
	present := func(in circuit.Input) bool {
		_, ok := inputs(in)
		return ok
	}
	nonempty, err := Nonempty(context.Background(), p, present, workers)
	if err != nil {
		t.Fatalf("Nonempty: %v", err)
	}
	return NewProgram(p, inputs, nonempty)
}

// TestNonemptyMatchesSequential checks that the level-parallel emptiness pass
// (Nonempty, handed to NewProgram) produces an enumerator indistinguishable
// from the sequential one: same per-gate emptiness and the same multiset of
// enumerated monomials.
func TestNonemptyMatchesSequential(t *testing.T) {
	db := workload.Grid(12, 12, 3)
	phi := parser.MustParseFormula("E(x,y) & E(y,z) & !(x = z)")
	vars := []string{"x", "y", "z"}

	seq, err := EnumerateAnswers(db.A, phi, vars, compile.Options{})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	p := seq.Result().Program
	want := drain(seq.Cursor())
	inputs := func(in circuit.Input) (Generator, bool) {
		return seq.enum.gens[p.InputNumber(in.Gate)], seq.present(in)
	}

	// Gate-level comparison must reuse one compiled program: recompiling can
	// legitimately produce a different (equivalent) circuit.
	for _, workers := range []int{0, 2, 4} {
		par := newProgramParallel(t, p, inputs, workers)
		for id := 0; id < p.NumGates(); id++ {
			if seq.enum.GateEmpty(id) != par.GateEmpty(id) {
				t.Fatalf("workers=%d: gate %d emptiness differs (seq %v, par %v)",
					workers, id, seq.enum.GateEmpty(id), par.GateEmpty(id))
			}
		}
		got := drain(par.Cursor(seq.Shared().Arity()))
		if !equalStringSlices(got, want) {
			t.Fatalf("workers=%d: parallel preprocessing enumerates a different answer multiset", workers)
		}
	}

	// The end-to-end wrapper compiles its own circuit; compare semantics.
	par, err := EnumerateAnswersCtx(context.Background(), db.A, phi, vars, compile.Options{}, 4)
	if err != nil {
		t.Fatalf("EnumerateAnswersCtx: %v", err)
	}
	if got, wantN := par.Count(), seq.Count(); got != wantN {
		t.Fatalf("EnumerateAnswersCtx Count = %d, want %d", got, wantN)
	}
	if got, wantN := len(par.Collect(0)), len(want); got != wantN {
		t.Fatalf("EnumerateAnswersCtx yields %d answers, want %d", got, wantN)
	}
}

// TestNewProgramAllocationsIndependentOfInputs preprocesses the closure of a
// path query the way EnumerateAnswersCtx does past the compilation — the
// emptiness pass Nonempty, the generator table, the enumerator — on
// databases a decade apart in size: it allocates its arenas and tables, the
// same number of objects at both sizes, and nothing per input.
func TestNewProgramAllocationsIndependentOfInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 6,000-element database")
	}
	phi := parser.MustParseFormula("E(x,y) & E(y,z) & S(x)")
	vars := []string{"x", "y", "z"}
	var allocs []float64
	for _, n := range []int{600, 6000} {
		ans, err := closeAnswers(workload.BoundedDegree(n, 3, 1).A, phi, vars, compile.Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// One worker keeps the pass on this goroutine: the level-parallel
		// fork allocates per level wide enough to split, and the two circuits
		// differ in depth.  The least of three averages sheds the objects a
		// garbage collection cycle running alongside allocates.
		got := math.Inf(1)
		for range 3 {
			got = min(got, testing.AllocsPerRun(10, func() {
				if err := ans.preprocess(context.Background(), 1); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("n=%d: %d inputs, %.0f allocations", n, ans.Result().Program.NumInputs(), got)
		allocs = append(allocs, got)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("preprocessing allocates %.0f objects at n=600 and %.0f at n=6000, want the same", allocs[0], allocs[1])
	}
}
