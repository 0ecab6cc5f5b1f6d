package enumerate

import (
	"context"
	"testing"

	"repro/internal/circuit"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/workload"
)

// newProgramParallel builds an enumerator whose initial emptiness comes from
// the level-parallel Nonempty pass on workers goroutines.
func newProgramParallel(t *testing.T, p *circuit.Program, inputs func(circuit.Input) Value, workers int) *Enumerator {
	t.Helper()
	nonempty, err := Nonempty(context.Background(), p, inputs, workers)
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
	want := monomialMultiset(collectAll(seq.enum))

	// Gate-level comparison must reuse one compiled program: recompiling can
	// legitimately produce a different (equivalent) circuit.
	for _, workers := range []int{0, 2, 4} {
		par := newProgramParallel(t, p, seq.inputValue, workers)
		for id := 0; id < p.NumGates(); id++ {
			if seq.enum.GateEmpty(id) != par.GateEmpty(id) {
				t.Fatalf("workers=%d: gate %d emptiness differs (seq %v, par %v)",
					workers, id, seq.enum.GateEmpty(id), par.GateEmpty(id))
			}
		}
		got := monomialMultiset(collectAll(par))
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
