package enumerate

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/workload"
)

// TestNewProgramParallelMatchesSequential checks that the level-parallel emptiness pass
// produces an enumerator indistinguishable from the sequential one: same
// per-gate emptiness and the same multiset of enumerated monomials.
func TestNewProgramParallelMatchesSequential(t *testing.T) {
	db := workload.Grid(12, 12, 3)
	phi := parser.MustParseFormula("E(x,y) & E(y,z) & !(x = z)")
	vars := []string{"x", "y", "z"}

	seq, err := EnumerateAnswers(db.A, phi, vars, compile.Options{})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	p := seq.Result().Program
	want := monomialMultiset(seq.enum.CollectAll(0))

	// Gate-level comparison must reuse one compiled program: recompiling can
	// legitimately produce a different (equivalent) circuit.
	for _, workers := range []int{0, 2, 4} {
		par := NewProgramParallel(p, seq.inputValue, workers)
		for id := 0; id < p.NumGates(); id++ {
			if seq.enum.GateEmpty(id) != par.GateEmpty(id) {
				t.Fatalf("workers=%d: gate %d emptiness differs (seq %v, par %v)",
					workers, id, seq.enum.GateEmpty(id), par.GateEmpty(id))
			}
		}
		got := monomialMultiset(par.CollectAll(0))
		if !equalStringSlices(got, want) {
			t.Fatalf("workers=%d: parallel preprocessing enumerates a different answer multiset", workers)
		}
	}

	// The end-to-end wrapper compiles its own circuit; compare semantics.
	par, err := EnumerateAnswersParallel(db.A, phi, vars, compile.Options{}, 4)
	if err != nil {
		t.Fatalf("EnumerateAnswersParallel: %v", err)
	}
	if got, wantN := par.Count(), seq.Count(); got != wantN {
		t.Fatalf("EnumerateAnswersParallel Count = %d, want %d", got, wantN)
	}
	if got, wantN := len(par.Collect(0)), len(want); got != wantN {
		t.Fatalf("EnumerateAnswersParallel yields %d answers, want %d", got, wantN)
	}
}
