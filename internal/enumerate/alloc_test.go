package enumerate

import (
	"math"
	"testing"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/workload"
)

// TestNewProgramAllocationsIndependentOfInputs preprocesses the closure of a
// path query the way EnumerateAnswers does past the compilation — the
// generator table, then the enumerator's one pass — on databases a decade
// apart in size: it allocates its arenas and tables, the same number of
// objects at both sizes, and nothing per input.
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
		// The least of three averages sheds the objects a garbage collection
		// cycle running alongside allocates.
		got := math.Inf(1)
		for range 3 {
			got = min(got, testing.AllocsPerRun(10, ans.build))
		}
		t.Logf("n=%d: %d inputs, %.0f allocations", n, ans.Result().Program.NumInputs(), got)
		allocs = append(allocs, got)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("preprocessing allocates %.0f objects at n=600 and %.0f at n=6000, want the same", allocs[0], allocs[1])
	}
}
