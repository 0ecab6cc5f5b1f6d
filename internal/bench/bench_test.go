package bench

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Title:  "example",
		Claim:  "a claim",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
		Notes:  []string{"a note"},
	}
	text := tab.String()
	if !strings.Contains(text, "EX") || !strings.Contains(text, "a note") || !strings.Contains(text, "3") {
		t.Errorf("plain rendering missing content:\n%s", text)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("markdown rendering missing content:\n%s", md)
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	reg := Registry(true)
	if len(reg) != 19 { // E1–E20 without the retired E14
		t.Fatalf("expected 19 experiments, got %d", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestRunExperimentsPreservesOrder checks that the concurrent sweep runner
// returns tables in registry order regardless of completion order.
func TestRunExperimentsPreservesOrder(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"X1", "X2", "X3", "X4", "X5"} {
		id := id
		exps = append(exps, Experiment{ID: id, Run: func() *Table { return &Table{ID: id} }})
	}
	for _, workers := range []int{1, 3, 8} {
		tables := RunExperiments(exps, workers)
		if len(tables) != len(exps) {
			t.Fatalf("workers=%d: got %d tables, want %d", workers, len(tables), len(exps))
		}
		for i, tab := range tables {
			if tab.ID != exps[i].ID {
				t.Errorf("workers=%d: table %d has id %s, want %s", workers, i, tab.ID, exps[i].ID)
			}
		}
	}
}

// TestE13BatchedUpdatesSmoke runs the batched-update experiment at a smoke
// size.  Unlike the full sweep it stays enabled under -short, so every CI
// run exercises the batched engine end to end: E13 cross-checks the final
// per-update and batched values internally and panics on mismatch, and its
// last column asserts the zero-allocation steady state of the generic path.
func TestE13BatchedUpdatesSmoke(t *testing.T) {
	total := 10000
	if testing.Short() {
		total = 2000
	}
	tab := E13BatchedUpdates([]int{300}, total, 512, 32)
	if len(tab.Rows) != 1 {
		t.Fatalf("E13 produced %d rows, want 1", len(tab.Rows))
	}
	if allocs := tab.Rows[0][len(tab.Rows[0])-1]; allocs != "0.000" {
		t.Errorf("E13 reports %s allocs per steady-state generic-path update, want 0.000", allocs)
	}
}

// TestSmallExperimentsRun executes a few experiments at tiny sizes to make
// sure the harness itself is sound (values cross-checked inside panics on
// mismatch).  The sizes keep the whole test to seconds: E2's naive
// comparator is cubic (n=600 alone took four minutes), so it runs at the
// smaller size only; the linear engines are cross-checked at both.
func TestSmallExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	small := []int{150, 300}
	tables := []*Table{
		E1CircuitCompilation(small),
		E2WeightedTriangles(small, 150),
		E3Permanent([]int{500, 1000}),
		E4DynamicUpdates(small),
		E5Enumeration(small),
		E9Coloring([]int{300}),
		E10ProvenancePermanent([]int{500}),
		E11ParallelEvaluation(small, 2),
		E12ServingThroughput([]int{300}, 8),
		E13BatchedUpdates([]int{300}, 3000, 512, 32),
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("experiment %s produced no rows", tab.ID)
		}
		if tab.String() == "" || tab.Markdown() == "" {
			t.Errorf("experiment %s produced empty rendering", tab.ID)
		}
	}
}
