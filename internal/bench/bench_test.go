package bench

import (
	"fmt"
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
	if len(reg) != 10 {
		t.Fatalf("expected 10 experiments, got %d", len(reg))
	}
	for i, e := range reg {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("experiment %d has id %s, want %s", i, e.ID, want)
		}
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
