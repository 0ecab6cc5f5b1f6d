package workload

import (
	"testing"

	"repro/internal/semiring"
)

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		db   *Database
	}{
		{"bounded-degree", BoundedDegree(500, 3, 1)},
		{"grid", Grid(20, 25, 1)},
		{"forest", Forest(400, 3, 1)},
		{"pref-attach", PreferentialAttachment(500, 2, 1)},
		{"road", RoadNetwork(20, 20, 40, 1)},
		{"nested", NestedAgg(500, 3, 1)},
		{"search", Search(500, 3, 1)},
	}
	for _, c := range cases {
		a := c.db.A
		if a.N == 0 || len(a.Tuples("E")) == 0 {
			t.Errorf("%s: empty database", c.name)
		}
		// Weights cover every edge and every vertex.
		for _, tup := range a.Tuples("E") {
			if c.db.EdgeWeight[[2]int(tup)] <= 0 {
				t.Errorf("%s: missing edge weight for %v", c.name, tup)
			}
		}
		if len(c.db.VertexWeight) != a.N {
			t.Errorf("%s: vertex weights have wrong length", c.name)
		}
		// Degeneracy stays small: these are bounded-expansion classes.
		_, d := a.Gaifman().DegeneracyOrder()
		if d > 12 {
			t.Errorf("%s: degeneracy %d unexpectedly large", c.name, d)
		}
		// Weight conversions.
		w := c.db.Weights()
		if w.Len() == 0 {
			t.Errorf("%s: empty weight assignment", c.name)
		}
		mp := c.db.MinPlusWeights()
		if mp.Len() != w.Len() {
			t.Errorf("%s: min-plus weights have different cardinality", c.name)
		}
		bw := WeightsIn(c.db, func(v int64) bool { return v != 0 })
		if bw.Len() != w.Len() {
			t.Errorf("%s: boolean weights have different cardinality", c.name)
		}
		if err := w.Validate(a, func(v int64) bool { return v == 0 }); err != nil {
			t.Errorf("%s: weights violate the Gaifman discipline: %v", c.name, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := BoundedDegree(300, 3, 42)
	b := BoundedDegree(300, 3, 42)
	if a.A.TupleCount() != b.A.TupleCount() {
		t.Errorf("same seed produced different databases")
	}
	c := BoundedDegree(300, 3, 43)
	if a.A.TupleCount() == c.A.TupleCount() && len(a.EdgeWeight) == len(c.EdgeWeight) {
		// Tuple counts may coincide, but the edge sets should differ.
		same := true
		for k := range a.EdgeWeight {
			if _, ok := c.EdgeWeight[k]; !ok {
				same = false
				break
			}
		}
		if same {
			t.Errorf("different seeds produced identical edge sets")
		}
	}
}

func TestGridHasTriangles(t *testing.T) {
	db := Grid(10, 10, 1)
	a := db.A
	found := false
	for _, e := range a.Tuples("E") {
		x, y := e[0], e[1]
		for _, f := range a.Tuples("E") {
			if f[0] == y && a.HasTuple("E", f[1], x) {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("grid generator should plant directed triangles")
	}
	_ = semiring.Nat
}

func TestNestedAggGuardCoversDomain(t *testing.T) {
	db := NestedAgg(300, 3, 2)
	for v := 0; v < db.A.N; v++ {
		if !db.A.HasTuple("V", v) {
			t.Fatalf("guard relation V misses vertex %d", v)
		}
	}
	if len(db.A.Tuples("S")) == 0 {
		t.Error("no vertices marked S")
	}
}

func TestSearchWorkloadShape(t *testing.T) {
	db := Search(300, 3, 2)
	for _, e := range db.A.Tuples("E") {
		if !db.A.HasTuple("E", e[1], e[0]) {
			t.Fatalf("edge %v is not symmetric", e)
		}
	}
	for _, rel := range []string{"S", "B", "D"} {
		if n := len(db.A.Tuples(rel)); n != 0 {
			t.Errorf("solution predicate %s starts with %d tuples, want 0", rel, n)
		}
	}
}

// TestMillionTupleScale documents the satellite requirement that the nested
// and search workloads generate at ≥ 10⁶ tuples; skipped under -short.
func TestMillionTupleScale(t *testing.T) {
	if testing.Short() {
		t.Skip("million-tuple generation is skipped in -short mode")
	}
	if n := NestedAgg(400_000, 3, 1).A.TupleCount(); n < 1_000_000 {
		t.Errorf("nested workload has %d tuples, want ≥ 10⁶", n)
	}
	if n := Search(350_000, 3, 1).A.TupleCount(); n < 1_000_000 {
		t.Errorf("search workload has %d tuples, want ≥ 10⁶", n)
	}
}
