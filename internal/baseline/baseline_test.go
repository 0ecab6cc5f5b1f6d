package baseline

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/workload"
)

func TestTriangleBaselinesAgree(t *testing.T) {
	// The naive evaluator is cubic in n (n=300 took over a minute), so the
	// sizes stay small; both still plant triangles.
	n := 150
	if testing.Short() {
		n = 100
	}
	db := workload.BoundedDegree(n, 3, 5)
	w := db.Weights()
	q := expr.Agg([]string{"x", "y", "z"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
		expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
	))
	naive := EvalExpression[int64](semiring.Nat, db.A, w, q)
	fast := TriangleCountEdgeIterate[int64](semiring.Nat, db.A, w)
	if naive != fast {
		t.Fatalf("naive %d and edge-iterate %d disagree", naive, fast)
	}
	if naive == 0 {
		t.Fatalf("expected the generator to plant triangles")
	}
	// Min-plus variant.
	mp := TriangleCountEdgeIterate[semiring.Ext](semiring.MinPlus, db.A, db.MinPlusWeights())
	mpNaive := EvalExpression[semiring.Ext](semiring.MinPlus, db.A, db.MinPlusWeights(), q)
	if !semiring.MinPlus.Equal(mp, mpNaive) {
		t.Fatalf("min-plus baselines disagree: %v vs %v", mp, mpNaive)
	}
}

func TestMaterializeAnswers(t *testing.T) {
	db := workload.Grid(6, 6, 1)
	phi := logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"))
	answers := MaterializeAnswers(phi, db.A, []string{"x", "y", "z"})
	for _, a := range answers {
		if !db.A.HasTuple("E", a[0], a[1]) || !db.A.HasTuple("E", a[1], a[2]) {
			t.Fatalf("non-answer %v materialised", a)
		}
	}
	if len(answers) == 0 {
		t.Fatalf("expected some 2-paths in a grid")
	}
}
