// Package baseline provides the naive comparison algorithms that tests,
// benchmarks and perf/'s oracles check the engines against: direct
// nested-loop evaluation of weighted queries, brute-force first-order model
// checking, and materialised answer enumeration.  These are the "flat"
// evaluation strategies that the paper's factorized circuit representation is
// measured against.
package baseline

import (
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// EvalExpression evaluates a weighted expression by direct recursion over
// the domain (data complexity N^aggregation-depth).  It simply re-exports
// the reference evaluator so that benchmarks read naturally.
func EvalExpression[T any](s semiring.Semiring[T], a *structure.Structure, w *structure.Weights[T], e expr.Expr) T {
	return expr.Eval(s, a, w, e, map[string]structure.Element{})
}

// MaterializeAnswers computes all answers of a first-order query by brute
// force.
func MaterializeAnswers(f logic.Formula, a *structure.Structure, vars []string) []structure.Tuple {
	return logic.Answers(f, a, vars)
}

// TriangleCountEdgeIterate counts weighted directed triangles with the
// classical hand-written nested-loop-over-edges algorithm (iterate over
// edges (x,y), then over out-neighbours z of y, and test the closing edge).
// It is a stronger baseline than the generic evaluator and is the natural
// comparison point for experiment E2.
func TriangleCountEdgeIterate[T any](s semiring.Semiring[T], a *structure.Structure, w *structure.Weights[T]) T {
	// Index out-neighbours.
	out := make([][]structure.Element, a.N)
	for _, t := range a.Tuples("E") {
		out[t[0]] = append(out[t[0]], t[1])
	}
	total := s.Zero()
	for _, t := range a.Tuples("E") {
		x, y := t[0], t[1]
		wxy, okxy := w.Get("w", structure.Tuple{x, y})
		if !okxy {
			continue
		}
		for _, z := range out[y] {
			if !a.HasTuple("E", z, x) {
				continue
			}
			wyz, ok1 := w.Get("w", structure.Tuple{y, z})
			wzx, ok2 := w.Get("w", structure.Tuple{z, x})
			if !ok1 || !ok2 {
				continue
			}
			total = s.Add(total, s.Mul(wxy, s.Mul(wyz, wzx)))
		}
	}
	return total
}
