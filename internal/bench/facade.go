package bench

import (
	"context"
	"fmt"

	"repro/agg"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// E15FacadeOverhead measures the public repro/agg facade against the raw
// internal engines on the same workload: Prepare versus compile.Compile
// (one-time cost) and Prepared.Eval versus compile.EvaluateParallel
// (per-evaluation cost, amortised over reps).  The claim is that the facade
// is a zero-cost abstraction on the hot path: its per-eval overhead is the
// context check plus one formatting pass.
func E15FacadeOverhead(sizes []int, reps int) *Table {
	if reps < 3 {
		reps = 3
	}
	t := &Table{
		ID:     "E15",
		Title:  "Public facade overhead: repro/agg vs the internal engines",
		Claim:  "agg.Prepare/Eval add no measurable cost over compile.Compile/EvaluateParallel — embedding through the public API is free",
		Header: []string{"n", "compile (internal)", "Prepare (agg)", "eval (internal)", "Eval (agg)", "eval overhead"},
	}
	const exprText = "sum x, y, z . [E(x,y) & E(y,z) & !(x = z)] * u(x) * u(z)"
	ctx := context.Background()

	for _, n := range sizes {
		db := workload.BoundedDegree(n, 3, 7)
		e := parser.MustParseExpr(exprText)

		// One-time costs.
		var res *compile.Result
		compileDur := timeIt(func() {
			var err error
			res, err = compile.Compile(db.A, e, compile.Options{})
			if err != nil {
				panic(fmt.Sprintf("E15: compile: %v", err))
			}
		})
		eng := agg.Open(agg.FromStructure(db.A, db.Weights()))
		var p *agg.Prepared
		prepareDur := timeIt(func() {
			var err error
			p, err = eng.Prepare(ctx, exprText)
			if err != nil {
				panic(fmt.Sprintf("E15: prepare: %v", err))
			}
		})

		// Per-evaluation costs: best-of-reps, because sub-millisecond
		// parallel evaluations are dominated by scheduler jitter and the
		// minimum is the stable statistic.
		w := db.Weights()
		var internalVal int64
		internalDur := bestOf(reps, func() {
			internalVal = compile.EvaluateParallel[int64](res, semiring.Nat, w, 0)
		})
		var facadeVal agg.Value
		facadeDur := bestOf(reps, func() {
			var err error
			facadeVal, err = p.Eval(ctx)
			if err != nil {
				panic(fmt.Sprintf("E15: eval: %v", err))
			}
		})

		if fmt.Sprint(internalVal) != string(facadeVal) {
			panic(fmt.Sprintf("E15: facade value %s != internal value %d", facadeVal, internalVal))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(compileDur), dur(prepareDur),
			dur(internalDur), dur(facadeDur),
			fmt.Sprintf("%+.1f%%", 100*(float64(facadeDur)-float64(internalDur))/float64(internalDur)),
		})
	}
	t.Notes = append(t.Notes,
		"both paths share the frozen Program engine; the facade adds semiring lookup, option handling and one Format call",
		fmt.Sprintf("per-eval timings are the best of %d runs on the default worker pool", reps))
	return t
}
