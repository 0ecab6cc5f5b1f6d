// Package repro's top-level benchmarks: one benchmark per experiment E1–E10
// of internal/bench, exercising the core operation whose complexity
// the corresponding table reports.  Run with
//
//	go test -bench=. -benchmem
//
// The full parameter sweeps (tables over several database sizes) are
// produced by cmd/aggbench; these benchmarks fix one representative size so
// that `go test -bench` stays fast and comparable across machines.
package repro

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/perm"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

const benchSize = 4000

// BenchmarkE1CircuitCompilation measures Theorem 6: compiling the triangle
// query over a bounded-degree database.
func BenchmarkE1CircuitCompilation(b *testing.B) {
	db := workload.BoundedDegree(benchSize, 3, 42)
	q := bench.TriangleQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(db.A, q, compile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2WeightedTriangles measures result (A): evaluating the compiled
// triangle query, against the hand-written edge-iteration baseline.
func BenchmarkE2WeightedTriangles(b *testing.B) {
	db := workload.BoundedDegree(benchSize, 3, 7)
	w := db.Weights()
	res, err := compile.Compile(db.A, bench.TriangleQuery(), compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile.Evaluate[int64](res, semiring.Nat, w)
		}
	})
	b.Run("compiled-eval-minplus", func(b *testing.B) {
		mpw := db.MinPlusWeights()
		for i := 0; i < b.N; i++ {
			compile.Evaluate[semiring.Ext](res, semiring.MinPlus, mpw)
		}
	})
	b.Run("edge-iterate-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.TriangleCountEdgeIterate[int64](semiring.Nat, db.A, w)
		}
	})
}

// BenchmarkE3Permanent measures Section 4: static evaluation and the three
// dynamic-maintenance strategies for a 3×n permanent.
func BenchmarkE3Permanent(b *testing.B) {
	const k, n = 3, 100000
	mk := func(s semiring.Semiring[int64], mod int64) *perm.Matrix[int64] {
		m := perm.NewMatrix[int64](s, k, n)
		for r := 0; r < k; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, int64((r*31+c*17)%5+1)%mod)
			}
		}
		return m
	}
	b.Run("static-eval", func(b *testing.B) {
		b.ReportAllocs()
		m := mk(semiring.Nat, 1<<62)
		for i := 0; i < b.N; i++ {
			perm.Perm[int64](semiring.Nat, m)
		}
	})
	b.Run("update-generic-log", func(b *testing.B) {
		b.ReportAllocs()
		d := perm.NewDynamic[int64](semiring.Nat, mk(semiring.Nat, 1<<62))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Update(i%k, (i*37)%n, int64(i%6))
			_ = d.Value()
		}
	})
	b.Run("update-ring-const", func(b *testing.B) {
		b.ReportAllocs()
		d := perm.NewRingDynamic[int64](semiring.Int, mk(semiring.Int, 1<<62))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Update(i%k, (i*37)%n, int64(i%6))
			_ = d.Value()
		}
	})
	b.Run("update-finite-const", func(b *testing.B) {
		b.ReportAllocs()
		mod := semiring.NewModular(7)
		d := perm.NewFiniteDynamic[int64](mod, mk(mod, 7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Update(i%k, (i*37)%n, int64(i%7))
			_ = d.Value()
		}
	})
}

// BenchmarkE4DynamicUpdates measures Theorem 8: weight updates plus value
// reads on the compiled triangle query.
func BenchmarkE4DynamicUpdates(b *testing.B) {
	db := workload.BoundedDegree(benchSize, 3, 11)
	w := db.Weights()
	edges := db.A.Tuples("E")
	q := bench.TriangleQuery()
	b.Run("generic-semiring", func(b *testing.B) {
		query, err := dynamicq.CompileQuery[int64](semiring.Nat, db.A, w, q, compile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tpl := edges[(i*13)%len(edges)]
			if err := query.SetWeight("w", tpl, int64(i%5+1)); err != nil {
				b.Fatal(err)
			}
			if _, err := query.ValueClosed(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ring", func(b *testing.B) {
		query, err := dynamicq.CompileQuery[int64](semiring.Int, db.A, w, q, compile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tpl := edges[(i*13)%len(edges)]
			if err := query.SetWeight("w", tpl, int64(i%5+1)); err != nil {
				b.Fatal(err)
			}
			if _, err := query.ValueClosed(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5Enumeration measures Theorem 24: preprocessing and per-answer
// delay of the 2-path query.
func BenchmarkE5Enumeration(b *testing.B) {
	db := workload.BoundedDegree(benchSize, 3, 19)
	phi := logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.Neg(logic.Equal("x", "z")))
	vars := []string{"x", "y", "z"}
	b.Run("preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enumerate.EnumerateAnswers(db.A, phi, vars, compile.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-answer-delay", func(b *testing.B) {
		ans, err := enumerate.EnumerateAnswers(db.A, phi, vars, compile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cur := ans.Cursor()
		b.ReportAllocs()
		b.ResetTimer()
		answers := 0
		for i := 0; i < b.N; i++ {
			if _, ok := cur.Next(); ok {
				answers++
			} else {
				cur = ans.Cursor()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(answers, 1)), "ns/answer")
	})
}

// BenchmarkE6PageRank measures Example 9: point queries and updates for one
// PageRank round.
func BenchmarkE6PageRank(b *testing.B) {
	db := workload.PreferentialAttachment(benchSize, 2, 23)
	a := db.A
	sig := structure.MustSignature(a.Sig.Relations,
		[]structure.WeightSymbol{{Name: "w", Arity: 1}, {Name: "invdeg", Arity: 1}, {Name: "base", Arity: 0}})
	build := structure.NewBuilder(sig, a.N)
	for _, t := range a.Tuples("E") {
		build.MustAddTuple("E", t...)
	}
	s := build.Build()
	outdeg := make([]float64, a.N)
	for _, t := range a.Tuples("E") {
		outdeg[t[0]]++
	}
	w := structure.NewWeights[float64]()
	for v := 0; v < a.N; v++ {
		w.Set("w", structure.Tuple{v}, 1/float64(a.N))
		if outdeg[v] > 0 {
			w.Set("invdeg", structure.Tuple{v}, 0.85/outdeg[v])
		}
	}
	w.Set("base", structure.Tuple{}, 0.15/float64(a.N))
	f := bench.PageRankQuery()
	q, err := dynamicq.CompileQuery[float64](semiring.Float, s, w, f, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("point-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Value(i % a.N); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weight-update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := q.SetWeight("w", structure.Tuple{i % a.N}, float64(i%7)/float64(a.N)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7NestedQuery measures Theorem 26 on the max-average-neighbour
// query (one end-to-end evaluation at a fixed size).
func BenchmarkE7NestedQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E7NestedQuery([]int{1000})
	}
}

// BenchmarkE8LocalSearch measures Example 25: one full local-search run on a
// grid, driven by the dynamic enumerator.
func BenchmarkE8LocalSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E8LocalSearch([]int{2500})
	}
}

// BenchmarkE9Coloring measures the low-treedepth colouring substrate.
func BenchmarkE9Coloring(b *testing.B) {
	db := workload.Grid(70, 70, 3)
	g := db.A.Gaifman()
	b.Run("p2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.LowTreedepthColoring(g, 2)
		}
	})
	b.Run("p3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.LowTreedepthColoring(g, 3)
		}
	})
}

// BenchmarkE10ProvenancePermanent measures Lemma 23: building and draining the
// enumerator of a permanent whose cell (r, c) is the answer generator e^r_c,
// whose monomials are the k-tuples of distinct columns.
func BenchmarkE10ProvenancePermanent(b *testing.B) {
	const k, n = 2, 50000
	c := circuit.NewBuilder()
	var entries []circuit.PermEntry
	for col := 0; col < n; col++ {
		for row := 0; row < k; row++ {
			entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: c.Input("cell", structure.Ordinary, structure.Tuple{row, col})})
		}
	}
	c.SetOutput(c.Perm(k, n, entries))
	p := c.Program()
	inputs := func(in circuit.Input) (enumerate.Generator, bool) {
		return enumerate.Generator{Var: in.Tuple[0], Elem: in.Tuple[1]}, true
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enumerate.NewProgram(p, inputs)
		}
	})
	b.Run("per-monomial-delay", func(b *testing.B) {
		e := enumerate.NewProgram(p, inputs)
		cur := e.Cursor(k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := cur.Next(); !ok {
				cur = e.Cursor(k)
			}
		}
	})
}
