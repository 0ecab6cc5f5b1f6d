// Ablation benchmarks for the engine's design choices, in addition to the
// per-experiment benchmarks of bench_test.go:
//
//   - A1: the three permanent-maintenance strategies (generic segment tree,
//     ring inclusion–exclusion, finite column-type counting) on the same
//     update stream.
//   - A2: evaluating one circuit in a product semiring versus two separate
//     evaluation passes.
//   - A3: surface-syntax parsing throughput.
//   - A4: low-treedepth colouring cost as the subset size p grows.
//   - A5: cost of a single local-search improvement round.
//   - A6: dbio serialisation round trip.
package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/agg"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/dbio"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/perm"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

// BenchmarkA1PermanentMaintainers compares update latency of the three
// dynamic permanent implementations on a 3×n matrix over ℤ/7 (a carrier all
// three support).
func BenchmarkA1PermanentMaintainers(b *testing.B) {
	const rows, cols = 3, 8192
	mod := semiring.NewModular(7)
	build := func() *perm.Matrix[int64] {
		m := perm.NewMatrix[int64](mod, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, int64((i*31+j*17)%7))
			}
		}
		return m
	}
	run := func(b *testing.B, d perm.Maintainer[int64]) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Update(i%rows, (i*37)%cols, int64(i%7))
		}
		_ = d.Value()
	}
	b.Run("generic-segment-tree", func(b *testing.B) { run(b, perm.NewDynamic[int64](mod, build())) })
	b.Run("ring-inclusion-exclusion", func(b *testing.B) { run(b, perm.NewRingDynamic[int64](mod, build())) })
	b.Run("finite-column-types", func(b *testing.B) { run(b, perm.NewFiniteDynamic[int64](mod, build())) })
}

// BenchmarkA2ProductSemiringSinglePass measures whether evaluating the
// triangle circuit once in Nat×MinPlus is cheaper than evaluating it twice,
// once per factor.
func BenchmarkA2ProductSemiringSinglePass(b *testing.B) {
	db := workload.BoundedDegree(4000, 3, 19)
	res, err := compile.Compile(db.A, bench.TriangleQuery(), compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	w := db.Weights()
	mpw := db.MinPlusWeights()
	prod := semiring.NewProduct[int64, semiring.Ext](semiring.Nat, semiring.MinPlus)
	pw := dbio.ConvertWeights(w, func(v int64) semiring.Pair[int64, semiring.Ext] {
		return semiring.Pair[int64, semiring.Ext]{First: v, Second: semiring.Fin(v)}
	})
	b.Run("two-passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile.Evaluate[int64](res, semiring.Nat, w)
			compile.Evaluate[semiring.Ext](res, semiring.MinPlus, mpw)
		}
	})
	b.Run("one-product-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile.Evaluate[semiring.Pair[int64, semiring.Ext]](res, prod, pw)
		}
	})
}

// BenchmarkA3Parser measures surface-syntax parsing of the triangle query.
func BenchmarkA3Parser(b *testing.B) {
	const src = "sum x, y, z . [E(x,y) & E(y,z) & E(z,x)] * w(x,y) * w(y,z) * w(z,x)"
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseExpr(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4LowTreedepthColoring measures the colouring substrate of
// Proposition 1 for increasing subset sizes p on a grid, and — colouring
// only — at n = 38,400 on the three generators, where it reports the colours
// used and the arcs per vertex of the augmented graph: both are to stay flat
// in n for the compilation to be linear.
func BenchmarkA4LowTreedepthColoring(b *testing.B) {
	for _, in := range []struct {
		name string
		gen  func() *workload.Database
	}{
		{"grid/n=4096", func() *workload.Database { return workload.Grid(64, 64, 3) }},
		{"grid/n=38416", func() *workload.Database { return workload.Grid(196, 196, 1) }},
		{"bounded-degree/n=38400", func() *workload.Database { return workload.BoundedDegree(38400, 3, 1) }},
		{"pref-attach/n=38400", func() *workload.Database { return workload.PreferentialAttachment(38400, 2, 1) }},
	} {
		b.Run(in.name, func(b *testing.B) {
			g := in.gen().A.Gaifman()
			for _, p := range []int{1, 2, 3} {
				b.Run(pName(p), func(b *testing.B) {
					b.ReportAllocs()
					var c *graph.Coloring
					for i := 0; i < b.N; i++ {
						c = graph.LowTreedepthColoring(g, p)
					}
					b.ReportMetric(float64(c.NumColors), "colours")
					b.ReportMetric(float64(c.AugmentedArcs)/float64(g.N()), "arcs/vertex")
				})
			}
		})
	}
}

func pName(p int) string { return "p=" + string(rune('0'+p)) }

// BenchmarkA5LocalSearch measures a full maximal-independent-set local
// search (Example 25) on a grid — encoding the graph, preprocessing the
// improvement query and every round — through agg.Prepared.Search, reporting
// per-operation cost of the whole search so the per-round cost can be derived
// from the round count.
func BenchmarkA5LocalSearch(b *testing.B) {
	ctx := context.Background()
	db := workload.Grid(48, 48, 3)
	var edges [][2]int
	for _, t := range db.A.Tuples("E") {
		edges = append(edges, [2]int{t[0], t[1]})
	}
	g := graph.FromEdges(db.A.N, edges)
	sig := structure.MustSignature([]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}, {Name: "Blocked", Arity: 1}}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build := structure.NewBuilder(sig, g.N())
		for _, e := range g.Edges() {
			build.MustAddTuple("E", e[0], e[1])
			build.MustAddTuple("E", e[1], e[0])
		}
		p, err := agg.Open(agg.FromStructure(build.Build(), nil)).Prepare(ctx, "!S(x) & !Blocked(x)", agg.WithDynamic("S", "Blocked"))
		if err != nil {
			b.Fatal(err)
		}
		s, err := p.Search()
		if err != nil {
			b.Fatal(err)
		}
		// Selecting v selects and blocks it and blocks its neighbourhood, as
		// one wave per round.
		if _, err := s.Run(ctx, func(ans agg.Answer) []agg.Change {
			v := ans[0]
			changes := []agg.Change{agg.SetTuple("S", []int{v}, true), agg.SetTuple("Blocked", []int{v}, true)}
			for _, u := range g.Neighbors(v) {
				changes = append(changes, agg.SetTuple("Blocked", []int{u}, true))
			}
			return changes
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA6DbioRoundTrip measures serialising and re-parsing a database.
func BenchmarkA6DbioRoundTrip(b *testing.B) {
	db := workload.BoundedDegree(10000, 3, 5)
	w := db.Weights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := dbio.Write(&buf, db.A, w); err != nil {
			b.Fatal(err)
		}
		if _, err := dbio.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
