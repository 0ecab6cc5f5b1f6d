// Benchmarks of the paired session: an enumerable query with a dynamic
// relation, whose session keeps a value state and an answer state over one
// Program.  No workload of the repository's benchmark (perf/) opens one, so
// these say what its write, pin and pinned-enumeration paths cost.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/agg"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

const pairedGrid = 16 // a 16×16 grid: 256 vertices, one S toggle each

// pairedBenchSession opens a session of "E(x,y) & S(x)" with S dynamic on a
// grid where S holds the even vertices.
func pairedBenchSession(b *testing.B) *agg.Session {
	b.Helper()
	grid := workload.Grid(pairedGrid, pairedGrid, 3)
	sig := structure.MustSignature([]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}}, nil)
	build := structure.NewBuilder(sig, grid.A.N)
	for _, t := range grid.A.Tuples("E") {
		build.MustAddTuple("E", t[0], t[1])
	}
	for v := 0; v < grid.A.N; v += 2 {
		build.MustAddTuple("S", v)
	}
	a := build.Build()
	p, err := agg.Open(agg.FromStructure(a, nil)).Prepare(context.Background(), "E(x,y) & S(x)", agg.WithDynamic("S"))
	if err != nil {
		b.Fatal(err)
	}
	s, err := p.Session()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkPairedSessionSet flips the membership of one vertex in S per
// operation: one write section over both engine states, one commit.
func BenchmarkPairedSessionSet(b *testing.B) {
	s := pairedBenchSession(b)
	n := pairedGrid * pairedGrid
	vertex := make([][]int, n)
	for v := range vertex {
		vertex[v] = []int{v}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Round r of the sweep sets every vertex to the parity it did not have.
		v, round := i%n, i/n
		if err := s.Set(agg.SetTuple("S", vertex[v], (v+round)%2 == 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairedSessionApplyBatch256 flips all 256 vertices per operation,
// as one batch: one wave per state, one commit.
func BenchmarkPairedSessionApplyBatch256(b *testing.B) {
	s := pairedBenchSession(b)
	batch := make([]agg.Change, pairedGrid*pairedGrid)
	for v := range batch {
		batch[v] = agg.SetTuple("S", []int{v}, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range batch {
			batch[v].Present = (v+i)%2 == 1
		}
		if err := s.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairedSessionSnapshot opens and closes one Reader per operation.
func BenchmarkPairedSessionSnapshot(b *testing.B) {
	s := pairedBenchSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkPairedSessionReaderEnumerate streams the whole answer set through
// a fresh Reader per operation, with one committed write since the previous
// one, so each pin has undo history to roll back through.
func BenchmarkPairedSessionReaderEnumerate(b *testing.B) {
	ctx := context.Background()
	s := pairedBenchSession(b)
	var answers int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Set(agg.SetTuple("S", []int{0}, i%2 == 1)); err != nil {
			b.Fatal(err)
		}
		answers = 0
		for _, err := range r.Enumerate(ctx) {
			if err != nil {
				b.Fatal(err)
			}
			answers++
		}
		r.Close()
	}
	if answers == 0 {
		b.Fatal("no answers enumerated")
	}
}

// BenchmarkPairedPointRead reads one point of "sum y . [E(x,y)] * u(x) * u(y)"
// through the engine's one point evaluator, an overlay that raises the
// parameter weights at the point over values it does not write (Theorem 8).
// Its arms differ only in the values read: "static" is Prepared.Eval, on the
// gate values evaluated once at its first point read, which nothing writes;
// "session" is Session.Eval, on the session's live values under its clock's
// shared lock; "reader" is Reader.Eval, on those values rolled back to the
// epoch a Snapshot pinned; "static-parallel" and "session-parallel" are the
// static and session reads on every GOMAXPROCS goroutine at once, the first
// taking no lock and the second only the shared one.  The
// "siblings" cells read session_rw's point query on its pref-attach input:
// its shapes put y and z on one level as two sibling slots, which the grid
// query's one-variable shapes never do.
func BenchmarkPairedPointRead(b *testing.B) {
	ctx := context.Background()
	type input struct {
		prefix, kind, query string
		n                   int
		semirings           []string
	}
	var inputs []input
	for _, n := range []int{600, 2400, 9600} {
		inputs = append(inputs, input{"", "grid", "sum y . [E(x,y)] * u(x) * u(y)", n, []string{"natural", "minplus"}})
	}
	inputs = append(inputs, input{"siblings/pref-attach/", "pref-attach", "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)", 1500, []string{"natural"}})
	for _, in := range inputs {
		db, err := agg.Generate(in.kind, in.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, semiring := range in.semirings {
			p, err := agg.Open(db).Prepare(ctx, in.query, agg.WithSemiring(semiring))
			if err != nil {
				b.Fatal(err)
			}
			s, err := p.Session()
			if err != nil {
				b.Fatal(err)
			}
			r, err := s.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { r.Close(); s.Close() })
			elements := db.Elements()
			for _, read := range []struct {
				name string
				eval func(context.Context, ...int) (agg.Value, error)
			}{{"static", p.Eval}, {"session", s.Eval}, {"reader", r.Eval}} {
				b.Run(fmt.Sprintf("%sn=%d/%s/%s", in.prefix, in.n, semiring, read.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := read.eval(ctx, i%elements); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			for _, read := range []struct {
				name string
				eval func(context.Context, ...int) (agg.Value, error)
			}{{"static-parallel", p.Eval}, {"session-parallel", s.Eval}} {
				b.Run(fmt.Sprintf("%sn=%d/%s/%s", in.prefix, in.n, semiring, read.name), func(b *testing.B) {
					b.ReportAllocs()
					var next atomic.Int64
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							if _, err := read.eval(ctx, int(next.Add(1))%elements); err != nil {
								b.Error(err)
								return
							}
						}
					})
				})
			}
		}
	}
}

// BenchmarkPairedNestedPointRead reads the README's nested query — the
// average weight of x's out-neighbours, ⌊Σ_y [E(x,y)]·u(y) / Σ_y [E(x,y)]⌋
// under the guard V(x) — at one point per operation, beside the flat point
// read of its numerator.  Both are reads of a program Prepare compiled, so
// they should sit within a small factor of each other and neither should grow
// with n.
func BenchmarkPairedNestedPointRead(b *testing.B) {
	ctx := context.Background()
	sumW := agg.NSum([]string{"y"}, agg.NTimes(agg.NBracket(agg.NAtom("E", "x", "y")), agg.NWeight("u", "y")))
	degree := agg.NSum([]string{"y"}, agg.NBracket(agg.NAtom("E", "x", "y")))
	avg := agg.NGuard("V", []string{"x"}, agg.ConnRatio, sumW, degree)
	for _, n := range []int{1000, 4000} {
		db, err := agg.Generate("nested", n, 13)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			query string
			opts  []agg.Option
		}{
			{"nested", "average neighbour weight", []agg.Option{agg.WithNested(avg)}},
			{"flat", "sum y . [E(x,y)] * u(y)", nil},
		} {
			p, err := agg.Open(db).Prepare(ctx, c.query, c.opts...)
			if err != nil {
				b.Fatal(err)
			}
			elements := db.Elements()
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.Eval(ctx, i%elements); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPairedNestedSession measures a session of the nested query of
// BenchmarkPairedNestedPointRead, per operation: "first-read" opens a session
// and reads one point; "write" sets a vertex weight the query reads, with no
// Reader open; "pinned-write" sets one while a Reader is open; "write-read"
// sets one and reads a point, so that every read is the first of its epoch.
func BenchmarkPairedNestedSession(b *testing.B) {
	ctx := context.Background()
	sumW := agg.NSum([]string{"y"}, agg.NTimes(agg.NBracket(agg.NAtom("E", "x", "y")), agg.NWeight("u", "y")))
	degree := agg.NSum([]string{"y"}, agg.NBracket(agg.NAtom("E", "x", "y")))
	avg := agg.NGuard("V", []string{"x"}, agg.ConnRatio, sumW, degree)
	for _, n := range []int{1000, 4000} {
		db, err := agg.Generate("nested", n, 13)
		if err != nil {
			b.Fatal(err)
		}
		p, err := agg.Open(db).Prepare(ctx, "average neighbour weight", agg.WithNested(avg))
		if err != nil {
			b.Fatal(err)
		}
		open := func(b *testing.B) *agg.Session {
			s, err := p.Session()
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}
		// set gives u(i mod n) a value no earlier operation gave it.
		set := func(b *testing.B, s *agg.Session, i int) {
			if err := s.Set(agg.SetWeight("u", []int{i % n}, int64(100+i))); err != nil {
				b.Fatal(err)
			}
		}
		read := func(b *testing.B, s *agg.Session, i int) {
			if _, err := s.Eval(ctx, i%n); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("n=%d/first-read", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := p.Session()
				if err != nil {
					b.Fatal(err)
				}
				read(b, s, i)
				s.Close()
			}
		})
		b.Run(fmt.Sprintf("n=%d/write", n), func(b *testing.B) {
			s := open(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set(b, s, i)
			}
		})
		b.Run(fmt.Sprintf("n=%d/pinned-write", n), func(b *testing.B) {
			s := open(b)
			r, err := s.Snapshot()
			if err != nil {
				b.Skipf("Snapshot: %v", err)
			}
			defer r.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set(b, s, i)
			}
		})
		b.Run(fmt.Sprintf("n=%d/write-read", n), func(b *testing.B) {
			s := open(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set(b, s, i)
				read(b, s, i)
			}
		})
	}
}

// BenchmarkPairedColdPrepare is the repository benchmark's cold_prepare
// workload without its harness: a fresh Engine and one Prepare per operation
// — parse, quantifier elimination, colouring, compile, freeze, nothing cached
// — of the three cold_prepare queries on its input (bounded-degree, n = 600)
// and of the session workloads' point query on theirs (pref-attach, n = 1,500).
// The queries are spelled as in perf/oracle.go.
func BenchmarkPairedColdPrepare(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name, kind string
		n          int
		query      string
	}{
		{"triangle", "bounded-degree", 600, "sum x,y,z . [E(x,y)&E(y,z)&E(z,x)] * w(x,y)*w(y,z)*w(z,x)"},
		{"path", "bounded-degree", 600, "E(x,y) & E(y,z) & S(x)"},
		{"exists", "bounded-degree", 600, "sum x . [exists y . E(x,y) & S(y)] * u(x)"},
		{"point", "pref-attach", 1500, "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"},
	} {
		db, err := agg.Generate(c.kind, c.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%s/n=%d", c.name, c.kind, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := agg.Open(db).Prepare(ctx, c.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairedSessionOpen opens and closes one session per operation: what
// every engine state over the shared Program builds per instance.  "point" is
// the repository benchmark's session_rw query on its input (one value state);
// "paired" is an enumerable query with a dynamic relation, whose session also
// clones the answer state.
func BenchmarkPairedSessionOpen(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name, kind string
		n          int
		query      string
		opts       []agg.Option
	}{
		{"point", "pref-attach", 1500, "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)", nil},
		{"paired", "bounded-degree", 1200, "E(x,y) & E(y,z) & S(x)", []agg.Option{agg.WithDynamic("S")}},
	} {
		db, err := agg.Generate(c.kind, c.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		p, err := agg.Open(db).Prepare(ctx, c.query, c.opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%s/n=%d", c.name, c.kind, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := p.Session()
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// benchRingCarrier is semiring.Int under a name of its own: the same int64
// arithmetic as "natural", but a ring, so its sessions take the ring update
// strategy.
const benchRingCarrier = "bench-integer"

var registerBenchRingOnce sync.Once

// BenchmarkPairedStrategySession runs session_rw's query on one Prepared
// under the circuit's three update strategies: "natural" (generic: segment
// trees), the ℤ ring (difference updates and inclusion–exclusion permanents)
// and "boolean" (finite: value and column-type counts).  "set" is one u
// weight Set at a random vertex, flipping it between zero and non-zero so
// that it changes the value in every carrier; "open" is one Session() open
// and close.  The point query's session leaves out every gate its parameter
// holds at zero, so "closed-set" and "closed-open" run the same on the query
// closed over x, whose session maintains every gate.  Its permanents are the
// levels where two sibling slots can take one data node: none at
// pref-attach n = 1,500, 81 at bounded-degree n = 6,000.
func BenchmarkPairedStrategySession(b *testing.B) {
	registerBenchRingOnce.Do(func() {
		agg.MustRegister(agg.NewSemiring[int64](benchRingCarrier, semiring.Int,
			func(_ string, _ []int, v int64) int64 { return v }))
	})
	ctx := context.Background()
	for _, in := range []struct {
		kind string
		n    int
	}{{"bounded-degree", 6000}, {"pref-attach", 1500}} {
		db, err := agg.Generate(in.kind, in.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []struct{ prefix, query string }{
			{"", "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"},
			{"closed-", "sum x,y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"},
		} {
			natural, err := agg.Open(db).Prepare(ctx, q.query)
			if err != nil {
				b.Fatal(err)
			}
			for _, carrier := range []string{"natural", benchRingCarrier, "boolean"} {
				p, err := natural.In(carrier)
				if err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/n=%d", carrier, in.kind, in.n)
				b.Run(q.prefix+"set/"+name, func(b *testing.B) { benchStrategySet(b, p, in.n) })
				b.Run(q.prefix+"open/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						s, err := p.Session()
						if err != nil {
							b.Fatal(err)
						}
						s.Close()
					}
				})
			}
		}
	}
}

// benchStrategySet times one u Set on a session of p over n vertices, at a
// random vertex, flipping its weight between zero and non-zero.
func benchStrategySet(b *testing.B, p *agg.Prepared, n int) {
	s, err := p.Session()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(1))
	vertex := make([][]int, n)
	zero := make([]bool, n) // the generated weights are non-zero
	for v := range vertex {
		vertex[v] = []int{v}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Intn(n)
		zero[v] = !zero[v]
		w := int64(1)
		if zero[v] {
			w = 0
		}
		if err := s.Set(agg.SetWeight("u", vertex[v], w)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairedClosedEval is the repository benchmark's warm_read operation
// without its harness: one Prepared.Eval of the closed triangle, which
// evaluates every gate of its Program, at the warm_read input (bounded-degree,
// n = 1,200) and at n = 6,000 on bounded-degree and the grid; gates/op is the
// size of the Program each Eval walks.
func BenchmarkPairedClosedEval(b *testing.B) {
	ctx := context.Background()
	const triangle = "sum x,y,z . [E(x,y)&E(y,z)&E(z,x)] * w(x,y)*w(y,z)*w(z,x)"
	for _, c := range []struct {
		kind string
		n    int
	}{{"bounded-degree", 1200}, {"bounded-degree", 6000}, {"grid", 6000}} {
		db, err := agg.Generate(c.kind, c.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		p, err := agg.Open(db).Prepare(ctx, triangle)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/n=%d", c.kind, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Eval(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Stats().Gates), "gates/op")
		})
	}
}
