package compile_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dbio"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

// linkDB re-homes a generated graph database onto a signature that has one
// relation per link kind of the box enumeration: E and S as generated plus a
// few self-loops E(v,v), a ternary T on the directed 2-paths from every
// third vertex (its tuples make x and z adjacent without an E edge), and D —
// every other E edge — to be compiled as a dynamic relation.  isolated extra
// elements occur in no tuple.
func linkDB(d *workload.Database, isolated int) (*structure.Structure, *structure.Weights[int64]) {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}, {Name: "T", Arity: 3}, {Name: "D", Arity: 2}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}},
	)
	b := structure.NewBuilder(sig, d.A.N+isolated)
	out := make([][]int, d.A.N)
	for i, t := range d.A.Tuples("E") {
		b.MustAddTuple("E", t...)
		out[t[0]] = append(out[t[0]], t[1])
		if i%2 == 0 {
			b.MustAddTuple("D", t...)
		}
	}
	for _, t := range d.A.Tuples("S") {
		b.MustAddTuple("S", t...)
	}
	w := d.Weights()
	for x := 0; x < d.A.N; x += 3 {
		for _, y := range out[x] {
			for _, z := range out[y] {
				b.MustAddTuple("T", x, y, z)
			}
		}
	}
	for v := 1; v < d.A.N; v += 5 {
		b.MustAddTuple("E", v, v)
		w.Set("w", structure.Tuple{v, v}, int64(v%3+1))
	}
	for v := d.A.N; v < d.A.N+isolated; v++ {
		b.MustAddTuple("S", v) // isolated in the Gaifman graph all the same
		w.Set("u", structure.Tuple{v}, 2)
	}
	return b.Build(), w
}

// linkQueries has one query per way two variables of a monomial can be
// linked — or fail to be.
var linkQueries = []struct{ name, text string }{
	{"binary literal", "sum x,y,z . [E(x,y) & E(y,z)] * u(x) * w(y,z)"},
	{"both directions", "sum x,y . [E(x,y) & E(y,x)] * u(x)"},
	{"repeated variable", "sum x,y . [E(x,x) & E(x,y)] * u(y) * w(x,x)"},
	{"positive equality", "sum x,y,z . [E(x,z) & x=y & S(y)] * u(y) * u(z)"},
	{"ternary relation", "sum x,y,z . [T(x,y,z)] * u(x) * u(z)"},
	{"ternary relation closed by an edge", "sum x,y,z . [T(x,y,z) & E(z,x)] * u(y)"},
	{"binary weight is the only link", "sum x,y . [S(y)] * w(x,y) * u(x)"},
	{"dynamic literal", "sum x,y,z . [D(x,y) & E(y,z)] * u(x) * u(z)"},
	{"dynamic literal is the only link", "sum x,y . [D(x,y) & S(x)] * u(y)"},
	{"negative only", "sum x,y . [!E(x,y) & !(x=y)] * u(x) * u(y)"},
	{"unlinked third variable", "sum x,y,z . [E(x,y) & !E(y,z) & S(z)] * u(x)"},
	{"second variable unlinked to the first", "sum x,z,y . [E(x,y) & E(y,z)] * u(x) * u(z)"},
}

// TestBoxEnumerationAgainstBaseline compares the compiled circuit with the
// brute-force evaluator, in ℕ and in min-plus, for every link kind on every
// structure kind; for the queries over the dynamic relation it then toggles
// tuples of D through dynamicq — removing stored ones and inserting ones that
// were absent at compile time, which a compiler pruning by D's membership
// would have lost — and compares again.
func TestBoxEnumerationAgainstBaseline(t *testing.T) {
	fin := func(v int64) semiring.Ext { return semiring.Fin(v) }
	for _, db := range []struct {
		name     string
		d        *workload.Database
		isolated int
	}{
		{"bounded-degree", workload.BoundedDegree(40, 3, 5), 0},
		{"pref-attach", workload.PreferentialAttachment(40, 2, 5), 0},
		{"grid", workload.Grid(6, 6, 5), 0},
		{"isolated elements", workload.BoundedDegree(30, 2, 6), 8},
	} {
		a, w := linkDB(db.d, db.isolated)
		wmp := structure.NewWeights[semiring.Ext]()
		w.Each(func(name string, t structure.Tuple, v int64) { wmp.Set(name, t, fin(v)) })
		for _, q := range linkQueries {
			t.Run(db.name+"/"+q.name, func(t *testing.T) {
				e := parser.MustParseExpr(q.text)
				opts := compile.Options{DynamicRelations: []string{"D"}}
				res, err := compile.Compile(a, e, opts)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				if got, want := compile.Evaluate(res, semiring.Nat, w), baseline.EvalExpression(semiring.Nat, a, w, e); got != want {
					t.Fatalf("ℕ: circuit %d, baseline %d (stats %+v)", got, want, res.Stats)
				} else if want == 0 && !(db.name == "pref-attach" && q.name == "ternary relation closed by an edge") { // no directed cycles there
					t.Fatalf("the query is zero on this database: the case tests nothing")
				}
				if got, want := compile.Evaluate(res, semiring.MinPlus, wmp), baseline.EvalExpression(semiring.MinPlus, a, wmp, e); !semiring.MinPlus.Equal(got, want) {
					t.Fatalf("min-plus: circuit %v, baseline %v", got, want)
				}

				// Toggle D: every stored tuple out, every E edge that was not in D
				// in (Gaifman-preserving: E made its endpoints adjacent).
				query, err := dynamicq.CompileQuery(semiring.Nat, a, w.Clone(), e, opts)
				if err != nil {
					t.Fatalf("CompileQuery: %v", err)
				}
				b := a.Edit()
				for i, edge := range a.Tuples("E") {
					present := !a.HasTuple("D", edge...)
					if i%3 == 0 {
						continue
					}
					if err := query.SetTuple("D", edge, present); err != nil {
						t.Fatalf("SetTuple(D%v, %v): %v", edge, present, err)
					}
					if present {
						b.MustAddTuple("D", edge...)
					} else if err := b.RemoveTuple("D", edge...); err != nil {
						t.Fatal(err)
					}
				}
				got, err := query.Value()
				if err != nil {
					t.Fatalf("Value: %v", err)
				}
				if want := baseline.EvalExpression(semiring.Nat, b.Build(), w, e); got != want {
					t.Fatalf("after toggling D: circuit %d, baseline %d", got, want)
				}
			})
		}
	}
}

// triangles is the benchmark's triangle query.
const triangles = "sum x,y,z . [E(x,y)&E(y,z)&E(z,x)] * w(x,y)*w(y,z)*w(z,x)"

// TestCompileWorkIsLinear guards Theorem 6's "linear in the database" on
// counts that repeat exactly, not on time: doubling the database may not
// much more than double the boxes compiled and the shapes built (the
// colour-tuple enumeration this replaced grew 4.5× and 4.2×).  At n=600 the
// triangle compiles at most 2,000 (box, shape) pairs — 7,565 while shapes put
// both variables of a loop-free E literal on one node — and one compilation
// stays within 1,500 allocations: it took 2.16 M with that enumeration,
// 24,839 while every box built its forest afresh and 3,082 while every shape
// was planned again under each forest profile that admits it.
func TestCompileWorkIsLinear(t *testing.T) {
	e := parser.MustParseExpr(triangles)
	var stats [2]compile.Stats
	for i, n := range []int{600, 1200} {
		res, err := compile.Compile(workload.BoundedDegree(n, 3, 1).A, e, compile.Options{})
		if err != nil {
			t.Fatalf("Compile n=%d: %v", n, err)
		}
		stats[i] = res.Stats
	}
	t.Logf("n=600: %+v", stats[0])
	t.Logf("n=1200: %+v", stats[1])
	if r := float64(stats[1].ColorAssignments) / float64(stats[0].ColorAssignments); r > 2.5 {
		t.Errorf("boxes grew %.2f× from n=600 to n=1200, want ≤ 2.5×", r)
	}
	if r := float64(stats[1].Shapes) / float64(stats[0].Shapes); r > 2.5 {
		t.Errorf("shapes grew %.2f× from n=600 to n=1200, want ≤ 2.5×", r)
	}
	if stats[0].Shapes > 2_000 {
		t.Errorf("the triangle at n=600 compiles %d (box, shape) pairs, want ≤ 2000", stats[0].Shapes)
	}
	if raceEnabled {
		return // allocation counts differ under the race detector
	}
	a := workload.BoundedDegree(600, 3, 1).A
	a.Gaifman()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := compile.Compile(a, e, compile.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("n=600: %.0f allocations per Compile", allocs)
	if allocs > 1_500 {
		t.Errorf("Compile at n=600 allocates %.0f objects, want ≤ 1500", allocs)
	}
}

// TestStaticLoopsKeepTheirShapes: a positive literal over a static relation
// keeps its two variables on different nodes only when no tuple of the
// relation repeats an element.  Over a directed triangle E(x,y) & E(y,x)
// holds nowhere; with the loop (3,3) added it holds at x = y = 3 alone, a
// shape with both variables on one node.
func TestStaticLoopsKeepTheirShapes(t *testing.T) {
	sig := structure.MustSignature([]structure.RelSymbol{{Name: "E", Arity: 2}}, nil)
	e := parser.MustParseExpr("sum x,y . [E(x,y) & E(y,x)]")
	for _, loop := range []bool{false, true} {
		b := structure.NewBuilder(sig, 4)
		b.MustAddTuple("E", 0, 1)
		b.MustAddTuple("E", 1, 2)
		b.MustAddTuple("E", 2, 0)
		want := int64(0)
		if loop {
			b.MustAddTuple("E", 3, 3)
			want = 1
		}
		res, err := compile.Compile(b.Build(), e, compile.Options{})
		if err != nil {
			t.Fatalf("Compile (loop %v): %v", loop, err)
		}
		if got := compile.Evaluate(res, semiring.Nat, structure.NewWeights[int64]()); got != want {
			t.Errorf("loop %v: value %d, want %d", loop, got, want)
		}
	}
}

// TestLoopsAgreeWithLogic compiles the triangle, the path formula and a path
// whose first step is an equality, summed over all their variables, on
// bounded-degree graphs with and without loops, and compares each count with
// logic.Eval at every triple of elements; the loops must add answers, or the
// case tests nothing.  The equality link x = y reaches its candidates without
// testing E(x,y), so only the test that follows keeps x off loop-free
// vertices.
func TestLoopsAgreeWithLogic(t *testing.T) {
	const n = 36
	formulas := []string{"E(x,y) & E(y,z) & E(z,x)", "E(x,y) & E(y,z) & S(x)", "x=y & E(x,y) & E(y,z)"}
	var counts [2][3]int64
	for li, loops := range []bool{false, true} {
		d := workload.BoundedDegree(n, 3, 7)
		b := d.A.Edit()
		if loops {
			for v := 0; v < n; v += 4 {
				b.MustAddTuple("E", v, v)
			}
		}
		a := b.Build()
		for fi, text := range formulas {
			phi := parser.MustParseFormula(text)
			want := int64(0)
			env := map[string]structure.Element{}
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					for z := 0; z < n; z++ {
						env["x"], env["y"], env["z"] = x, y, z
						if logic.Eval(phi, a, env) {
							want++
						}
					}
				}
			}
			res, err := compile.Compile(a, parser.MustParseExpr("sum x,y,z . ["+text+"]"), compile.Options{})
			if err != nil {
				t.Fatalf("Compile %s: %v", text, err)
			}
			if got := compile.Evaluate(res, semiring.Nat, structure.NewWeights[int64]()); got != want {
				t.Errorf("loops %v, %s: circuit %d, logic.Eval %d", loops, text, got, want)
			}
			counts[li][fi] = want
		}
	}
	for fi, text := range formulas {
		if counts[1][fi] <= counts[0][fi] {
			t.Errorf("%s: %d answers with loops, %d without: the loops add none", text, counts[1][fi], counts[0][fi])
		}
	}
}

// TestBoxAllocations wants a box to cost no garbage: the triangle at
// bounded-degree n = 4,800 — 2,065 boxes — compiles within 12 allocations
// per box, where building every box's forest, candidate sets and factor
// lists afresh took 70.
func TestBoxAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := parser.MustParseExpr(triangles)
	a := workload.BoundedDegree(4800, 3, 1).A
	a.Gaifman()
	var boxes int
	allocs := testing.AllocsPerRun(3, func() {
		res, err := compile.Compile(a, e, compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		boxes = res.Stats.ColorAssignments
	})
	perBox := allocs / float64(boxes)
	t.Logf("%.0f allocations for %d boxes: %.2f per box", allocs, boxes, perBox)
	if perBox > 12 {
		t.Errorf("Compile at n=4800 allocates %.2f objects per box, want ≤ 12", perBox)
	}
}

// TestOneSlotLevelsAreSums checks that a shape level with one slot compiles to
// a sum, not to a one-row permanent: injectivity over one slot is vacuous.
// It compiles the benchmark's triangle, 2-path formula and point query over
// the generated inputs and wants no frozen permanent with a single row, and
// the triangle at bounded-degree n = 1,200 — a chain, one slot per level —
// within 1,600 gates (it took 3,096 when every level was a permanent).
func TestOneSlotLevelsAreSums(t *testing.T) {
	const (
		path  = "E(x,y) & E(y,z) & S(x)"
		point = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
	)
	for _, kind := range []string{"bounded-degree", "grid", "pref-attach"} {
		db, err := dbio.LoadSource(dbio.Source{Kind: kind, N: 1200, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tri, err := dynamicq.CompileShared(db.A, parser.MustParseExpr(triangles), compile.Options{})
		if err != nil {
			t.Fatalf("%s triangle: %v", kind, err)
		}
		phi := parser.MustParseFormula(path)
		paths, err := enumerate.EnumerateAnswers(db.A, phi, logic.FreeVars(phi), compile.Options{})
		if err != nil {
			t.Fatalf("%s path: %v", kind, err)
		}
		pt, err := dynamicq.CompileShared(db.A, parser.MustParseExpr(point), compile.Options{})
		if err != nil {
			t.Fatalf("%s point: %v", kind, err)
		}
		for _, q := range []struct {
			name string
			p    *circuit.Program
		}{{"triangle", tri.Result().Program}, {"path", paths.Result().Program}, {"point", pt.Result().Program}} {
			perms := 0
			for id := 0; id < q.p.NumGates(); id++ {
				if q.p.GateKind(id) != circuit.KindPerm {
					continue
				}
				perms++
				if rows, cols := q.p.PermShape(id); rows == 1 {
					t.Fatalf("%s %s: gate %d is a 1×%d permanent", kind, q.name, id, cols)
				}
			}
			t.Logf("%s %s: %d gates, %d permanents", kind, q.name, q.p.NumGates(), perms)
		}
		if p := tri.Result().Program; kind == "bounded-degree" && p.NumGates() > 1600 {
			t.Errorf("triangle over bounded-degree n=1200: %d gates, want ≤ 1600", p.NumGates())
		}
	}
}

// siblings is a three-sibling query: x, y and z hang below w, and the
// disequalities keep a level's injectivity real wherever two of them can
// take one data node.
const siblings = "sum w,x,y,z . [E(w,x)&E(w,y)&E(w,z)&!(x=y)&!(y=z)&!(x=z)] * u(x)*u(y)*u(z)"

// TestPermanentsAreConnected checks that a shape level where no data node can
// take two slots is a product of row sums, not a permanent: a one-row
// permanent never appears, and a two-row one has a column both rows can take.
// It compiles the triangle, 2-path formula, point query and three-sibling
// query over the generated inputs.  A level of three or more slots stays one
// permanent once two of them share a column, so the three-sibling query is
// then checked against the brute-force evaluator, in ℕ and in min-plus, on an
// input where it keeps permanents.
func TestPermanentsAreConnected(t *testing.T) {
	const point = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
	for _, kind := range []string{"bounded-degree", "grid", "pref-attach"} {
		for _, query := range []string{triangles, "E(x,y) & E(y,z) & S(x)", point, siblings} {
			p := compileLayoutCase(t, layoutCase{kind, query, 600}).Program
			perms := 0
			for id := 0; id < p.NumGates(); id++ {
				if p.GateKind(id) != circuit.KindPerm {
					continue
				}
				perms++
				rows, cols := p.PermShape(id)
				shared := false
				for col := 0; col < cols && !shared; col++ {
					colRows, _ := p.PermColumn(id, col)
					shared = len(colRows) > 1
				}
				if rows < 2 || rows == 2 && !shared {
					t.Fatalf("%s %s: %d×%d permanent gate %d is a product of row sums", kind, query, rows, cols, id)
				}
			}
			t.Logf("%s %s: %d gates, %d permanents", kind, query, p.NumGates(), perms)
		}
	}

	d := workload.BoundedDegree(24, 7, 2)
	w := d.Weights()
	wmp := structure.NewWeights[semiring.Ext]()
	w.Each(func(name string, t structure.Tuple, v int64) { wmp.Set(name, t, semiring.Fin(v)) })
	e := parser.MustParseExpr(siblings)
	res, err := compile.Compile(d.A, e, compile.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if res.Program.Stats().PermGates == 0 {
		t.Fatalf("the three-sibling query keeps no permanent on this input: the check tests nothing")
	}
	if got, want := compile.Evaluate(res, semiring.Nat, w), baseline.EvalExpression(semiring.Nat, d.A, w, e); got != want || want == 0 {
		t.Fatalf("ℕ: circuit %d, baseline %d", got, want)
	}
	if got, want := compile.Evaluate(res, semiring.MinPlus, wmp), baseline.EvalExpression(semiring.MinPlus, d.A, wmp, e); !semiring.MinPlus.Equal(got, want) {
		t.Fatalf("min-plus: circuit %v, baseline %v", got, want)
	}
	t.Logf("bounded-degree n = 24, degree 7: %d permanents", res.Program.Stats().PermGates)
}

// TestColorCountIsFlat guards the constant in Theorem 6 on a count that
// repeats exactly: the colouring a three-variable query is compiled over
// uses as many colours at n = 38,400 as at n = 600 on the two inputs whose
// degrees do not grow (the augmentation that paired in-neighbours used 73–79
// on bounded-degree), and on preferential attachment — whose maximum degree
// grows with n, so it is not held to "flat" — stays under a hundred where it
// used 277 at n = 1,500 and 1,218 at n = 38,400.
func TestColorCountIsFlat(t *testing.T) {
	sizes := []int{600, 2400, 9600, 38400}
	if testing.Short() {
		sizes = sizes[:3]
	}
	colors := func(d *workload.Database) int {
		return graph.LowTreedepthColoring(d.A.Gaifman(), 3).NumColors
	}
	for _, kind := range []struct {
		name string
		gen  func(n int) *workload.Database
	}{
		{"bounded-degree", func(n int) *workload.Database { return workload.BoundedDegree(n, 3, 1) }},
		{"grid", func(n int) *workload.Database {
			side := int(math.Sqrt(float64(n)))
			return workload.Grid(side, side, 1)
		}},
	} {
		var counts []int
		for _, n := range sizes {
			counts = append(counts, colors(kind.gen(n)))
		}
		t.Logf("%s: %v colours at n = %v", kind.name, counts, sizes)
		if lo, hi := slices.Min(counts), slices.Max(counts); 10*hi > 12*lo {
			t.Errorf("%s: colours range over %d–%d for n = %v, want max ≤ 1.2 × min", kind.name, lo, hi, sizes)
		}
	}
	for _, c := range []struct{ n, limit int }{{1500, 50}, {38400, 100}} {
		if c.n > sizes[len(sizes)-1] {
			continue
		}
		got := colors(workload.PreferentialAttachment(c.n, 2, 1))
		t.Logf("pref-attach: %d colours at n = %d", got, c.n)
		if got > c.limit {
			t.Errorf("pref-attach n=%d: %d colours, want ≤ %d", c.n, got, c.limit)
		}
	}
}

// TestCompileIsDeterministic compiles one input twenty times, half of them on
// a clone of the structure, and wants the same Program gate for gate: no map
// iteration order may reach the colouring, the forests or the gate order.
func TestCompileIsDeterministic(t *testing.T) {
	a := workload.BoundedDegree(300, 3, 2).A
	e := parser.MustParseExpr(triangles + " + sum x,y . [E(x,y) & !S(y)] * u(x)")
	var first *circuit.Program
	for i := 0; i < 20; i++ {
		in := a
		if i%2 == 1 {
			in = a.Clone()
		}
		res, err := compile.Compile(in, e, compile.Options{})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if first == nil {
			first = res.Program
			continue
		}
		if diff := programDiff(first, res.Program); diff != "" {
			t.Fatalf("compile %d differs from the first: %s (stats %+v)", i, diff, res.Stats)
		}
	}
}

// programDiff describes the first difference between two programs, gate by
// gate: kind, children or permanent entries, input key, constant.
func programDiff(p, q *circuit.Program) string {
	if p.NumGates() != q.NumGates() || p.OutputGate() != q.OutputGate() {
		return fmt.Sprintf("%d gates with output %d, against %d with output %d", p.NumGates(), p.OutputGate(), q.NumGates(), q.OutputGate())
	}
	describe := func(p *circuit.Program, id int) string {
		s := fmt.Sprintf("%v%v", p.GateKind(id), p.ChildIDs(id))
		switch p.GateKind(id) {
		case circuit.KindInput:
			s += fmt.Sprintf(" key %v", p.InputKey(id))
		case circuit.KindConst:
			s += fmt.Sprintf(" = %v", p.ConstBig(id))
		case circuit.KindPerm:
			p.ForEachPermEntry(id, func(row, col, gate int) { s += fmt.Sprintf(" (%d,%d)=%d", row, col, gate) })
		}
		return s
	}
	for id := 0; id < p.NumGates(); id++ {
		if g, h := describe(p, id), describe(q, id); g != h {
			return fmt.Sprintf("gate %d is %s, against %s", id, g, h)
		}
	}
	return ""
}
