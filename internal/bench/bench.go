// Package bench implements the experiment harness behind cmd/aggbench: one
// experiment per complexity claim of the paper, each producing a printable
// table (Registry is the experiment index).
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/nested"
	"repro/internal/perm"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "*Note:* %s\n\n", n)
	}
	return b.String()
}

func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// TriangleQuery is the paper's running example: the weighted count of
// directed triangles, Σ_{x,y,z}[E(x,y)∧E(y,z)∧E(z,x)]·w(x,y)·w(y,z)·w(z,x).
func TriangleQuery() expr.Expr {
	return expr.Agg([]string{"x", "y", "z"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
		expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
	))
}

// PageRankQuery is Example 9's PageRank-round query
// f(x) = base + Σ_y [E(y,x)]·w(y)·invdeg(y), with the damping factor folded
// into invdeg.
func PageRankQuery() expr.Expr {
	return expr.Plus(
		expr.W("base"),
		expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("E", "y", "x")), expr.W("w", "y"), expr.W("invdeg", "y"))),
	)
}

// Sizes returns the default problem sizes, reduced in quick mode.
func Sizes(quick bool) []int {
	if quick {
		return []int{500, 1000, 2000}
	}
	return []int{2000, 4000, 8000, 16000, 32000}
}

// E1CircuitCompilation measures Theorem 6: linear-time compilation, bounded
// structural parameters.
func E1CircuitCompilation(sizes []int) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Circuit compilation (Theorem 6)",
		Claim:  "the circuit is computed in time linear in |A| and has bounded depth, fan-out and permanent rows",
		Header: []string{"workload", "n", "tuples", "compile", "gates", "size/tuple", "depth", "maxPermRows", "colors"},
	}
	for _, n := range sizes {
		for _, wl := range []struct {
			name string
			db   *workload.Database
		}{
			{"bounded-degree", workload.BoundedDegree(n, 3, 42)},
			{"grid", workload.Grid(intSqrt(n), intSqrt(n), 42)},
		} {
			var res *compile.Result
			elapsed := timeIt(func() {
				var err error
				res, err = compile.Compile(wl.db.A, TriangleQuery(), compile.Options{})
				if err != nil {
					panic(err)
				}
			})
			st := res.Program.Stats()
			t.Rows = append(t.Rows, []string{
				wl.name, fmt.Sprint(wl.db.A.N), fmt.Sprint(wl.db.A.TupleCount()), dur(elapsed),
				fmt.Sprint(st.Gates), fmt.Sprintf("%.1f", float64(st.Gates+st.Edges)/float64(wl.db.A.TupleCount())),
				fmt.Sprint(st.Depth), fmt.Sprint(st.MaxPermRows), fmt.Sprint(res.Stats.Colors),
			})
		}
	}
	t.Notes = append(t.Notes, "size/tuple should stay roughly constant as n grows (linear circuit size); depth and maxPermRows must not grow with n")
	return t
}

func intSqrt(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// E2WeightedTriangles compares the compiled evaluator against the naive
// nested-loop evaluator and the hand-written edge-iteration baseline.
func E2WeightedTriangles(sizes []int, naiveCap int) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Weighted triangle aggregation (result A, Example 4)",
		Claim:  "linear-time evaluation in any semiring; the naive evaluator is cubic and the edge-iterate baseline is the classical O(m·Δ) algorithm",
		Header: []string{"n", "tuples", "compile+eval(N)", "eval(min-plus)", "edge-iterate", "naive", "value"},
	}
	for _, n := range sizes {
		db := workload.BoundedDegree(n, 3, 7)
		w := db.Weights()
		var res *compile.Result
		var value int64
		compiled := timeIt(func() {
			var err error
			res, err = compile.Compile(db.A, TriangleQuery(), compile.Options{})
			if err != nil {
				panic(err)
			}
			value = compile.Evaluate[int64](res, semiring.Nat, w)
		})
		mpw := db.MinPlusWeights()
		mp := timeIt(func() {
			compile.Evaluate[semiring.Ext](res, semiring.MinPlus, mpw)
		})
		edge := timeIt(func() {
			got := baseline.TriangleCountEdgeIterate[int64](semiring.Nat, db.A, w)
			if got != value {
				panic(fmt.Sprintf("baseline mismatch: %d vs %d", got, value))
			}
		})
		naive := "skipped"
		if n <= naiveCap {
			naive = dur(timeIt(func() {
				got := baseline.EvalExpression[int64](semiring.Nat, db.A, w, TriangleQuery())
				if got != value {
					panic(fmt.Sprintf("naive mismatch: %d vs %d", got, value))
				}
			}))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(db.A.TupleCount()), dur(compiled), dur(mp), dur(edge), naive, fmt.Sprint(value),
		})
	}
	t.Notes = append(t.Notes, "the same compiled circuit is re-evaluated in the min-plus semiring (minimum-cost triangle) without recompilation")
	return t
}

// E3Permanent measures the permanent engines: linear build, log vs constant
// updates (Lemmas 11, 15, 18 / Proposition 14).
func E3Permanent(columns []int) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "Permanent maintenance (Section 4)",
		Claim:  "k×n permanents are computed in O(n); updates cost O(log n) over arbitrary semirings and O(1) over rings and finite semirings",
		Header: []string{"k", "n", "static eval", "build(generic)", "update(generic)", "update(ring)", "update(finite)"},
	}
	const k = 3
	const updates = 2000
	for _, n := range columns {
		mNat := perm.NewMatrix[int64](semiring.Nat, k, n)
		mInt := perm.NewMatrix[int64](semiring.Int, k, n)
		mod := semiring.NewModular(7)
		mMod := perm.NewMatrix[int64](mod, k, n)
		for r := 0; r < k; r++ {
			for c := 0; c < n; c++ {
				v := int64((r*31+c*17)%5 + 1)
				mNat.Set(r, c, v)
				mInt.Set(r, c, v)
				mMod.Set(r, c, v%7)
			}
		}
		static := timeIt(func() { perm.Perm[int64](semiring.Nat, mNat) })
		var dyn *perm.Dynamic[int64]
		build := timeIt(func() { dyn = perm.NewDynamic[int64](semiring.Nat, mNat) })
		ring := perm.NewRingDynamic[int64](semiring.Int, mInt)
		fin := perm.NewFiniteDynamic[int64](mod, mMod)
		upGeneric := timeIt(func() {
			for i := 0; i < updates; i++ {
				dyn.Update(i%k, (i*37)%n, int64(i%6))
				_ = dyn.Value()
			}
		}) / updates
		upRing := timeIt(func() {
			for i := 0; i < updates; i++ {
				ring.Update(i%k, (i*37)%n, int64(i%6))
				_ = ring.Value()
			}
		}) / updates
		upFinite := timeIt(func() {
			for i := 0; i < updates; i++ {
				fin.Update(i%k, (i*37)%n, int64(i%7))
				_ = fin.Value()
			}
		}) / updates
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(n), dur(static), dur(build), dur(upGeneric), dur(upRing), dur(upFinite),
		})
	}
	t.Notes = append(t.Notes, "generic updates should grow logarithmically with n; ring and finite-semiring updates should stay flat (Proposition 14 shows the log is unavoidable in general)")
	return t
}

// E4DynamicUpdates measures Theorem 8 end to end: weight updates on a
// compiled query.
func E4DynamicUpdates(sizes []int) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Dynamic weighted query maintenance (Theorem 8)",
		Claim:  "after linear preprocessing, weight updates take O(log n) in general semirings and O(1) in rings",
		Header: []string{"n", "preprocess(N)", "update(N generic)", "preprocess(Z ring)", "update(Z ring)"},
	}
	const updates = 500
	q := TriangleQuery()
	for _, n := range sizes {
		db := workload.BoundedDegree(n, 3, 11)
		w := db.Weights()
		edges := db.A.Tuples("E")

		var natQ *dynamicq.Query[int64]
		preNat := timeIt(func() {
			var err error
			natQ, err = dynamicq.CompileQuery[int64](semiring.Nat, db.A, w, q, compile.Options{})
			if err != nil {
				panic(err)
			}
		})
		upNat := timeIt(func() {
			for i := 0; i < updates; i++ {
				tpl := edges[(i*13)%len(edges)]
				if err := natQ.SetWeight("w", tpl, int64(i%5+1)); err != nil {
					panic(err)
				}
				if _, err := natQ.ValueClosed(); err != nil {
					panic(err)
				}
			}
		}) / updates

		var intQ *dynamicq.Query[int64]
		preInt := timeIt(func() {
			var err error
			intQ, err = dynamicq.CompileQuery[int64](semiring.Int, db.A, w, q, compile.Options{})
			if err != nil {
				panic(err)
			}
		})
		upInt := timeIt(func() {
			for i := 0; i < updates; i++ {
				tpl := edges[(i*13)%len(edges)]
				if err := intQ.SetWeight("w", tpl, int64(i%5+1)); err != nil {
					panic(err)
				}
				if _, err := intQ.ValueClosed(); err != nil {
					panic(err)
				}
			}
		}) / updates
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), dur(preNat), dur(upNat), dur(preInt), dur(upInt)})
	}
	return t
}

// E5Enumeration measures Theorem 24: linear preprocessing and constant
// enumeration delay.
func E5Enumeration(sizes []int) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Constant-delay enumeration of FO answers (Theorem 24)",
		Claim:  "preprocessing is linear; the delay between consecutive answers does not grow with n",
		Header: []string{"n", "answers", "preprocess", "first 1000: avg delay", "max delay", "materialise(naive)"},
	}
	phi := logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.Neg(logic.Equal("x", "z")))
	vars := []string{"x", "y", "z"}
	for _, n := range sizes {
		db := workload.BoundedDegree(n, 3, 19)
		var ans *enumerate.Answers
		pre := timeIt(func() {
			var err error
			ans, err = enumerate.EnumerateAnswers(db.A, phi, vars, compile.Options{})
			if err != nil {
				panic(err)
			}
		})
		cur := ans.Cursor()
		count := 0
		var maxDelay, totalDelay time.Duration
		for count < 1000 {
			start := time.Now()
			_, ok := cur.Next()
			d := time.Since(start)
			if !ok {
				break
			}
			count++
			totalDelay += d
			if d > maxDelay {
				maxDelay = d
			}
		}
		avg := time.Duration(0)
		if count > 0 {
			avg = totalDelay / time.Duration(count)
		}
		naive := "skipped"
		if n <= 500 {
			naive = dur(timeIt(func() { baseline.MaterializeAnswers(phi, db.A, vars) }))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(ans.Count()), dur(pre), dur(avg), dur(maxDelay), naive,
		})
	}
	return t
}

// E6PageRank measures Example 9: one PageRank round as a weighted query with
// point queries and constant-time weight updates (float ring).
func E6PageRank(sizes []int) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "PageRank round as a weighted query (Example 9)",
		Claim:  "linear preprocessing; querying the new rank of a page and updating a previous-round weight both take constant time (the rationals form a ring)",
		Header: []string{"n", "preprocess", "query all n ranks", "per-query", "per-update"},
	}
	for _, n := range sizes {
		db := workload.PreferentialAttachment(n, 2, 23)
		a := db.A
		// Weights: previous round w(v) = 1/n, invdeg(v) = d/outdeg(v).
		b, err := a.Extend(structure.MustSignature(
			a.Sig.Relations,
			[]structure.WeightSymbol{{Name: "w", Arity: 1}, {Name: "invdeg", Arity: 1}, {Name: "base", Arity: 0}},
		))
		if err != nil {
			panic(err)
		}
		outdeg := make([]float64, a.N)
		for _, tup := range a.Tuples("E") {
			outdeg[tup[0]]++
		}
		const damping = 0.85
		wts := structure.NewWeights[float64]()
		for v := 0; v < a.N; v++ {
			wts.Set("w", structure.Tuple{v}, 1/float64(a.N))
			if outdeg[v] > 0 {
				wts.Set("invdeg", structure.Tuple{v}, damping/outdeg[v])
			}
		}
		wts.Set("base", structure.Tuple{}, (1-damping)/float64(a.N))
		f := expr.Plus(
			expr.W("base"),
			expr.Agg([]string{"y"}, expr.Times(expr.Guard(logic.R("E", "y", "x")), expr.W("w", "y"), expr.W("invdeg", "y"))),
		)
		var q *dynamicq.Query[float64]
		pre := timeIt(func() {
			var err error
			q, err = dynamicq.CompileQuery[float64](semiring.Float, b, wts, f, compile.Options{})
			if err != nil {
				panic(err)
			}
		})
		queryAll := timeIt(func() {
			for x := 0; x < a.N; x++ {
				if _, err := q.Value(x); err != nil {
					panic(err)
				}
			}
		})
		const updates = 500
		upd := timeIt(func() {
			for i := 0; i < updates; i++ {
				if err := q.SetWeight("w", structure.Tuple{i % a.N}, float64(i%7)/float64(a.N)); err != nil {
					panic(err)
				}
			}
		}) / updates
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(pre), dur(queryAll), dur(queryAll / time.Duration(a.N)), dur(upd),
		})
	}
	return t
}

// E7NestedQuery measures Theorem 26 on the introduction's "maximum average
// neighbour weight" query.
func E7NestedQuery(sizes []int) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Nested weighted query evaluation (Theorem 26)",
		Claim:  "nested queries mixing ℕ, comparison/ratio connectives and a max aggregation evaluate in near-linear time",
		Header: []string{"n", "nested evaluator", "hand-written baseline", "agree"},
	}
	for _, n := range sizes {
		db := workload.BoundedDegree(n, 3, 29)
		a := db.A
		// Re-home onto a signature with a unary V guard.
		sig := structure.MustSignature(
			[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
			nil,
		)
		build := structure.NewBuilder(sig, a.N)
		for _, tup := range a.Tuples("E") {
			build.MustAddTuple("E", tup...)
		}
		for v := 0; v < a.N; v++ {
			build.MustAddTuple("V", v)
		}
		b := build.Build()
		ndb := nested.NewDatabase(b)
		if err := ndb.DeclareSRelation("weight", nested.NatSemiring, 1); err != nil {
			panic(err)
		}
		for v := 0; v < a.N; v++ {
			if err := ndb.SetValue("weight", structure.Tuple{v}, db.VertexWeight[v]); err != nil {
				panic(err)
			}
		}
		sumW := nested.Sum([]string{"y"}, nested.Times(nested.Bracket(nested.NatSemiring, nested.B("E", "x", "y")), nested.S(nested.NatSemiring, "weight", "y")))
		degree := nested.Sum([]string{"y"}, nested.Bracket(nested.NatSemiring, nested.B("E", "x", "y")))
		avg := nested.Guard("V", []string{"x"}, nested.RatioNat, sumW, degree)
		query := nested.Sum([]string{"x"}, nested.Guard("V", []string{"x"}, nested.IntoMaxPlus, avg))

		var got semiring.Ext
		nestedTime := timeIt(func() {
			st, err := nested.Compile(ndb, query, compile.Options{})
			if err != nil {
				panic(err)
			}
			vals, err := st.At(nil, []structure.Tuple{{}}, compile.Options{})
			if err != nil {
				panic(err)
			}
			got = vals[0].(semiring.Ext)
		})
		var want int64
		base := timeIt(func() {
			want = baseline.AverageNeighborWeightMax(b, db.VertexWeight)
		})
		agree := !got.Inf && got.V == want
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), dur(nestedTime), dur(base), fmt.Sprint(agree)})
	}
	t.Notes = append(t.Notes, "the nested evaluator pays an O(log n)-per-guard-tuple factor for generality; the hand-written baseline knows the query shape")
	return t
}

// E8LocalSearch measures Example 25: an independent-set local search driven
// by the dynamic enumerator, with constant work per improvement round.
func E8LocalSearch(sizes []int) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Local search via dynamic enumeration (Example 25)",
		Claim:  "each improvement step (find a free vertex, add it, update the predicates) takes constant time, so a maximal independent set is built in linear total time",
		Header: []string{"n", "preprocess", "rounds", "total search", "per round", "IS size"},
	}
	phi := logic.Conj(logic.Neg(logic.R("S", "x")), logic.Neg(logic.R("Blocked", "x")))
	for _, n := range sizes {
		db := workload.Grid(intSqrt(n), intSqrt(n), 31)
		a := db.A
		sig := structure.MustSignature(
			[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}, {Name: "Blocked", Arity: 1}},
			nil,
		)
		build := structure.NewBuilder(sig, a.N)
		for _, tup := range a.Tuples("E") {
			build.MustAddTuple("E", tup...)
		}
		b := build.Build()
		neighbors := make([][]int, a.N)
		for _, tup := range a.Tuples("E") {
			neighbors[tup[0]] = append(neighbors[tup[0]], tup[1])
			neighbors[tup[1]] = append(neighbors[tup[1]], tup[0])
		}
		var ans *enumerate.Answers
		pre := timeIt(func() {
			var err error
			ans, err = enumerate.EnumerateAnswers(b, phi, []string{"x"}, compile.Options{DynamicRelations: []string{"S", "Blocked"}})
			if err != nil {
				panic(err)
			}
		})
		rounds := 0
		isSize := 0
		search := timeIt(func() {
			for {
				cur := ans.Cursor()
				tpl, ok := cur.Next()
				if !ok {
					break
				}
				v := tpl[0]
				rounds++
				isSize++
				if err := ans.SetTuple("S", structure.Tuple{v}, true); err != nil {
					panic(err)
				}
				if err := ans.SetTuple("Blocked", structure.Tuple{v}, true); err != nil {
					panic(err)
				}
				for _, u := range neighbors[v] {
					if err := ans.SetTuple("Blocked", structure.Tuple{u}, true); err != nil {
						panic(err)
					}
				}
			}
		})
		perRound := time.Duration(0)
		if rounds > 0 {
			perRound = search / time.Duration(rounds)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(a.N), dur(pre), fmt.Sprint(rounds), dur(search), dur(perRound), fmt.Sprint(isSize)})
	}
	t.Notes = append(t.Notes, "the current solution and its blocked neighbourhood are unary predicates updated through Gaifman-preserving updates; the improvement query is quantifier-free")
	return t
}

// E9Coloring reports the low-treedepth colouring substrate (Proposition 1).
func E9Coloring(sizes []int) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Low-treedepth colouring quality (Proposition 1)",
		Claim:  "for p = 2, 3 the number of colours and the elimination-forest depth of any ≤p colour classes stay bounded as n grows",
		Header: []string{"workload", "n", "p", "colors", "max forest depth(≤2 classes)", "coloring time"},
	}
	for _, n := range sizes {
		for _, wl := range []struct {
			name string
			db   *workload.Database
		}{
			{"grid", workload.Grid(intSqrt(n), intSqrt(n), 3)},
			{"bounded-degree", workload.BoundedDegree(n, 3, 3)},
			{"pref-attach", workload.PreferentialAttachment(n, 2, 3)},
		} {
			g := wl.db.A.Gaifman()
			for _, p := range []int{2, 3} {
				var col *graph.Coloring
				elapsed := timeIt(func() { col = graph.LowTreedepthColoring(g, p) })
				depth := graph.MaxForestDepth(g, col, 2)
				t.Rows = append(t.Rows, []string{
					wl.name, fmt.Sprint(g.N()), fmt.Sprint(p), fmt.Sprint(col.NumColors), fmt.Sprint(depth), dur(elapsed),
				})
			}
		}
	}
	t.Notes = append(t.Notes, "depth statistics are computed over pairs of colour classes; triples are covered implicitly by the compiler's per-assignment forests")
	return t
}

// E10ProvenancePermanent measures Lemma 23/39: the constant-delay enumerator
// of a free-semiring permanent whose cell (r, c) is the answer generator
// e^r_c, so that its monomials are the k-tuples of distinct columns.
func E10ProvenancePermanent(columns []int) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Permanent enumerators over answer generators (Lemma 23)",
		Claim:  "the enumerator for the permanent of a k×n matrix with cell (r, c) = e^r_c — whose monomials are the k-tuples of distinct columns — is built in O(n) and has delay independent of n",
		Header: []string{"k", "n", "build", "first 1000: avg delay", "max delay"},
	}
	const k = 2
	for _, n := range columns {
		c := circuit.NewBuilder()
		var entries []circuit.PermEntry
		for col := 0; col < n; col++ {
			for row := 0; row < k; row++ {
				entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: c.Input("cell", structure.Ordinary, structure.Tuple{row, col})})
			}
		}
		c.SetOutput(c.Perm(k, n, entries))
		var e *enumerate.Enumerator
		build := timeIt(func() { e = enumerate.NewProgram(c.Program(), permCell, nil) })
		cur := e.Cursor(k)
		var maxDelay, total time.Duration
		count := 0
		for count < 1000 {
			start := time.Now()
			_, ok := cur.Next()
			d := time.Since(start)
			if !ok {
				break
			}
			count++
			total += d
			if d > maxDelay {
				maxDelay = d
			}
		}
		avg := time.Duration(0)
		if count > 0 {
			avg = total / time.Duration(count)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprint(n), dur(build), dur(avg), dur(maxDelay)})
	}
	return t
}

// permCell is the answer generator e^r_c of the input at cell (r, c) of a
// permanent, present.
func permCell(in circuit.Input) (enumerate.Generator, bool) {
	return enumerate.Generator{Var: in.Tuple[0], Elem: in.Tuple[1]}, true
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID  string
	Run func() *Table
}

// Registry lists every experiment with its default parameters.
func Registry(quick bool) []Experiment {
	sizes := Sizes(quick)
	small := sizes
	if len(small) > 3 {
		small = small[:3]
	}
	permCols := []int{1000, 10000, 100000}
	if !quick {
		permCols = append(permCols, 1000000)
	}
	// The naive evaluator is cubic for three-variable queries, so it is only
	// run on very small instances.
	naiveCap := 300
	if !quick {
		naiveCap = 500
	}
	return []Experiment{
		{ID: "E1", Run: func() *Table { return E1CircuitCompilation(sizes) }},
		{ID: "E2", Run: func() *Table { return E2WeightedTriangles(sizes, naiveCap) }},
		{ID: "E3", Run: func() *Table { return E3Permanent(permCols) }},
		{ID: "E4", Run: func() *Table { return E4DynamicUpdates(small) }},
		{ID: "E5", Run: func() *Table { return E5Enumeration(sizes) }},
		{ID: "E6", Run: func() *Table { return E6PageRank(small) }},
		{ID: "E7", Run: func() *Table { return E7NestedQuery(small) }},
		{ID: "E8", Run: func() *Table { return E8LocalSearch(sizes) }},
		{ID: "E9", Run: func() *Table { return E9Coloring(small) }},
		{ID: "E10", Run: func() *Table { return E10ProvenancePermanent(permCols) }},
	}
}
