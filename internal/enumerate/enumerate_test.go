package enumerate

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

func key(w string, elems ...int) structure.WeightKey {
	return structure.MakeWeightKey(w, structure.Tuple(elems))
}

// input is the input gate of weight w at the elements.
func input(c *circuit.Circuit, w string, elems ...int) int {
	return c.Input(w, structure.Ordinary, elems)
}

// label is the label of an input, for valuations that look values up by it.
func label(in circuit.Input) structure.WeightKey {
	return structure.InputLabel(in.Symbol, in.Role, in.Tuple)
}

// setInputs stages input presences into e and commits them, the way Answers
// stages its leaves: every presence assigned under the clock, then one wave.
func setInputs(e *Enumerator, changes ...circuit.InputChange[bool]) {
	e.clock.Lock()
	defer e.clock.Unlock()
	for _, ch := range changes {
		e.assign(e.p.InputGate(ch.Key), ch.Value)
	}
	e.runWave()
	e.clock.Commit()
}

// val is a hand-built circuit's setting of one input: its generator, fixed
// when the enumerator is built, and its presence, which updates flip.
type val struct {
	g       Generator
	present bool
}

// gen is a present input with the answer generator e^v_a.
func gen(v, a int) val { return val{Generator{Var: v, Elem: a}, true} }

// member is a membership input, present or not.
func member(present bool) val { return val{NoGenerator, present} }

// lookup reads the inputs of a hand-built circuit from vals by label;
// unlisted inputs are absent.
func lookup(vals map[structure.WeightKey]val) func(circuit.Input) (Generator, bool) {
	return func(in circuit.Input) (Generator, bool) {
		v, ok := vals[label(in)]
		if !ok {
			return NoGenerator, false
		}
		return v.g, v.present
	}
}

// genName names an answer generator in the free semiring, for the cursors'
// frames and the explicit oracle alike.
func genName(g Generator) provenance.Generator {
	return provenance.Generator(fmt.Sprintf("%d|%d", g.Var, g.Elem))
}

// frameMonomial renders a cursor's frame as a provenance.Monomial.
func frameMonomial(frame []Generator) provenance.Monomial {
	gs := make([]provenance.Generator, len(frame))
	for i, g := range frame {
		gs[i] = genName(g)
	}
	return provenance.NewMonomial(gs...)
}

// drain walks a fresh cursor to its end, rendering every frame as a
// monomial: the multiset of monomials it streams.
func drain(cur *TupleCursor) []string {
	var out []provenance.Monomial
	for end, ok := cur.w.next(); ok; end, ok = cur.w.next() {
		out = append(out, frameMonomial(cur.w.frame[:end]))
	}
	return monomialMultiset(out)
}

// monomialMultiset renders a list of monomials as a sorted multiset of keys.
func monomialMultiset(ms []provenance.Monomial) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	sort.Strings(out)
	return out
}

// polyMultiset renders an explicit polynomial the same way.
func polyMultiset(p *provenance.Poly) []string {
	var out []string
	for _, t := range p.Monomials() {
		for i := int64(0); i < t.Count; i++ {
			out = append(out, t.Monomial.Key())
		}
	}
	sort.Strings(out)
	return out
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// explicit evaluates p in the free semiring with every present input its
// generator (the unit for a membership) and every absent one zero, under the
// names genName gives the cursors' frames: the differential oracle of the
// cursors on small instances, as a monomial multiset.
func explicit(p *circuit.Program, inputs func(circuit.Input) (Generator, bool)) []string {
	vals := circuit.EvaluateAllProgram[*provenance.Poly](p, provenance.Free, func(in circuit.Input) (*provenance.Poly, bool) {
		g, present := inputs(in)
		if !present {
			return nil, false
		}
		if g.Var < 0 {
			return provenance.Free.One(), true
		}
		return provenance.Var(genName(g)), true
	})
	return polyMultiset(vals[p.OutputGate()])
}

// checkEnumeratorAgainstExplicit builds the enumerator of a circuit and
// compares the multiset of monomials it streams, and its count, with the
// explicit free-semiring evaluation.
func checkEnumeratorAgainstExplicit(t *testing.T, c *circuit.Circuit, inputs func(circuit.Input) (Generator, bool)) {
	t.Helper()
	p := c.Program()
	e := NewProgram(p, inputs, nil)
	got, want := drain(e.Cursor(0)), explicit(p, inputs)
	if !equalStringSlices(got, want) {
		t.Fatalf("enumerator and explicit evaluation disagree:\n got %v\nwant %v", got, want)
	}
	if e.Empty() != (len(want) == 0) {
		t.Fatalf("Empty() = %v but %d monomials expected", e.Empty(), len(want))
	}
	if count := countAnswers(p, e.GateEmpty); count != int64(len(want)) {
		t.Fatalf("countAnswers = %d, want %d", count, len(want))
	}
}

// TestPermCursorDirect exercises the permanent-gate cursor on hand-built
// circuits against explicit evaluation: cell (row, col) is the answer
// generator e^row_col, a membership, or absent.
func TestPermCursorDirect(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		rows := r.Intn(3) + 1
		cols := r.Intn(5) + 1
		c := circuit.NewBuilder()
		var entries []circuit.PermEntry
		inputs := map[structure.WeightKey]val{}
		for col := 0; col < cols; col++ {
			for row := 0; row < rows; row++ {
				switch r.Intn(3) {
				case 0:
					// absent entry
				case 1:
					inputs[key("w", row, col)] = gen(row, col)
					entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: input(c, "w", row, col)})
				default:
					inputs[key("m", row, col)] = member(r.Intn(2) == 0)
					entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: input(c, "m", row, col)})
				}
			}
		}
		c.SetOutput(c.Perm(rows, cols, entries))
		checkEnumeratorAgainstExplicit(t, c, lookup(inputs))
	}
}

func TestAddMulConstCursors(t *testing.T) {
	c := circuit.NewBuilder()
	a := input(c, "a", 0)
	b := input(c, "b", 0)
	d := input(c, "d", 0)
	sum := c.Add(a, b, d, b) // b occurs twice: multiplicity 2
	prod := c.Mul(sum, a)
	c.SetOutput(c.Add(prod, c.ConstInt(3), c.Mul(b, d)))
	inputs := map[structure.WeightKey]val{
		key("a", 0): gen(0, 1),
		key("b", 0): gen(0, 2),
		key("d", 0): {Generator{Var: 0, Elem: 3}, false},
	}
	checkEnumeratorAgainstExplicit(t, c, lookup(inputs))
}

func enumerationStructure(n, m int, seed int64) *structure.Structure {
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}},
		nil,
	)
	r := rand.New(rand.NewSource(seed))
	b := structure.NewBuilder(sig, n)
	for edges := map[[2]int]bool{}; len(edges) < m; {
		x, y := r.Intn(n), r.Intn(n)
		if x != y {
			edges[[2]int{x, y}] = true
			b.MustAddTuple("E", x, y)
		}
	}
	for v := 0; v < n; v++ {
		if r.Intn(2) == 0 {
			b.MustAddTuple("S", v)
		}
	}
	return b.Build()
}

// sortTuples sorts answer tuples lexicographically for comparison.
func sortTuples(ts []structure.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = structure.MakeWeightKey("", t).Tuple
	}
	sort.Strings(out)
	return out
}

// checkAnswers compares the enumerated answers with the naive materialised
// answer set: same set, no duplicates.
func checkAnswers(t *testing.T, ans *Answers, a *structure.Structure, phi logic.Formula, vars []string) {
	t.Helper()
	got := sortTuples(ans.Collect(0))
	want := sortTuples(logic.Answers(phi, a, vars))
	if !equalStringSlices(got, want) {
		t.Fatalf("enumerated answers differ from naive answers for %s:\n got (%d) %v\nwant (%d) %v",
			phi, len(got), got, len(want), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("duplicate answer %v enumerated for %s", got[i], phi)
		}
	}
	if ans.Count() != int64(len(want)) {
		t.Fatalf("Count() = %d, want %d", ans.Count(), len(want))
	}
	if ans.Empty() != (len(want) == 0) {
		t.Fatalf("Empty() inconsistent with answer count")
	}
}

// TestModelCountMatchesNaive holds Count to the number of answers of E(x,y),
// one per edge, also when E is dynamic and its tuples are membership inputs
// of the circuit.
func TestModelCountMatchesNaive(t *testing.T) {
	a := enumerationStructure(25, 70, 13)
	for _, opts := range []compile.Options{{}, {DynamicRelations: []string{"E"}}} {
		ans, err := EnumerateAnswers(a, logic.R("E", "x", "y"), []string{"x", "y"}, opts)
		if err != nil {
			t.Fatalf("EnumerateAnswers: %v", err)
		}
		if got, want := ans.Count(), int64(len(a.Tuples("E"))); got != want {
			t.Errorf("dynamic %v: Count = %d, want %d (one answer per edge)", opts.DynamicRelations, got, want)
		}
	}
}

// TestModelCountAgreesWithNatEvaluation holds Count to the value in ℕ of the
// counting query Σ_x̄ [ϕ(x̄)], compiled on its own, whichever relations are
// dynamic: a membership input that does not hold counts no answer.
func TestModelCountAgreesWithNatEvaluation(t *testing.T) {
	a := enumerationStructure(20, 50, 21)
	vars := []string{"x", "y"}
	phi := logic.Conj(logic.R("E", "x", "y"), logic.R("S", "x"), logic.Neg(logic.R("S", "y")))
	res, err := compile.Compile(a, expr.Agg(vars, expr.Guard(phi)), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nat := compile.Evaluate[int64](res, semiring.Nat, structure.NewWeights[int64]())
	if nat == 0 {
		t.Fatal("the counting query has no answers to count")
	}
	for _, dynamic := range [][]string{nil, {"S"}, {"E"}, {"E", "S"}} {
		ans, err := EnumerateAnswers(a, phi, vars, compile.Options{DynamicRelations: dynamic})
		if err != nil {
			t.Fatalf("EnumerateAnswers: %v", err)
		}
		if got := ans.Count(); got != nat {
			t.Errorf("dynamic %v: Count = %d, ℕ evaluation of the counting query = %d", dynamic, got, nat)
		}
	}
}

func TestEnumerateAnswersStatic(t *testing.T) {
	a := enumerationStructure(10, 24, 7)
	cases := []struct {
		phi  logic.Formula
		vars []string
	}{
		{logic.R("E", "x", "y"), []string{"x", "y"}},
		{logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z")), []string{"x", "y", "z"}},
		{logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("E", "y", "x"))), []string{"x", "y"}},
		{logic.Conj(logic.R("S", "x"), logic.R("S", "y"), logic.Neg(logic.Equal("x", "y")), logic.Neg(logic.R("E", "x", "y"))), []string{"x", "y"}},
		{logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x")), []string{"x", "y", "z"}},
		{logic.R("S", "x"), []string{"x"}},
		// A formula with a guarded quantifier.
		{logic.Conj(logic.R("S", "x"), logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.R("S", "y")))), []string{"x"}},
		// Answer variables beyond the formula's free variables (cartesian
		// padding).
		{logic.R("S", "x"), []string{"x", "y"}},
	}
	for _, cse := range cases {
		ans, err := EnumerateAnswers(a, cse.phi, cse.vars, compile.Options{})
		if err != nil {
			t.Fatalf("EnumerateAnswers(%s): %v", cse.phi, err)
		}
		checkAnswers(t, ans, a, cse.phi, cse.vars)
	}
}

// TestEnumerateAnswersRepeatedVariable lists an answer variable twice: every
// answer carries the same element at both positions and appears once.
func TestEnumerateAnswersRepeatedVariable(t *testing.T) {
	a := enumerationStructure(10, 24, 7)
	ans, err := EnumerateAnswers(a, logic.R("S", "x"), []string{"x", "x"}, compile.Options{})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	var want []structure.Tuple
	for _, s := range a.Tuples("S") {
		want = append(want, structure.Tuple{s[0], s[0]})
	}
	if got := sortTuples(ans.Collect(0)); !equalStringSlices(got, sortTuples(want)) {
		t.Fatalf("answers over (x,x) = %v, want %v", got, sortTuples(want))
	}
	if ans.Count() != int64(len(want)) {
		t.Fatalf("Count() = %d, want %d", ans.Count(), len(want))
	}
}

func TestEnumerateAnswersRejectsUnknownVariables(t *testing.T) {
	a := enumerationStructure(5, 8, 1)
	if _, err := EnumerateAnswers(a, logic.R("E", "x", "y"), []string{"x"}, compile.Options{}); err == nil {
		t.Errorf("free variable not listed among answer variables should be rejected")
	}
}

func TestEnumerateAnswersDynamic(t *testing.T) {
	a := enumerationStructure(9, 20, 13)
	phi := logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("E", "y", "x")))
	vars := []string{"x", "y"}
	ans, err := EnumerateAnswers(a, phi, vars, compile.Options{DynamicRelations: []string{"E"}})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	mirror := a
	checkAnswers(t, ans, mirror, phi, vars)

	r := rand.New(rand.NewSource(17))
	edges := append([]structure.Tuple(nil), a.Tuples("E")...)
	for step := 0; step < 25; step++ {
		base := edges[r.Intn(len(edges))]
		target := base
		if r.Intn(2) == 0 {
			target = structure.Tuple{base[1], base[0]}
		}
		present := r.Intn(2) == 0
		if err := ans.SetTuple("E", target, present); err != nil {
			t.Fatalf("SetTuple: %v", err)
		}
		mirror = setMirror(mirror, "E", target, present)
		if ans.rel.HasTuple("E", target) != present {
			t.Fatalf("HasTuple does not reflect update")
		}
		checkAnswers(t, ans, mirror, phi, vars)
	}
	// Unary predicate updates (the local-search use case, Example 25).
	phiS := logic.Conj(logic.R("S", "x"), logic.Ex([]string{"y"}, logic.R("E", "x", "y")))
	_ = phiS
	// Gaifman-violating insertion is rejected.
	g := a.Gaifman()
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if i != j && !g.HasEdge(i, j) {
				if err := ans.SetTuple("E", structure.Tuple{i, j}, true); err == nil {
					t.Fatalf("Gaifman-violating insertion accepted")
				}
				i = a.N
				break
			}
		}
	}
	// Updating a non-dynamic relation is rejected.
	if err := ans.SetTuple("S", structure.Tuple{0}, true); err == nil {
		t.Errorf("non-dynamic relation update accepted")
	}
}

func TestEnumerateUnaryDynamicPredicate(t *testing.T) {
	// Dynamic unary predicate S: answers to S(x) ∧ ∃-free neighbourhood
	// conditions track insertions and deletions of S-memberships, the update
	// pattern used by the local-search application (Example 25).
	a := enumerationStructure(8, 16, 23)
	phi := logic.Conj(logic.R("S", "x"), logic.R("E", "x", "y"), logic.Neg(logic.R("S", "y")))
	vars := []string{"x", "y"}
	ans, err := EnumerateAnswers(a, phi, vars, compile.Options{DynamicRelations: []string{"S"}})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	mirror := a
	checkAnswers(t, ans, mirror, phi, vars)
	r := rand.New(rand.NewSource(29))
	for step := 0; step < 20; step++ {
		v := r.Intn(a.N)
		present := r.Intn(2) == 0
		if err := ans.SetTuple("S", structure.Tuple{v}, present); err != nil {
			t.Fatalf("SetTuple: %v", err)
		}
		mirror = setMirror(mirror, "S", structure.Tuple{v}, present)
		checkAnswers(t, ans, mirror, phi, vars)
	}
}

// TestFollowChecksTheClosure stages, into a Follower, the leaves a
// dynamicq.Query over the same closure recorded in its shadow — the
// follower keeps none of its own — and refuses leaves vouched for by a
// different closure.
func TestFollowChecksTheClosure(t *testing.T) {
	a := enumerationStructure(8, 16, 23)
	phi := logic.Conj(logic.R("S", "x"), logic.R("E", "x", "y"))
	vars := []string{"x", "y"}
	opts := compile.Options{DynamicRelations: []string{"S"}}
	src, err := EnumerateAnswers(a, phi, vars, opts)
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	other, err := EnumerateAnswers(a, phi, vars, opts)
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	q := dynamicq.NewQuery(semiring.Bool, src.Shared(), nil)
	ans := src.Follower(q.Clock())
	if ans.rel != nil {
		t.Fatal("a Follower keeps a shadow of its own")
	}
	mirror := a
	present := !a.HasTuple("S", 3)
	if err := q.Prepare([]dynamicq.Change[bool]{{Rel: "S", Tuple: structure.Tuple{3}, Present: present}}); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	c := q.Clock()
	c.Lock()
	ans.Follow(src.Shared(), q.Members())
	q.Stage()
	c.Commit()
	c.Unlock()
	mirror = setMirror(mirror, "S", structure.Tuple{3}, present)
	checkAnswers(t, ans, mirror, phi, vars)
	checkAnswers(t, src, a, phi, vars) // the source is untouched
	defer func() {
		if recover() == nil {
			t.Errorf("Follow accepted a batch validated against another closure")
		}
	}()
	ans.Follow(other.Shared(), q.Members())
}

// setMirror returns the mirror structure with the membership of a tuple in a
// relation set.
func setMirror(a *structure.Structure, rel string, tuple structure.Tuple, present bool) *structure.Structure {
	b := a.Edit()
	if present {
		b.MustAddTuple(rel, tuple...)
	} else if err := b.RemoveTuple(rel, tuple...); err != nil {
		panic(err)
	}
	return b.Build()
}

func TestCursorIsIncremental(t *testing.T) {
	// The cursor must be able to produce a prefix of the answers without
	// enumerating everything (spot check that Next is usable lazily).
	a := enumerationStructure(30, 80, 31)
	ans, err := EnumerateAnswers(a, logic.R("E", "x", "y"), []string{"x", "y"}, compile.Options{})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}
	cur := ans.Cursor()
	seen := 0
	for seen < 5 {
		tpl, ok := cur.Next()
		if !ok {
			break
		}
		if !a.HasTuple("E", tpl...) {
			t.Fatalf("enumerated non-answer %v", tpl)
		}
		seen++
	}
	if seen == 0 && len(a.Tuples("E")) > 0 {
		t.Fatalf("no answers enumerated")
	}
}

func TestProvenanceOfTriangles(t *testing.T) {
	// Example 21 of the paper: the provenance of the triangle query at a
	// node is the sum of products of its triangles' edge identifiers.
	sig := structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}},
	)
	b := structure.NewBuilder(sig, 4)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 0}}
	for _, e := range edges {
		b.MustAddTuple("E", e[0], e[1])
	}
	a := b.Build()
	// f = Σ_{x,y,z} [E(x,y) ∧ E(y,z) ∧ E(z,x)] · w(x,y) · w(y,z) · w(z,x)
	f := expr.Agg([]string{"x", "y", "z"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
		expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
	))
	res, err := compile.Compile(a, f, compile.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// The edge (x, y) is the generator e^x_y.
	inputs := func(in circuit.Input) (Generator, bool) {
		if in.Symbol != "w" || !a.HasTuple("E", in.Tuple...) {
			return NoGenerator, false
		}
		return Generator{Var: in.Tuple[0], Elem: in.Tuple[1]}, true
	}
	e := NewProgram(res.Program, inputs, nil)
	got := drain(e.Cursor(0))
	// The graph has two directed triangles 0→1→2→0 and 0→1→3→0; each is
	// counted three times (once per starting vertex).
	want := explicit(res.Program, inputs)
	if !equalStringSlices(got, want) {
		t.Fatalf("triangle provenance mismatch:\n got %v\nwant %v", got, want)
	}
	if len(got) != 6 {
		t.Fatalf("expected 6 monomials (2 triangles × 3 rotations), got %d: %v", len(got), got)
	}
}
