package enumerate

import (
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

// setInputs stages input values into e and commits them, the way Answers
// stages its leaves: every value assigned under the clock, then one wave.
func setInputs(e *Enumerator, leaves ...circuit.InputChange[Value]) {
	e.clock.Lock()
	defer e.clock.Unlock()
	for _, l := range leaves {
		e.assign(e.p.InputGate(l.Key), l.Value)
	}
	e.runWave()
	e.clock.Commit()
}

// collectAll drains a fresh cursor over e's output gate.
func collectAll(e *Enumerator) []provenance.Monomial {
	var out []provenance.Monomial
	cur := e.Cursor()
	for m, ok := cur.Next(); ok; m, ok = cur.Next() {
		out = append(out, m)
	}
	return out
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

// evaluateExplicit evaluates the circuit's Program in the explicit free
// semiring under the same inputs: the differential oracle of the cursors on
// small instances.
func evaluateExplicit(c *circuit.Circuit, inputs func(in circuit.Input) Value) *provenance.Poly {
	val := func(in circuit.Input) (*provenance.Poly, bool) {
		if inputs == nil {
			return nil, false
		}
		v := inputs(in)
		if v == nil {
			return nil, false
		}
		p := provenance.NewPoly()
		cur := v.Cursor()
		for {
			m, ok := cur.Next()
			if !ok {
				break
			}
			p.AddMonomial(m, 1)
		}
		return p, true
	}
	return circuit.EvaluateProgram[*provenance.Poly](c.Program(), provenance.Free, val)
}

// countMonomials evaluates the circuit's Program in ℕ under the homomorphism
// sending every generator to 1: the number of monomials (with multiplicity)
// of the output value, cross-checking enumeration completeness.
func countMonomials(c *circuit.Circuit, inputs func(in circuit.Input) Value) int64 {
	val := func(in circuit.Input) (int64, bool) {
		if inputs == nil {
			return 0, false
		}
		v := inputs(in)
		if v == nil || v.Empty() {
			return 0, false
		}
		count := int64(0)
		cur := v.Cursor()
		for {
			_, ok := cur.Next()
			if !ok {
				break
			}
			count++
		}
		return count, true
	}
	return circuit.EvaluateProgram[int64](c.Program(), semiring.Nat, val)
}

// checkEnumeratorAgainstExplicit builds both the iterator-based enumerator
// and the explicit free-semiring evaluation of a circuit and compares the
// resulting multisets of monomials.
func checkEnumeratorAgainstExplicit(t *testing.T, c *circuit.Circuit, inputs func(circuit.Input) Value) {
	t.Helper()
	e := NewProgram(c.Program(), inputs, nil)
	got := monomialMultiset(collectAll(e))
	want := polyMultiset(evaluateExplicit(c, inputs))
	if !equalStringSlices(got, want) {
		t.Fatalf("enumerator and explicit evaluation disagree:\n got %v\nwant %v", got, want)
	}
	if e.Empty() != (len(want) == 0) {
		t.Fatalf("Empty() = %v but %d monomials expected", e.Empty(), len(want))
	}
	if count := countMonomials(c, inputs); count != int64(len(want)) {
		t.Fatalf("countMonomials = %d, want %d", count, len(want))
	}
}

func TestValueBasics(t *testing.T) {
	if !Zero().Empty() || One().Empty() || Gen("g").Empty() {
		t.Errorf("emptiness of basic values broken")
	}
	if m, ok := One().Cursor().Next(); !ok || len(m) != 0 {
		t.Errorf("One cursor should yield the empty monomial")
	}
	if _, ok := Zero().Cursor().Next(); ok {
		t.Errorf("Zero cursor should be empty")
	}
	if m, ok := Gen("g").Cursor().Next(); !ok || m.Key() != "g" {
		t.Errorf("Gen cursor should yield its generator")
	}
	if Bool(true).Empty() || !Bool(false).Empty() {
		t.Errorf("Bool values broken")
	}
	p := provenance.FromMonomials(provenance.NewMonomial("a"), provenance.NewMonomial("a", "b"))
	v := FromPoly(p)
	cur := v.Cursor()
	count := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Errorf("FromPoly cursor yielded %d monomials, want 2", count)
	}
}

// TestPermCursorDirect exercises the permanent-gate cursor on hand-built
// circuits against explicit evaluation.
func TestPermCursorDirect(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		rows := r.Intn(3) + 1
		cols := r.Intn(5) + 1
		c := circuit.NewBuilder()
		var entries []circuit.PermEntry
		inputs := map[structure.WeightKey]Value{}
		for col := 0; col < cols; col++ {
			for row := 0; row < rows; row++ {
				switch r.Intn(3) {
				case 0:
					// absent entry
				case 1:
					k := key("w", row, col)
					inputs[k] = Gen(provenance.Generator(k.Tuple))
					entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: input(c, "w", row, col)})
				default:
					k := key("p", row, col)
					inputs[k] = FromPoly(provenance.FromMonomials(
						provenance.NewMonomial(provenance.Generator("x"+k.Tuple)),
						provenance.NewMonomial(provenance.Generator("y"+k.Tuple)),
					))
					entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: input(c, "p", row, col)})
				}
			}
		}
		c.SetOutput(c.Perm(rows, cols, entries))
		lookup := func(in circuit.Input) Value { return inputs[label(in)] }
		checkEnumeratorAgainstExplicit(t, c, lookup)
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
	inputs := map[structure.WeightKey]Value{
		key("a", 0): Gen("a"),
		key("b", 0): Gen("b"),
		key("d", 0): Zero(),
	}
	lookup := func(in circuit.Input) Value { return inputs[label(in)] }
	checkEnumeratorAgainstExplicit(t, c, lookup)
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
	inputs := func(in circuit.Input) Value {
		k := label(in)
		if k.Weight != "w" {
			return Zero()
		}
		tpl := structure.ParseTupleKey(k.Tuple)
		if !a.HasTuple("E", tpl...) {
			return Zero()
		}
		return Gen(provenance.Generator("e" + k.Tuple))
	}
	e := NewProgram(res.Program, inputs, nil)
	got := monomialMultiset(collectAll(e))
	// The graph has two directed triangles 0→1→2→0 and 0→1→3→0; each is
	// counted three times (once per starting vertex).
	want := polyMultiset(evaluateExplicit(res.Circuit, inputs))
	if !equalStringSlices(got, want) {
		t.Fatalf("triangle provenance mismatch:\n got %v\nwant %v", got, want)
	}
	if len(got) != 6 {
		t.Fatalf("expected 6 monomials (2 triangles × 3 rotations), got %d: %v", len(got), got)
	}
}
