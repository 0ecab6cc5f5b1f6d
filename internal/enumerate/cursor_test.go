package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/provenance"
	"repro/internal/structure"
)

// TestCursorResetEquivalence drives the reset-in-place cursor through every
// way a node restarts — a product factor and a permanent cell wrapping
// around many times, an input with repeated monomials, a constant above 1,
// and one input wired into two cells of a permanent (plus a generator shared
// by two inputs) — and checks the streamed monomial multiset against the
// explicit free-semiring evaluation: live after every batch, and at a
// Snapshot pinned one batch earlier.
func TestCursorResetEquivalence(t *testing.T) {
	c := circuit.NewBuilder()
	in := make([]int, 6)
	for i := range in {
		in[i] = input(c, "w", i)
	}
	sumA := c.Add(in[0], in[1])
	sumB := c.Add(in[2], c.ConstInt(2))
	prod := c.Mul(sumA, sumB, in[3])
	pm := c.Perm(3, 3, []circuit.PermEntry{
		{Row: 0, Col: 0, Gate: in[4]}, {Row: 1, Col: 0, Gate: in[4]}, {Row: 2, Col: 0, Gate: sumB},
		{Row: 0, Col: 1, Gate: sumA}, {Row: 1, Col: 1, Gate: in[5]},
		{Row: 0, Col: 2, Gate: in[1]}, {Row: 1, Col: 2, Gate: sumB}, {Row: 2, Col: 2, Gate: in[5]},
	})
	c.SetOutput(c.Add(c.Mul(pm, sumA), prod, c.ConstInt(3)))

	twice := provenance.NewPoly()
	twice.AddMonomial(provenance.NewMonomial("p", "q"), 2)
	twice.AddMonomial(provenance.NewMonomial("r"), 3)
	values := []Value{Zero(), One(), Gen("g"), Gen("h"), FromPoly(twice),
		FromPoly(provenance.FromMonomials(provenance.NewMonomial("s"), provenance.NewMonomial()))}
	inputs := map[structure.WeightKey]Value{}
	for i := range in {
		inputs[key("w", i)] = values[2+i%4]
	}
	inputs[key("w", 5)] = Gen("g") // the generator of w0, through another input
	lookup := func(in circuit.Input) Value { return inputs[label(in)] }
	explicit := func() []string { return polyMultiset(evaluateExplicit(c, lookup)) }
	drain := func(cur Cursor) []string {
		var got []provenance.Monomial
		for m, ok := cur.Next(); ok; m, ok = cur.Next() {
			got = append(got, m)
		}
		return monomialMultiset(got)
	}

	e := NewProgram(c.Program(), lookup, nil)
	if got, want := drain(e.Cursor()), explicit(); !equalStringSlices(got, want) || len(want) < 100 {
		t.Fatalf("initial: live enumerator streams %d monomials %v, want %d", len(got), got, len(want))
	}
	r := rand.New(rand.NewSource(26))
	for step := 0; step < 80; step++ {
		epoch := e.clock.Pin()
		snap, pinned := e.At(epoch), explicit()
		batch := make([]circuit.InputChange[Value], 1+r.Intn(3))
		for i := range batch {
			k, v := key("w", r.Intn(len(in))), values[r.Intn(len(values))]
			inputs[k], batch[i] = v, circuit.InputChange[Value]{Key: k, Value: v}
		}
		setInputs(e, batch...)
		if got, want := drain(e.Cursor()), explicit(); !equalStringSlices(got, want) {
			t.Fatalf("step %d: live enumerator streams %v, want %v", step, got, want)
		}
		if got := drain(snap.Cursor()); !equalStringSlices(got, pinned) {
			t.Fatalf("step %d: snapshot one batch stale streams %v, want %v", step, got, pinned)
		}
		e.clock.Unpin(epoch)
	}
}
