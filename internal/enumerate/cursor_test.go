package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/structure"
)

// TestCursorResetEquivalence drives the reset-in-place cursor through every
// way a node restarts — a product factor and a permanent cell wrapping
// around many times, a membership input, a constant above 1, and one input
// wired into two cells of a permanent (plus a generator shared by two
// inputs) — and checks the streamed monomial multiset against the explicit
// free-semiring evaluation: live after every batch, and at a Snapshot pinned
// one batch earlier.
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

	inputs := map[structure.WeightKey]val{
		key("w", 0): gen(0, 0),
		key("w", 1): member(true),
		key("w", 2): gen(1, 2),
		key("w", 3): gen(0, 3),
		key("w", 4): gen(2, 4),
		key("w", 5): gen(0, 0), // the generator of w0, through another input
	}
	values := lookup(inputs)
	oracle := func() []string { return explicit(c.Program(), values) }

	e := NewProgram(c.Program(), values, nil)
	if got, want := drain(e.Cursor(0)), oracle(); !equalStringSlices(got, want) || len(want) < 50 {
		t.Fatalf("initial: live enumerator streams %d monomials %v, want %d", len(got), got, len(want))
	}
	r := rand.New(rand.NewSource(26))
	for step := 0; step < 80; step++ {
		epoch := e.clock.Pin()
		snap, pinned := e.At(epoch), oracle()
		batch := make([]circuit.InputChange[bool], 1+r.Intn(3))
		for i := range batch {
			k := key("w", r.Intn(len(in)))
			v := inputs[k]
			v.present = r.Intn(3) > 0
			inputs[k], batch[i] = v, circuit.InputChange[bool]{Key: k, Value: v.present}
		}
		setInputs(e, batch...)
		if got, want := drain(e.Cursor(0)), oracle(); !equalStringSlices(got, want) {
			t.Fatalf("step %d: live enumerator streams %v, want %v", step, got, want)
		}
		if got := drain(snap.Cursor(0)); !equalStringSlices(got, pinned) {
			t.Fatalf("step %d: snapshot one batch stale streams %v, want %v", step, got, pinned)
		}
		e.clock.Unpin(epoch)
	}
}
