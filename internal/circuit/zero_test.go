package circuit_test

import (
	"math/rand"
	. "repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"testing"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// fixedSymbol reports the inputs of weight v: the fixed inputs of the
// hand-built circuits below.
func fixedSymbol(in Input) bool { return in.Symbol == "v" }

// TestZeroedByMarksHandBuiltCircuits checks each rule of the zero analysis on
// a gate built for it, with the inputs of v fixed and those of u free.
func TestZeroedByMarksHandBuiltCircuits(t *testing.T) {
	c := NewBuilder()
	v0, v1 := input(c, "v", 0), input(c, "v", 1)
	u0, u1 := input(c, "u", 0), input(c, "u", 1)
	cases := []struct {
		name   string
		gate   int
		marked bool
	}{
		{"fixed input", v0, true},
		{"free input", u0, false},
		{"product over a fixed input", c.Mul(u0, v1), true},
		{"product over free inputs", c.Mul(u0, u1), false},
		{"sum of fixed children", c.Add(v0, v1), true},
		{"sum of mixed children", c.Add(v0, u1), false},
		{"sum of a fixed child wired twice", c.Add(v0, v0), true},
		{"sum of a marked product wired twice", c.Add(c.Mul(u0, v0), c.Mul(u0, v0)), true},
		{"product of a free child wired twice", c.Mul(u1, u1), false},
		{"permanent with a fully fixed row", c.Perm(2, 2, []PermEntry{
			{Row: 0, Col: 0, Gate: v0}, {Row: 0, Col: 1, Gate: v1},
			{Row: 1, Col: 0, Gate: u0}, {Row: 1, Col: 1, Gate: u1},
		}), true},
		{"permanent whose rows each keep a free entry", c.Perm(2, 2, []PermEntry{
			{Row: 0, Col: 0, Gate: v0}, {Row: 0, Col: 1, Gate: u1},
			{Row: 1, Col: 0, Gate: u0}, {Row: 1, Col: 1, Gate: v1},
		}), false},
		{"permanent with a fixed child wired twice in a row", c.Perm(2, 3, []PermEntry{
			{Row: 0, Col: 0, Gate: v0}, {Row: 0, Col: 2, Gate: v0},
			{Row: 1, Col: 1, Gate: u0},
		}), true},
		{"permanent with a row of no wired entry", c.Perm(2, 2, []PermEntry{
			{Row: 0, Col: 0, Gate: u0}, {Row: 0, Col: 1, Gate: u1},
		}), true},
	}
	c.SetOutput(cases[len(cases)-1].gate)
	p := c.Program()
	zero := p.ZeroedBy(fixedSymbol)
	for _, tc := range cases {
		if zero[tc.gate] != tc.marked {
			t.Errorf("%s (gate %d, %v): marked = %v, want %v", tc.name, tc.gate, p.GateKind(tc.gate), zero[tc.gate], tc.marked)
		}
	}
	if zero := p.ZeroedBy(func(Input) bool { return false }); zero != nil {
		t.Errorf("with no fixed input ZeroedBy = %v, want nil", zero)
	}
}

// TestZeroedByGatesEvaluateToZero holds the analysis to the reference
// evaluator on random circuits: with the fixed inputs at 0 and the others
// random, every marked gate evaluates to Zero in ℕ, in min-plus (where 0 is
// +∞) and in the booleans.
func TestZeroedByGatesEvaluateToZero(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	markedInner := 0
	for round := 0; round < 200; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(16)+4)
		fixed := randomFixed(r, nInputs)
		p := c.Program()
		zero := p.ZeroedBy(fixed)
		for id, z := range zero {
			if z && p.GateKind(id) != KindInput {
				markedInner++
			}
		}
		vals := randomValues(r, nInputs)
		checkMarkedZero(t, round, c, zero, semiring.Nat, fixed, func(in Input) int64 { return vals[in.Tuple[0]] })
		checkMarkedZero(t, round, c, zero, semiring.MinPlus, fixed, func(in Input) semiring.Ext {
			if v := vals[in.Tuple[0]]; v != 4 {
				return semiring.Fin(v)
			}
			return semiring.Infinite
		})
		checkMarkedZero(t, round, c, zero, semiring.Bool, fixed, func(in Input) bool { return vals[in.Tuple[0]] != 0 })
	}
	if markedInner == 0 {
		t.Fatal("no round marked a gate other than an input")
	}
}

// randomFixed fixes each input of weight w with probability one half, and at
// least one.
func randomFixed(r *rand.Rand, nInputs int) func(Input) bool {
	fixed := make([]bool, nInputs)
	fixed[r.Intn(nInputs)] = true
	for i := range fixed {
		fixed[i] = fixed[i] || r.Intn(2) == 0
	}
	return func(in Input) bool { return fixed[in.Tuple[0]] }
}

func checkMarkedZero[T any](t *testing.T, round int, c *Circuit, zero []bool, s semiring.Semiring[T], fixed func(Input) bool, free func(Input) T) {
	t.Helper()
	vals := circuittest.EvaluateAll[T](c, s, func(in Input) (T, bool) {
		if fixed(in) {
			return s.Zero(), true
		}
		return free(in), true
	})
	for id, z := range zero {
		if z && !semiring.IsZero(s, vals[id]) {
			t.Fatalf("round %d: gate %d (%v) is marked but evaluates to %s", round, id, c.Program().GateKind(id), s.Format(vals[id]))
		}
	}
}

// TestPrunedDynamicMatchesReference runs a Dynamic that leaves out the gates
// its fixed inputs zero on random circuits, in one carrier per update
// strategy and in min-plus, and holds it to the reference evaluator with the
// fixed inputs at zero: every gate after every write, a point read raising
// fixed inputs on the live values, and the same read through a snapshot
// pinned one write back.
func TestPrunedDynamicMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	t.Run("Nat-generic", func(t *testing.T) {
		checkPrunedDynamic[int64](t, r, semiring.Nat, func() int64 { return int64(r.Intn(5)) })
	})
	t.Run("Int-ring", func(t *testing.T) {
		checkPrunedDynamic[int64](t, r, semiring.Int, func() int64 { return int64(r.Intn(9) - 4) })
	})
	t.Run("Bool-finite", func(t *testing.T) {
		checkPrunedDynamic[bool](t, r, semiring.Bool, func() bool { return r.Intn(2) == 0 })
	})
	t.Run("MinPlus-generic", func(t *testing.T) {
		checkPrunedDynamic[semiring.Ext](t, r, semiring.MinPlus, func() semiring.Ext {
			if r.Intn(4) == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(int64(r.Intn(10)))
		})
	})
}

func checkPrunedDynamic[T any](t *testing.T, r *rand.Rand, s semiring.Semiring[T], draw func() T) {
	for round := 0; round < 30; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(16)+4)
		p := c.Program()
		fixed := randomFixed(r, nInputs)
		var free, held []int
		vals := make([]T, nInputs)
		for i := range vals {
			if fixed(Input{Symbol: "w", Tuple: structure.Tuple{i}}) {
				held = append(held, i)
				vals[i] = s.Zero()
			} else {
				free = append(free, i)
				vals[i] = draw()
			}
		}
		val := func(over map[int]T) Valuation[T] {
			return func(in Input) (T, bool) {
				if v, ok := over[in.Tuple[0]]; ok {
					return v, true
				}
				return vals[in.Tuple[0]], true
			}
		}
		d := NewDynamicPruned[T](p, s, val(nil), p.ZeroedBy(fixed))
		// raise draws a point read: up to two fixed inputs take values.
		raise := func() (map[int]T, []Leaf[T]) {
			over := map[int]T{}
			var leaves []Leaf[T]
			for k := r.Intn(3); k > 0; k-- {
				i, v := held[r.Intn(len(held))], draw()
				over[i] = v
				leaves = append(leaves, Leaf[T]{Gate: p.InputGate(key("w", i)), Value: v})
			}
			return over, leaves
		}
		for step := 0; step < 20 && len(free) > 0; step++ {
			snap := d.Snapshot()
			over, leaves := raise()
			pinned := circuittest.EvaluateAll[T](c, s, val(over))[c.Output]

			i := free[r.Intn(len(free))]
			vals[i] = draw()
			d.SetInput(key("w", i), vals[i])
			for id, want := range circuittest.EvaluateAll[T](c, s, val(nil)) {
				if got := d.GateValue(id); !s.Equal(got, want) {
					t.Fatalf("round %d step %d gate %d: maintained %s, reference %s", round, step, id, s.Format(got), s.Format(want))
				}
			}
			if got := snap.EvalWith(leaves); !s.Equal(got, pinned) {
				t.Fatalf("round %d step %d: EvalWith one write back = %s, reference %s", round, step, s.Format(got), s.Format(pinned))
			}
			snap.Release()
			over, leaves = raise()
			want := circuittest.EvaluateAll[T](c, s, val(over))[c.Output]
			if got := d.Live().EvalWith(leaves); !s.Equal(got, want) {
				t.Fatalf("round %d step %d: live EvalWith = %s, reference %s", round, step, s.Format(got), s.Format(want))
			}
		}
	}
}

// TestPrunedDynamicRejectsWritesToFixedInputs checks that a write reaching a
// gate the Dynamic holds at zero fails loudly instead of leaving its marked
// parents stale.
func TestPrunedDynamicRejectsWritesToFixedInputs(t *testing.T) {
	c := NewBuilder()
	v0, u0 := input(c, "v", 0), input(c, "u", 0)
	c.SetOutput(c.Add(c.Mul(v0, u0), u0))
	p := c.Program()
	d := NewDynamicPruned[int64](p, semiring.Nat, func(in Input) (int64, bool) {
		if fixedSymbol(in) {
			return 0, true
		}
		return 1, true
	}, p.ZeroedBy(fixedSymbol))
	if got := d.Value(); got != 1 {
		t.Fatalf("Value = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a write to a fixed input did not panic")
		}
	}()
	d.SetInput(key("v", 0), 2)
}
