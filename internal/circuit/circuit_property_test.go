package circuit_test

import (
	"math/big"
	"math/rand"
	. "repro/internal/circuit"
	"testing"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// randomCircuit builds a random circuit over nInputs unary weight inputs
// using additions, multiplications, constants and small permanent gates.
// Gate value bounds are tracked (inputs take values below 5) so that the
// circuit value stays well inside int64 and cross-semiring comparisons are
// exact.
func randomCircuit(r *rand.Rand, nInputs, extraGates int) *Circuit {
	c, _ := recordedRandomCircuit(r, nInputs, extraGates)
	return c
}

// gateSpec is what the random generator asked the builder for in the call
// that appended a gate: the operands requested of an addition or
// multiplication (before the builder drops zeros or ones), the cells requested
// of a permanent, the key of an input or the value of a constant.
type gateSpec struct {
	kind     Kind
	operands []int
	entries  []PermEntry
	key      structure.WeightKey
	value    int64
}

// recordedRandomCircuit is randomCircuit that also returns, by gate id, the
// spec of every gate but the seeded constants 0 and 1.
func recordedRandomCircuit(r *rand.Rand, nInputs, extraGates int) (*Circuit, map[int]gateSpec) {
	const maxBound = int64(1) << 40
	c := NewBuilder()
	specs := map[int]gateSpec{}
	gates := make([]int, 0, nInputs+extraGates)
	bounds := map[int]int64{}
	add := func(g int, bound int64) {
		gates = append(gates, g)
		if old, ok := bounds[g]; !ok || bound > old {
			bounds[g] = bound
		}
	}
	for i := 0; i < nInputs; i++ {
		specs[c.NumGates()] = gateSpec{kind: KindInput, key: key("w", i)}
		add(input(c, "w", i), 4)
	}
	pick := func() int { return gates[r.Intn(len(gates))] }
	for i := 0; i < extraGates; i++ {
		before := c.NumGates()
		var spec gateSpec
		switch r.Intn(4) {
		case 0:
			a, b, d := pick(), pick(), pick()
			spec = gateSpec{kind: KindAdd, operands: []int{a, b, d}}
			add(c.Add(a, b, d), bounds[a]+bounds[b]+bounds[d])
		case 1:
			a, b := pick(), pick()
			if bounds[a] > 0 && bounds[b] > maxBound/bounds[a] {
				spec = gateSpec{kind: KindAdd, operands: []int{a, b}}
				add(c.Add(a, b), bounds[a]+bounds[b])
			} else {
				spec = gateSpec{kind: KindMul, operands: []int{a, b}}
				add(c.Mul(a, b), bounds[a]*bounds[b])
			}
		case 2:
			n := int64(r.Intn(4))
			spec = gateSpec{kind: KindConst, value: n}
			add(c.ConstInt(n), n)
		default:
			rows := r.Intn(2) + 1
			cols := r.Intn(3) + rows
			entries := make([]PermEntry, 0, rows*cols)
			var maxEntry int64 = 1
			for row := 0; row < rows; row++ {
				for col := 0; col < cols; col++ {
					g := pick()
					if bounds[g] > maxEntry {
						maxEntry = bounds[g]
					}
					entries = append(entries, PermEntry{Row: row, Col: col, Gate: g})
				}
			}
			// Crude permanent bound: (#injections) · maxEntry^rows.
			injections := int64(cols)
			if rows == 2 {
				injections = int64(cols) * int64(cols-1)
			}
			bound := injections
			overflow := false
			for j := 0; j < rows; j++ {
				if maxEntry != 0 && bound > maxBound/maxEntry {
					overflow = true
					break
				}
				bound *= maxEntry
			}
			if overflow {
				a, b := pick(), pick()
				spec = gateSpec{kind: KindAdd, operands: []int{a, b}}
				add(c.Add(a, b), bounds[a]+bounds[b])
			} else {
				spec = gateSpec{kind: KindPerm, entries: entries}
				add(c.Perm(rows, cols, entries), bound)
			}
		}
		if c.NumGates() > before {
			specs[before] = spec
		}
	}
	c.SetOutput(gates[len(gates)-1])
	return c, specs
}

func randomValues(r *rand.Rand, nInputs int) []int64 {
	vals := make([]int64, nInputs)
	for i := range vals {
		vals[i] = int64(r.Intn(5))
	}
	return vals
}

func valuationFor(vals []int64) Valuation[int64] {
	return func(in Input) (int64, bool) {
		if t := in.Tuple; in.Symbol == "w" && len(t) == 1 && t[0] >= 0 && t[0] < len(vals) {
			return vals[t[0]], true
		}
		return 0, false
	}
}

// TestEvaluateAgreesAcrossSemirings checks that evaluating in ℕ (int64) and
// in ℤ (big.Int ring) gives the same number for non-negative inputs, and
// that the boolean evaluation is exactly "the ℕ value is non-zero" — the
// homomorphism property the paper's universality relies on.
func TestEvaluateAgreesAcrossSemirings(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for round := 0; round < 60; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(10)+3)
		vals := randomValues(r, nInputs)

		nat := EvaluateProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
		bi := EvaluateProgram[*big.Int](c.Program(), semiring.Big, func(in Input) (*big.Int, bool) {
			v, ok := valuationFor(vals)(in)
			if !ok {
				return nil, false
			}
			return big.NewInt(v), true
		})
		if !bi.IsInt64() || bi.Int64() != nat {
			t.Fatalf("round %d: ℕ evaluation %d differs from big-int evaluation %s", round, nat, bi)
		}

		boolVal := EvaluateProgram[bool](c.Program(), semiring.Bool, func(in Input) (bool, bool) {
			v, ok := valuationFor(vals)(in)
			return v != 0, ok
		})
		if boolVal != (nat != 0) {
			t.Fatalf("round %d: boolean evaluation %v inconsistent with ℕ value %d", round, boolVal, nat)
		}
	}
}

// TestEvaluateAllConsistentWithEvaluate checks that the output entry of
// EvaluateAllProgram matches EvaluateProgram and that every addition/multiplication gate
// value is consistent with its children's values.
func TestEvaluateAllConsistentWithEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for round := 0; round < 40; round++ {
		nInputs := r.Intn(5) + 2
		c := randomCircuit(r, nInputs, r.Intn(12)+3)
		vals := randomValues(r, nInputs)
		v := valuationFor(vals)

		p := c.Program()
		all := EvaluateAllProgram[int64](p, semiring.Nat, v)
		if got, want := all[c.Output], EvaluateProgram[int64](p, semiring.Nat, v); got != want {
			t.Fatalf("round %d: EvaluateAllProgram output %d, EvaluateProgram %d", round, got, want)
		}
		for id := range all {
			switch p.GateKind(id) {
			case KindAdd:
				var sum int64
				for _, ch := range p.ChildIDs(id) {
					sum += all[ch]
				}
				if all[id] != sum {
					t.Fatalf("round %d: add gate %d value %d, children sum %d", round, id, all[id], sum)
				}
			case KindMul:
				prod := int64(1)
				for _, ch := range p.ChildIDs(id) {
					prod *= all[ch]
				}
				if all[id] != prod {
					t.Fatalf("round %d: mul gate %d value %d, children product %d", round, id, all[id], prod)
				}
			}
		}
	}
}

// TestDynamicMatchesRecomputationOnRandomCircuits drives the dynamic
// evaluator with long random update sequences on random circuits and
// compares against recomputation from scratch after every update.
func TestDynamicMatchesRecomputationOnRandomCircuits(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for round := 0; round < 25; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(10)+4)
		vals := randomValues(r, nInputs)
		dyn := NewDynamicProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
		for step := 0; step < 20; step++ {
			i := r.Intn(nInputs)
			vals[i] = int64(r.Intn(5))
			dyn.SetInput(key("w", i), vals[i])
			want := EvaluateProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
			if got := dyn.Value(); got != want {
				t.Fatalf("round %d step %d: dynamic value %d, recomputed %d", round, step, got, want)
			}
		}
	}
}

// TestDynamicMatchesRecomputationMinPlus repeats the dynamic-vs-recompute
// property in a non-ring semiring (min-plus), exercising the generic
// maintenance path.
func TestDynamicMatchesRecomputationMinPlus(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for round := 0; round < 20; round++ {
		nInputs := r.Intn(5) + 2
		c := randomCircuit(r, nInputs, r.Intn(8)+4)
		vals := randomValues(r, nInputs)
		toExt := func(v int64) semiring.Ext {
			if v == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(v)
		}
		valuation := func() Valuation[semiring.Ext] {
			return func(in Input) (semiring.Ext, bool) {
				v, ok := valuationFor(vals)(in)
				if !ok {
					return semiring.Infinite, false
				}
				return toExt(v), true
			}
		}
		dyn := NewDynamicProgram[semiring.Ext](c.Program(), semiring.MinPlus, valuation())
		for step := 0; step < 15; step++ {
			i := r.Intn(nInputs)
			vals[i] = int64(r.Intn(5))
			dyn.SetInput(key("w", i), toExt(vals[i]))
			want := EvaluateProgram[semiring.Ext](c.Program(), semiring.MinPlus, valuation())
			if got := dyn.Value(); !semiring.MinPlus.Equal(got, want) {
				t.Fatalf("round %d step %d: dynamic %s, recomputed %s",
					round, step, semiring.MinPlus.Format(got), semiring.MinPlus.Format(want))
			}
		}
	}
}
