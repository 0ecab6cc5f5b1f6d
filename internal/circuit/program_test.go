package circuit_test

import (
	"math/big"
	"math/rand"
	. "repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"slices"
	"testing"

	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// checkProgramAgreesWithLegacy asserts that program evaluation (sequential
// and parallel) matches the reference walk of circuittest gate-for-gate.
func checkProgramAgreesWithLegacy[T any](t *testing.T, name string, c *Circuit, s semiring.Semiring[T], v Valuation[T]) {
	t.Helper()
	want := circuittest.EvaluateAll(c, s, v)
	p := c.Program()
	for _, got := range [][]T{
		EvaluateAllProgram(p, s, v),
		ParallelEvaluateAllProgram(p, s, v, 3),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: program evaluated %d gates, legacy %d", name, len(got), len(want))
		}
		for id := range want {
			if !s.Equal(got[id], want[id]) {
				t.Fatalf("%s: gate %d program %s, legacy %s", name, id, s.Format(got[id]), s.Format(want[id]))
			}
		}
	}
}

// TestProgramEvalMatchesLegacyAcrossSemirings is the Program-equivalence
// property test: on random circuits, program evaluation agrees gate-for-gate
// with the reference walk in every registered carrier (the server registry's
// natural, min-plus, boolean and provenance semirings plus the ring, finite
// and big-int upgrades).
func TestProgramEvalMatchesLegacyAcrossSemirings(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	mod := semiring.NewModular(7)
	trunc := semiring.NewTruncated(4)
	for round := 0; round < 30; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(12)+4)
		vals := randomValues(r, nInputs)
		natVal := valuationFor(vals)

		checkProgramAgreesWithLegacy[int64](t, "nat", c, semiring.Nat, natVal)
		checkProgramAgreesWithLegacy[int64](t, "int", c, semiring.Int, natVal)
		checkProgramAgreesWithLegacy[int64](t, "mod7", c, mod, func(k structure.WeightKey) (int64, bool) {
			x, ok := natVal(k)
			return mod.Add(x, 0), ok
		})
		checkProgramAgreesWithLegacy[int64](t, "truncated", c, trunc, func(k structure.WeightKey) (int64, bool) {
			x, ok := natVal(k)
			return trunc.Add(x, 0), ok
		})
		checkProgramAgreesWithLegacy[bool](t, "bool", c, semiring.Bool, func(k structure.WeightKey) (bool, bool) {
			x, ok := natVal(k)
			return x != 0, ok
		})
		checkProgramAgreesWithLegacy[*big.Int](t, "big", c, semiring.Big, func(k structure.WeightKey) (*big.Int, bool) {
			x, ok := natVal(k)
			if !ok {
				return nil, false
			}
			return big.NewInt(x), true
		})
		checkProgramAgreesWithLegacy[semiring.Ext](t, "minplus", c, semiring.MinPlus, func(k structure.WeightKey) (semiring.Ext, bool) {
			x, ok := natVal(k)
			if x == 0 {
				return semiring.Infinite, ok
			}
			return semiring.Fin(x), ok
		})
		checkProgramAgreesWithLegacy[*provenance.Poly](t, "provenance", c, provenance.Free, func(k structure.WeightKey) (*provenance.Poly, bool) {
			if _, ok := natVal(k); !ok {
				return nil, false
			}
			return provenance.FromMonomials(provenance.NewMonomial(provenance.Generator("g" + k.Tuple))), true
		})
	}
}

// TestProgramDynamicMatchesLegacyGateForGate drives dynamic updates on the
// program engine and checks every gate against a recomputation by the
// reference walk after each update, in a ring, a finite semiring and the generic path.
func TestProgramDynamicMatchesLegacyGateForGate(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	mod := semiring.NewModular(5)
	for round := 0; round < 15; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(10)+4)
		vals := randomValues(r, nInputs)

		ring := NewDynamicProgram[int64](c.Program(), semiring.Int, valuationFor(vals))
		fin := NewDynamicProgram[int64](c.Program(), mod, func(k structure.WeightKey) (int64, bool) {
			x, ok := valuationFor(vals)(k)
			return mod.Add(x, 0), ok
		})
		toExt := func(x int64) semiring.Ext {
			if x == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(x)
		}
		generic := NewDynamicProgram[semiring.Ext](c.Program(), semiring.MinPlus, func(k structure.WeightKey) (semiring.Ext, bool) {
			x, ok := valuationFor(vals)(k)
			return toExt(x), ok
		})
		for step := 0; step < 12; step++ {
			i := r.Intn(nInputs)
			vals[i] = int64(r.Intn(5))
			ring.SetInput(key("w", i), vals[i])
			fin.SetInput(key("w", i), mod.Add(vals[i], 0))
			generic.SetInput(key("w", i), toExt(vals[i]))

			wantInt := circuittest.EvaluateAll[int64](c, semiring.Int, valuationFor(vals))
			wantMod := circuittest.EvaluateAll[int64](c, mod, func(k structure.WeightKey) (int64, bool) {
				x, ok := valuationFor(vals)(k)
				return mod.Add(x, 0), ok
			})
			wantMP := circuittest.EvaluateAll[semiring.Ext](c, semiring.MinPlus, func(k structure.WeightKey) (semiring.Ext, bool) {
				x, ok := valuationFor(vals)(k)
				return toExt(x), ok
			})
			for id := range c.NumGates() {
				if got := ring.GateValue(id); got != wantInt[id] {
					t.Fatalf("round %d step %d: ℤ gate %d dynamic %d, legacy %d", round, step, id, got, wantInt[id])
				}
				if got := fin.GateValue(id); !mod.Equal(got, wantMod[id]) {
					t.Fatalf("round %d step %d: mod-5 gate %d dynamic %d, legacy %d", round, step, id, got, wantMod[id])
				}
				if got := generic.GateValue(id); !semiring.MinPlus.Equal(got, wantMP[id]) {
					t.Fatalf("round %d step %d: min-plus gate %d dynamic %v, legacy %v", round, step, id, got, wantMP[id])
				}
			}
		}
	}
}

// TestProgramStructure checks the structural invariants of the frozen form
// against what the random generator asked for: kinds, operands (an addition
// without its zero operands, a product without its unit ones, a permanent's
// cells as a multiset, since its slots are column-major), input keys and
// their index, constants, ranks and level coverage.
func TestProgramStructure(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for round := 0; round < 20; round++ {
		c, specs := recordedRandomCircuit(r, r.Intn(6)+2, r.Intn(40)+10)
		p := c.Program()
		if p.NumGates() != c.NumGates() || p.OutputGate() != c.Output || len(specs) != p.NumGates()-2 {
			t.Fatalf("program covers %d gates output %d, circuit %d/%d with %d recorded gates", p.NumGates(), p.OutputGate(), c.NumGates(), c.Output, len(specs))
		}
		if !p.ConstIsZero(c.Zero()) || p.ConstBig(c.One()).Int64() != 1 {
			t.Fatal("the seeded constants are not 0 and 1")
		}
		covered := make([]bool, p.NumGates())
		for d := 0; d <= p.Depth(); d++ {
			for _, id := range p.LevelGates(d) {
				if covered[id] {
					t.Fatalf("gate %d scheduled twice", id)
				}
				covered[id] = true
				if p.Rank(int(id)) != d {
					t.Fatalf("gate %d on level %d has rank %d", id, d, p.Rank(int(id)))
				}
			}
		}
		for id := range covered {
			if !covered[id] {
				t.Fatalf("gate %d missing from the level schedule", id)
			}
			for _, ch := range p.ChildIDs(id) {
				if p.Rank(int(ch)) >= p.Rank(id) {
					t.Fatalf("gate %d rank %d not above child %d rank %d", id, p.Rank(id), ch, p.Rank(int(ch)))
				}
			}
		}
		for id, spec := range specs {
			if p.GateKind(id) != spec.kind {
				t.Fatalf("gate %d kind %v, asked for %v", id, p.GateKind(id), spec.kind)
			}
			var want []int
			switch spec.kind {
			case KindInput:
				if p.InputKey(id) != spec.key || p.InputGate(spec.key) != id {
					t.Fatalf("input gate %d key %v resolving to %d, want %v", id, p.InputKey(id), p.InputGate(spec.key), spec.key)
				}
			case KindConst:
				if v, ok := p.ConstInt64(id); !ok || v != spec.value {
					t.Fatalf("constant gate %d = %d, want %d", id, v, spec.value)
				}
			case KindAdd, KindMul:
				dropped := c.Zero()
				if spec.kind == KindMul {
					dropped = c.One()
				}
				for _, ch := range spec.operands {
					if ch != dropped {
						want = append(want, ch)
					}
				}
			case KindPerm:
				for _, e := range spec.entries {
					want = append(want, e.Gate)
				}
				slices.Sort(want)
			}
			got := make([]int, 0, len(want))
			for _, ch := range p.ChildIDs(id) {
				got = append(got, int(ch))
			}
			if spec.kind == KindPerm {
				slices.Sort(got)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v gate %d has operands %v, want %v", spec.kind, id, got, want)
			}
		}
		if p.Footprint() <= 0 {
			t.Fatalf("non-positive footprint %d", p.Footprint())
		}
	}
}

// TestProgramWires checks the one child→parent index in the tree: the wires
// are exactly the inverse of the children arena, sorted by (parent, slot), and
// the slots of a permanent are the cells the generator asked for.
func TestProgramWires(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for round := 0; round < 20; round++ {
		c, specs := recordedRandomCircuit(r, r.Intn(6)+2, r.Intn(40)+10)
		p := c.Program()
		wires, children := 0, 0
		for id := 0; id < p.NumGates(); id++ {
			children += len(p.ChildIDs(id))
			ws := p.Wires(id)
			wires += len(ws)
			for i, w := range ws {
				if got := p.ChildIDs(int(w.Parent))[w.Slot]; int(got) != id {
					t.Fatalf("wire %v of gate %d: slot holds gate %d", w, id, got)
				}
				if i > 0 && (ws[i-1].Parent > w.Parent || ws[i-1].Parent == w.Parent && ws[i-1].Slot >= w.Slot) {
					t.Fatalf("gate %d wires not sorted by (parent, slot): %v", id, ws)
				}
			}
			if p.GateKind(id) != KindPerm {
				continue
			}
			// The slots' cells are the requested entries, and the column runs
			// are the slots in order.
			want := map[PermEntry]int{}
			for _, e := range specs[id].entries {
				want[e]++
			}
			kids := p.ChildIDs(id)
			for slot, ch := range kids {
				row, col := p.PermCell(id, slot)
				want[PermEntry{Row: row, Col: col, Gate: int(ch)}]--
			}
			for e, n := range want {
				if n != 0 {
					t.Fatalf("perm gate %d: entry %+v multiplicity differs by %d", id, e, n)
				}
			}
			slot := 0
			_, cols := p.PermShape(id)
			for col := 0; col < cols; col++ {
				rows, gates := p.PermColumn(id, col)
				for i := range rows {
					if r, c := p.PermCell(id, slot); gates[i] != kids[slot] || int(rows[i]) != r || c != col {
						t.Fatalf("perm gate %d column %d cell %d (row %d, gate %d) is not slot %d", id, col, i, rows[i], gates[i], slot)
					}
					slot++
				}
			}
			if slot != len(kids) {
				t.Fatalf("perm gate %d: column runs hold %d cells of %d", id, slot, len(kids))
			}
		}
		if wires != children {
			t.Fatalf("%d wires for a children arena of %d", wires, children)
		}
	}
}

// checkTopological asserts the order every engine's schedule relies on: each
// operand of a gate has a smaller id and a lower rank than the gate.
func checkTopological(t *testing.T, p *Program) {
	t.Helper()
	for id := 0; id < p.NumGates(); id++ {
		for _, ch := range p.ChildIDs(id) {
			if int(ch) >= id || p.Rank(int(ch)) >= p.Rank(id) {
				t.Fatalf("gate %d (rank %d) has operand %d (rank %d)", id, p.Rank(id), ch, p.Rank(int(ch)))
			}
		}
	}
}

// TestFreezeRejectsNonTopologicalCircuits checks the topological-order
// precondition at the freeze seam.  A forward reference cannot reach Freeze:
// the builder refuses an operand or output that is not yet a gate and leaves
// the circuit as it was, so the Program frozen afterwards is in order.
func TestFreezeRejectsNonTopologicalCircuits(t *testing.T) {
	c := NewBuilder()
	two := c.ConstInt(2)
	before := c.NumGates()
	for name, forward := range map[string]func(){
		"Add":       func() { c.Add(two, before) },
		"SetOutput": func() { c.SetOutput(before) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted gate %d of a %d-gate circuit", name, before, before)
				}
			}()
			forward()
		}()
	}
	if c.NumGates() != before || c.Output != -1 {
		t.Fatalf("refused calls left %d gates and output %d, want %d and -1", c.NumGates(), c.Output, before)
	}
	c.SetOutput(c.Add(two, c.Input(key("u", 0))))
	p := Freeze(c)
	checkTopological(t, p)
	if got := EvaluateProgram[int64](p, semiring.Nat, func(structure.WeightKey) (int64, bool) { return 3, true }); got != 5 {
		t.Fatalf("2 + u at u=3 = %d, want 5", got)
	}
}

// TestConstInterning checks the builder satellite: repeated constants reuse
// one gate, 0 and 1 resolve to the seeded gates, and distinct values stay
// distinct.
func TestConstInterning(t *testing.T) {
	c := NewBuilder()
	if c.Const(big.NewInt(0)) != c.Zero() || c.Const(big.NewInt(1)) != c.One() {
		t.Fatal("0/1 constants must resolve to the seeded gates")
	}
	g5 := c.ConstInt(5)
	if c.ConstInt(5) != g5 {
		t.Fatal("repeated ConstInt(5) allocated a new gate")
	}
	if c.Const(big.NewInt(5)) != g5 {
		t.Fatal("Const(big 5) did not intern onto ConstInt(5)")
	}
	if c.ConstInt(6) == g5 {
		t.Fatal("distinct constants interned onto one gate")
	}
	big1 := new(big.Int).Lsh(big.NewInt(1), 80)
	gBig := c.Const(big1)
	if c.Const(new(big.Int).Lsh(big.NewInt(1), 80)) != gBig {
		t.Fatal("big constants not interned")
	}
	before := c.NumGates()
	c.ConstInt(5)
	c.ConstInt(6)
	c.Const(big1)
	if c.NumGates() != before {
		t.Fatalf("interned constants grew the circuit from %d to %d gates", before, c.NumGates())
	}
	// The frozen program keeps the interned values.
	c.SetOutput(c.Add(g5, gBig))
	p := c.Program()
	if !p.ConstIsZero(c.Zero()) || p.ConstIsZero(c.One()) {
		t.Fatal("ConstIsZero misclassifies the seeded constants")
	}
	if got := p.ConstBig(gBig); got.Cmp(big1) != 0 {
		t.Fatalf("ConstBig = %s, want %s", got, big1)
	}
}

// TestFrozenProgramIsNotWrittenByTheBuilder reads a frozen Program from
// another goroutine while the builder it shares its arenas with grows on —
// inputs, constants, sums, products, permanents — and freezes again: under
// -race a write of the builder into the frozen arrays or input index is a
// reported race, and the frozen Program must still evaluate as it did.
func TestFrozenProgramIsNotWrittenByTheBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	c := randomCircuit(r, 6, 80)
	frozen := c.Program()
	val := valuationFor(randomValues(r, 10))
	want := EvaluateAllProgram[int64](frozen, semiring.Nat, val)
	done := make(chan []int64)
	go func() {
		var got []int64
		for i := 0; i < 50; i++ {
			got = EvaluateAllProgram[int64](frozen, semiring.Nat, val)
			for w := 0; w < 10; w++ {
				if id := frozen.InputGate(key("w", w)); (id >= 0) != (w < 6) {
					t.Errorf("frozen program resolves w(%d) to gate %d", w, id)
				}
			}
		}
		done <- got
	}()
	for w := 6; w < 10; w++ {
		in := c.Input(key("w", w))
		sum := c.Add(in, c.Output, c.ConstInt(int64(w)))
		pm := c.Perm(2, 2, []PermEntry{{Row: 0, Col: 0, Gate: in}, {Row: 0, Col: 1, Gate: sum}, {Row: 1, Col: 1, Gate: in}})
		c.SetOutput(c.Mul(sum, pm))
		if w == 7 {
			c.Program()
		}
	}
	grown := c.Program()
	got := <-done
	if frozen.NumGates() != len(want) || !slices.Equal(got, want) {
		t.Fatalf("the frozen program changed under the builder: %d gates, values %v, want %v", frozen.NumGates(), got, want)
	}
	if grown.NumGates() <= frozen.NumGates() || grown.InputGate(key("w", 9)) < 0 {
		t.Fatalf("the grown program has %d gates and no input w(9)", grown.NumGates())
	}
}

// BenchmarkProgramEvaluateAll measures the sequential sweep on the ≥10k-gate
// permanent-heavy circuit.
func BenchmarkProgramEvaluateAll(b *testing.B) {
	c, val := benchmarkCircuit(b)
	p := c.Program()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateAllProgram[int64](p, semiring.Nat, val)
	}
}
