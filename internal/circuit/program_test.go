package circuit_test

import (
	"math/big"
	"math/rand"
	. "repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"testing"

	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// checkProgramAgreesWithLegacy asserts that program evaluation (sequential
// and parallel) matches the reference walk of the builder layout
// gate-for-gate.
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
// with the legacy layout in every registered carrier (the server registry's
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
// program engine and checks every gate against a legacy-layout recomputation
// after each update, in a ring, a finite semiring and the generic path.
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
			for id := range c.Gates {
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

// TestProgramStructure checks the structural invariants of the frozen form:
// kinds, children, ranks, level coverage, deduplicated sorted parents and
// the input index all agree with the builder layout.
func TestProgramStructure(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for round := 0; round < 20; round++ {
		c := randomCircuit(r, r.Intn(6)+2, r.Intn(40)+10)
		p := c.Program()
		if p.NumGates() != c.NumGates() || p.OutputGate() != c.Output {
			t.Fatalf("program covers %d gates output %d, circuit %d/%d", p.NumGates(), p.OutputGate(), c.NumGates(), c.Output)
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
			if p.GateKind(id) != c.Gates[id].Kind {
				t.Fatalf("gate %d kind %v, circuit %v", id, p.GateKind(id), c.Gates[id].Kind)
			}
			// Children (as a multiset per gate) match the builder layout; for
			// permanent gates the arena is column-major, so compare sorted.
			want := append([]int(nil), builderChildren(c.Gates[id])...)
			got := make([]int, 0, len(want))
			for _, ch := range p.ChildIDs(id) {
				got = append(got, int(ch))
			}
			if len(got) != len(want) {
				t.Fatalf("gate %d has %d arena children, circuit %d", id, len(got), len(want))
			}
			counts := map[int]int{}
			for _, ch := range want {
				counts[ch]++
			}
			for _, ch := range got {
				counts[ch]--
			}
			for ch, n := range counts {
				if n != 0 {
					t.Fatalf("gate %d child %d multiplicity differs by %d", id, ch, n)
				}
			}
			// Every child's rank strictly below the gate's.
			for _, ch := range got {
				if p.Rank(ch) >= p.Rank(id) {
					t.Fatalf("gate %d rank %d not above child %d rank %d", id, p.Rank(id), ch, p.Rank(ch))
				}
			}
		}
		for key, id := range c.Inputs() {
			if p.InputGate(key) != id {
				t.Fatalf("input %v resolves to %d in the program, %d in the circuit", key, p.InputGate(key), id)
			}
			if p.InputKey(id) != key {
				t.Fatalf("input gate %d key %v, want %v", id, p.InputKey(id), key)
			}
		}
		if p.Footprint() <= 0 {
			t.Fatalf("non-positive footprint %d", p.Footprint())
		}
	}
}

// TestProgramWires checks the one child→parent index in the tree: the wires
// are exactly the inverse of the children arena, sorted by (parent, slot), and
// the slot of a permanent parent is the cell the builder wired.
func TestProgramWires(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for round := 0; round < 20; round++ {
		c := randomCircuit(r, r.Intn(6)+2, r.Intn(40)+10)
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
			// The slots' cells are the builder's entries, and the column runs
			// are the slots in order.
			want := map[PermEntry]int{}
			for _, e := range c.Gates[id].Entries {
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

// TestFreezeRejectsNonTopologicalCircuits mirrors the Dynamic property
// directly at the freeze seam.
func TestFreezeRejectsNonTopologicalCircuits(t *testing.T) {
	c := &Circuit{
		Gates: []Gate{
			{Kind: KindAdd, Children: []int{1}},
			{Kind: KindConst, N: big.NewInt(2)},
		},
		Output: 0,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Freeze accepted a non-topological circuit")
		}
	}()
	Freeze(c)
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
	// The frozen program interns by value as well.
	c.SetOutput(c.Add(g5, gBig))
	p := c.Program()
	if !p.ConstIsZero(c.Zero()) || p.ConstIsZero(c.One()) {
		t.Fatal("ConstIsZero misclassifies the seeded constants")
	}
	if got := p.ConstBig(gBig); got.Cmp(big1) != 0 {
		t.Fatalf("ConstBig = %s, want %s", got, big1)
	}
}

// TestInputsReturnsCopy checks the accessor satellite: mutating the returned
// map must not corrupt the circuit's input index.
func TestInputsReturnsCopy(t *testing.T) {
	c := NewBuilder()
	k := key("w", 0)
	id := c.Input(k)
	m := c.Inputs()
	m[k] = -99
	delete(m, k)
	if got := c.InputGate(k); got != id {
		t.Fatalf("mutating Inputs() corrupted the index: InputGate = %d, want %d", got, id)
	}
	if c.Input(k) != id {
		t.Fatal("re-requesting the input created a new gate")
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
