package circuit_test

import (
	"math/rand"
	. "repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"testing"

	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// TestApplyBatchMatchesSequentialUpdates checks, on random circuits, that
// applying a batch of input changes is observationally identical to applying
// the same changes one at a time through SetInput.
func TestApplyBatchMatchesSequentialUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for round := 0; round < 30; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(10)+4)
		vals := randomValues(r, nInputs)
		batched := NewDynamicProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
		single := NewDynamicProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
		for step := 0; step < 8; step++ {
			batch := make([]InputChange[int64], r.Intn(6)+1)
			for i := range batch {
				// Duplicate keys within a batch are deliberate: the last
				// value must win, as it does for sequential SetInput.
				batch[i] = InputChange[int64]{Key: key("w", r.Intn(nInputs)), Value: int64(r.Intn(5))}
			}
			batched.ApplyBatch(batch)
			for _, ch := range batch {
				single.SetInput(ch.Key, ch.Value)
			}
			for id := range c.NumGates() {
				if batched.GateValue(id) != single.GateValue(id) {
					t.Fatalf("round %d step %d: gate %d batched %d, sequential %d",
						round, step, id, batched.GateValue(id), single.GateValue(id))
				}
			}
		}
	}
}

// TestDynamicOracleRandomized interleaves single updates and batches across
// the natural, min-plus and provenance semirings (plus the ring and finite
// fast paths) and checks every result against full re-evaluation.
func TestDynamicOracleRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	mod := semiring.NewModular(7)
	trunc := semiring.NewTruncated(4)
	for round := 0; round < 12; round++ {
		nInputs := r.Intn(6) + 2
		c := randomCircuit(r, nInputs, r.Intn(10)+4)
		vals := randomValues(r, nInputs)

		// One dynamic evaluator per semiring, all driven by the same updates.
		nat := NewDynamicProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
		ring := NewDynamicProgram[int64](c.Program(), semiring.Int, valuationFor(vals))
		fin := NewDynamicProgram[int64](c.Program(), trunc, func(k structure.WeightKey) (int64, bool) {
			v, ok := valuationFor(vals)(k)
			return trunc.Add(v, 0), ok
		})
		finMod := NewDynamicProgram[int64](c.Program(), mod, func(k structure.WeightKey) (int64, bool) {
			v, ok := valuationFor(vals)(k)
			return mod.Add(v, 0), ok
		})
		toExt := func(v int64) semiring.Ext {
			if v == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(v)
		}
		mp := NewDynamicProgram[semiring.Ext](c.Program(), semiring.MinPlus, func(k structure.WeightKey) (semiring.Ext, bool) {
			v, ok := valuationFor(vals)(k)
			return toExt(v), ok
		})
		toPoly := func(i int, v int64) *provenance.Poly {
			if v == 0 {
				return provenance.NewPoly()
			}
			p := provenance.NewPoly()
			m := provenance.NewMonomial(provenance.Generator(structure.Tuple{i}.Key()))
			p.AddMonomial(m, v)
			return p
		}
		provVal := func(k structure.WeightKey) (*provenance.Poly, bool) {
			tp := structure.ParseTupleKey(k.Tuple)
			if k.Weight != "w" || len(tp) != 1 || tp[0] < 0 || tp[0] >= len(vals) {
				return nil, false
			}
			return toPoly(tp[0], vals[tp[0]]), true
		}
		prov := NewDynamicProgram[*provenance.Poly](c.Program(), provenance.Free, provVal)

		check := func(step int) {
			t.Helper()
			if got, want := nat.Value(), EvaluateProgram[int64](c.Program(), semiring.Nat, valuationFor(vals)); got != want {
				t.Fatalf("round %d step %d: ℕ dynamic %d, oracle %d", round, step, got, want)
			}
			if got, want := ring.Value(), EvaluateProgram[int64](c.Program(), semiring.Int, valuationFor(vals)); got != want {
				t.Fatalf("round %d step %d: ℤ dynamic %d, oracle %d", round, step, got, want)
			}
			wantFin := EvaluateProgram[int64](c.Program(), trunc, func(k structure.WeightKey) (int64, bool) {
				v, ok := valuationFor(vals)(k)
				return trunc.Add(v, 0), ok
			})
			if got := fin.Value(); !trunc.Equal(got, wantFin) {
				t.Fatalf("round %d step %d: truncated dynamic %d, oracle %d", round, step, got, wantFin)
			}
			wantMod := EvaluateProgram[int64](c.Program(), mod, func(k structure.WeightKey) (int64, bool) {
				v, ok := valuationFor(vals)(k)
				return mod.Add(v, 0), ok
			})
			if got := finMod.Value(); !mod.Equal(got, wantMod) {
				t.Fatalf("round %d step %d: mod-7 dynamic %d, oracle %d", round, step, got, wantMod)
			}
			wantMP := EvaluateProgram[semiring.Ext](c.Program(), semiring.MinPlus, func(k structure.WeightKey) (semiring.Ext, bool) {
				v, ok := valuationFor(vals)(k)
				return toExt(v), ok
			})
			if got := mp.Value(); !semiring.MinPlus.Equal(got, wantMP) {
				t.Fatalf("round %d step %d: min-plus dynamic %v, oracle %v", round, step, got, wantMP)
			}
			wantProv := EvaluateProgram[*provenance.Poly](c.Program(), provenance.Free, provVal)
			if got := prov.Value(); !provenance.Free.Equal(got, wantProv) {
				t.Fatalf("round %d step %d: provenance dynamic %s, oracle %s",
					round, step, provenance.Free.Format(got), provenance.Free.Format(wantProv))
			}
		}
		check(-1)
		for step := 0; step < 12; step++ {
			if r.Intn(2) == 0 {
				// Single update.
				i := r.Intn(nInputs)
				vals[i] = int64(r.Intn(5))
				nat.SetInput(key("w", i), vals[i])
				ring.SetInput(key("w", i), vals[i])
				fin.SetInput(key("w", i), trunc.Add(vals[i], 0))
				finMod.SetInput(key("w", i), mod.Add(vals[i], 0))
				mp.SetInput(key("w", i), toExt(vals[i]))
				prov.SetInput(key("w", i), toPoly(i, vals[i]))
			} else {
				// Batch of updates, possibly with repeated keys.
				size := r.Intn(2*nInputs) + 1
				idx := make([]int, size)
				val := make([]int64, size)
				for j := range idx {
					idx[j] = r.Intn(nInputs)
					val[j] = int64(r.Intn(5))
					vals[idx[j]] = val[j]
				}
				mkBatch := func(f func(i int, v int64) InputChange[int64]) []InputChange[int64] {
					out := make([]InputChange[int64], size)
					for j := range out {
						out[j] = f(idx[j], val[j])
					}
					return out
				}
				nat.ApplyBatch(mkBatch(func(i int, v int64) InputChange[int64] {
					return InputChange[int64]{Key: key("w", i), Value: v}
				}))
				ring.ApplyBatch(mkBatch(func(i int, v int64) InputChange[int64] {
					return InputChange[int64]{Key: key("w", i), Value: v}
				}))
				fin.ApplyBatch(mkBatch(func(i int, v int64) InputChange[int64] {
					return InputChange[int64]{Key: key("w", i), Value: trunc.Add(v, 0)}
				}))
				finMod.ApplyBatch(mkBatch(func(i int, v int64) InputChange[int64] {
					return InputChange[int64]{Key: key("w", i), Value: mod.Add(v, 0)}
				}))
				mpBatch := make([]InputChange[semiring.Ext], size)
				for j := range mpBatch {
					mpBatch[j] = InputChange[semiring.Ext]{Key: key("w", idx[j]), Value: toExt(val[j])}
				}
				mp.ApplyBatch(mpBatch)
				provBatch := make([]InputChange[*provenance.Poly], size)
				for j := range provBatch {
					provBatch[j] = InputChange[*provenance.Poly]{Key: key("w", idx[j]), Value: toPoly(idx[j], val[j])}
				}
				prov.ApplyBatch(provBatch)
			}
			check(step)
		}
	}
}

// TestApplyBatchRevertIsNoOp checks that a batch setting a key away from and
// back to its current value leaves every gate untouched.
func TestApplyBatchRevertIsNoOp(t *testing.T) {
	c := buildTriangleLike(4)
	vals := map[structure.WeightKey]int64{}
	r := rand.New(rand.NewSource(5))
	for a := 0; a < 4; a++ {
		for _, w := range []string{"u", "v", "w"} {
			vals[key(w, a)] = int64(r.Intn(4) + 1)
		}
	}
	val := func(k structure.WeightKey) (int64, bool) { v, ok := vals[k]; return v, ok }
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, val)
	before := make([]int64, c.NumGates())
	for id := range c.NumGates() {
		before[id] = d.GateValue(id)
	}
	cur := vals[key("u", 0)]
	d.ApplyBatch([]InputChange[int64]{
		{Key: key("u", 0), Value: cur + 10},
		{Key: key("u", 0), Value: cur},
	})
	for id := range c.NumGates() {
		if d.GateValue(id) != before[id] {
			t.Fatalf("gate %d changed from %d to %d after a revert batch", id, before[id], d.GateValue(id))
		}
	}
	// Unknown keys in a batch are ignored.
	d.ApplyBatch([]InputChange[int64]{{Key: key("unrelated", 9), Value: 99}})
	if d.Value() != before[c.Output] {
		t.Fatalf("unknown batched key changed the output value")
	}
}

// TestNewDynamicRejectsNonTopologicalCircuits is the property test for the
// topological-order precondition: propagation processes gates in rank order,
// so a gate may only read gates built before it.  On random circuits, an
// addition, multiplication or permanent asked to read a gate id at or past
// the end is refused and leaves the circuit as it was, and a Dynamic over
// the circuit still agrees with the reference walk.
func TestNewDynamicRejectsNonTopologicalCircuits(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for round := 0; round < 20; round++ {
		nInputs := r.Intn(4) + 2
		c := randomCircuit(r, nInputs, r.Intn(8)+4)
		before := c.NumGates()
		ok, bad := r.Intn(before), before+r.Intn(3)
		for name, forward := range map[string]func(){
			"Add":  func() { c.Add(ok, bad) },
			"Mul":  func() { c.Mul(bad, ok) },
			"Perm": func() { c.Perm(1, 2, []PermEntry{{Row: 0, Col: 0, Gate: ok}, {Row: 0, Col: 1, Gate: bad}}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("round %d: %s accepted operand %d of a %d-gate circuit", round, name, bad, before)
					}
				}()
				forward()
			}()
		}
		if c.NumGates() != before {
			t.Fatalf("round %d: refused gates left %d gates, want %d", round, c.NumGates(), before)
		}
		checkTopological(t, c.Program())
		vals := randomValues(r, nInputs)
		d := NewDynamicProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
		want := circuittest.EvaluateAll(c, semiring.Nat, valuationFor(vals))
		if got := d.Value(); got != want[c.Output] {
			t.Fatalf("round %d: Dynamic value %d, want %d", round, got, want[c.Output])
		}
	}
}

// collidingFormat wraps a finite semiring with a Format that is constant on
// the carrier, modelling diagnostics-oriented renderings that are not
// injective; elemIndex must fall back to Equal scans and stay correct.
type collidingFormat struct{ semiring.Truncated }

func (collidingFormat) Format(int64) string { return "∗" }

// TestFiniteCarrierIndexPaths drives the finite adder path through both
// elemIndex strategies: a >32-element carrier with injective Format (the
// precomputed map) and the same carrier with a colliding Format (the map is
// dropped at NewDynamicProgram and the Equal-scan fallback takes over).
func TestFiniteCarrierIndexPaths(t *testing.T) {
	big := semiring.NewTruncated(40) // 41 elements: above the scan limit
	coll := collidingFormat{big}
	r := rand.New(rand.NewSource(61))
	for round := 0; round < 10; round++ {
		nInputs := r.Intn(5) + 2
		c := randomCircuit(r, nInputs, r.Intn(8)+4)
		vals := randomValues(r, nInputs)
		mapped := NewDynamicProgram[int64](c.Program(), big, valuationFor(vals))
		scanned := NewDynamicProgram[int64](c.Program(), coll, valuationFor(vals))
		for step := 0; step < 10; step++ {
			i := r.Intn(nInputs)
			vals[i] = int64(r.Intn(5))
			mapped.SetInput(key("w", i), vals[i])
			scanned.SetInput(key("w", i), vals[i])
			want := EvaluateProgram[int64](c.Program(), big, valuationFor(vals))
			if got := mapped.Value(); !big.Equal(got, want) {
				t.Fatalf("round %d step %d: mapped finite path %d, oracle %d", round, step, got, want)
			}
			if got := scanned.Value(); !big.Equal(got, want) {
				t.Fatalf("round %d step %d: colliding-Format fallback %d, oracle %d", round, step, got, want)
			}
		}
	}
}

// TestGenericUpdateZeroAllocs is the allocation-regression guard: after
// warm-up, single updates and batches on the generic path must not allocate.
// The circuit mixes the shapes that matter — shared mul gates, a wide adder
// with its aggregation tree, and a permanent gate backed by perm.Dynamic.
func TestGenericUpdateZeroAllocs(t *testing.T) {
	c := NewBuilder()
	const nInputs = 32
	inputs := make([]int, nInputs)
	for i := range inputs {
		inputs[i] = c.Input(key("w", i))
	}
	var muls []int
	for i := 0; i+1 < nInputs; i += 2 {
		muls = append(muls, c.Mul(inputs[i], inputs[i+1]))
	}
	wide := c.Add(muls...)
	var entries []PermEntry
	for col := 0; col < 8; col++ {
		entries = append(entries, PermEntry{Row: 0, Col: col, Gate: inputs[col]})
		entries = append(entries, PermEntry{Row: 1, Col: col, Gate: inputs[col+8]})
	}
	permGate := c.Perm(2, 8, entries)
	c.SetOutput(c.Add(wide, permGate))

	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, func(k structure.WeightKey) (int64, bool) {
		return 1, true
	})
	keys := make([]structure.WeightKey, nInputs)
	for i := range keys {
		keys[i] = key("w", i)
	}
	// Warm-up: grow every scratch buffer to steady-state capacity.
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			d.SetInput(k, int64(round+i%4+1))
		}
	}

	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		step++
		d.SetInput(keys[step%nInputs], int64(step%5+1))
	})
	if allocs != 0 {
		t.Errorf("SetInput allocates %.2f objects per steady-state generic-path update, want 0", allocs)
	}

	batch := make([]InputChange[int64], 8)
	allocs = testing.AllocsPerRun(200, func() {
		step++
		for i := range batch {
			batch[i] = InputChange[int64]{Key: keys[(step+i)%nInputs], Value: int64((step+i)%5 + 1)}
		}
		d.ApplyBatch(batch)
	})
	if allocs != 0 {
		t.Errorf("ApplyBatch allocates %.2f objects per steady-state batch, want 0", allocs)
	}
}

// BenchmarkDynamicGenericUpdate reports the per-update cost and allocation
// count of the generic path (run with -benchmem; the allocs/op column must
// stay at 0).
func BenchmarkDynamicGenericUpdate(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	c := randomCircuit(r, 24, 60)
	vals := randomValues(r, 24)
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
	keys := make([]structure.WeightKey, 24)
	for i := range keys {
		keys[i] = key("w", i)
	}
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			d.SetInput(k, int64(round+i%4+1))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SetInput(keys[i%len(keys)], int64(i%5+1))
	}
}

// BenchmarkDynamicApplyBatch reports the amortised per-update cost of
// batched application on the same circuit shape.
func BenchmarkDynamicApplyBatch(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	c := randomCircuit(r, 24, 60)
	vals := randomValues(r, 24)
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, valuationFor(vals))
	keys := make([]structure.WeightKey, 24)
	for i := range keys {
		keys[i] = key("w", i)
	}
	batch := make([]InputChange[int64], 64)
	for i := range batch {
		batch[i] = InputChange[int64]{Key: keys[i%len(keys)], Value: int64(i%5 + 1)}
	}
	d.ApplyBatch(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Value = int64((i + j) % 5)
		}
		d.ApplyBatch(batch)
	}
}

// TestRepeatedWires wires one gate several times into one parent — an input
// twice into an addition gate and into two cells of one permanent, an interior
// gate twice into the output sum — so the slot-addressed rules (one ring delta,
// one count, one tree leaf, one matrix cell per wire) are checked where a gate
// and a slot are not the same thing: gate for gate against the reference walk
// after every write, and through DynSnapshot.EvalWith at a pin one write
// stale.  Every write assigns its key twice, so the first value's slots are
// enlisted and then found unchanged or changed again.
func TestRepeatedWires(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	t.Run("Int-ring", func(t *testing.T) {
		checkRepeatedWires[int64](t, r, semiring.Int, func() int64 { return int64(r.Intn(9) - 4) })
	})
	t.Run("Bool-finite", func(t *testing.T) {
		checkRepeatedWires[bool](t, r, semiring.Bool, func() bool { return r.Intn(2) == 0 })
	})
	t.Run("Mod7-finite", func(t *testing.T) {
		checkRepeatedWires[int64](t, r, semiring.NewModular(7), func() int64 { return int64(r.Intn(7)) })
	})
	t.Run("Nat-generic", func(t *testing.T) {
		checkRepeatedWires[int64](t, r, semiring.Nat, func() int64 { return int64(r.Intn(5)) })
	})
	t.Run("MinPlus-generic", func(t *testing.T) {
		checkRepeatedWires[semiring.Ext](t, r, semiring.MinPlus, func() semiring.Ext {
			if r.Intn(4) == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(int64(r.Intn(10)))
		})
	})
}

func checkRepeatedWires[T any](t *testing.T, r *rand.Rand, s semiring.Semiring[T], draw func() T) {
	c := NewBuilder()
	x, y, z := c.Input(key("w", 0)), c.Input(key("w", 1)), c.Input(key("w", 2))
	sum := c.Add(x, x, y)
	pm := c.Perm(2, 3, []PermEntry{
		{Row: 0, Col: 0, Gate: x}, {Row: 0, Col: 1, Gate: y}, {Row: 0, Col: 2, Gate: z},
		{Row: 1, Col: 0, Gate: z}, {Row: 1, Col: 1, Gate: x}, {Row: 1, Col: 2, Gate: sum},
	})
	c.SetOutput(c.Add(c.Mul(sum, pm), sum, sum))

	vals := map[structure.WeightKey]T{}
	for i := 0; i < 3; i++ {
		vals[key("w", i)] = draw()
	}
	val := func(k structure.WeightKey) (T, bool) { v, ok := vals[k]; return v, ok }
	d := NewDynamicProgram[T](c.Program(), s, val)
	for step := 0; step < 60; step++ {
		snap := d.Snapshot()
		overKey, overVal := key("w", r.Intn(3)), draw()
		pinned := circuittest.EvaluateAll[T](c, s, func(k structure.WeightKey) (T, bool) {
			if k == overKey {
				return overVal, true
			}
			return val(k)
		})[c.Output]

		k := key("w", r.Intn(3))
		vals[k] = draw()
		d.ApplyBatch([]InputChange[T]{{Key: k, Value: draw()}, {Key: k, Value: vals[k]}})
		for id, want := range circuittest.EvaluateAll[T](c, s, val) {
			if got := d.GateValue(id); !s.Equal(got, want) {
				t.Fatalf("step %d gate %d: maintained %s, reference %s", step, id, s.Format(got), s.Format(want))
			}
		}
		if got := snap.EvalWith([]InputChange[T]{{Key: overKey, Value: overVal}}); !s.Equal(got, pinned) {
			t.Fatalf("step %d: EvalWith at the stale pin = %s, reference %s", step, s.Format(got), s.Format(pinned))
		}
		snap.Release()
	}
}
