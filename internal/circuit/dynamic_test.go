package circuit_test

import (
	"fmt"
	"math/rand"
	. "repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"runtime"
	"strconv"
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
		fin := NewDynamicProgram[int64](c.Program(), trunc, func(in Input) (int64, bool) {
			v, ok := valuationFor(vals)(in)
			return trunc.Add(v, 0), ok
		})
		finMod := NewDynamicProgram[int64](c.Program(), mod, func(in Input) (int64, bool) {
			v, ok := valuationFor(vals)(in)
			return mod.Add(v, 0), ok
		})
		toExt := func(v int64) semiring.Ext {
			if v == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(v)
		}
		mp := NewDynamicProgram[semiring.Ext](c.Program(), semiring.MinPlus, func(in Input) (semiring.Ext, bool) {
			v, ok := valuationFor(vals)(in)
			return toExt(v), ok
		})
		toPoly := func(i int, v int64) *provenance.Poly {
			if v == 0 {
				return provenance.NewPoly()
			}
			p := provenance.NewPoly()
			m := provenance.NewMonomial(provenance.Generator(strconv.Itoa(i)))
			p.AddMonomial(m, v)
			return p
		}
		provVal := func(in Input) (*provenance.Poly, bool) {
			tp := in.Tuple
			if in.Symbol != "w" || len(tp) != 1 || tp[0] < 0 || tp[0] >= len(vals) {
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
			wantFin := EvaluateProgram[int64](c.Program(), trunc, func(in Input) (int64, bool) {
				v, ok := valuationFor(vals)(in)
				return trunc.Add(v, 0), ok
			})
			if got := fin.Value(); !trunc.Equal(got, wantFin) {
				t.Fatalf("round %d step %d: truncated dynamic %d, oracle %d", round, step, got, wantFin)
			}
			wantMod := EvaluateProgram[int64](c.Program(), mod, func(in Input) (int64, bool) {
				v, ok := valuationFor(vals)(in)
				return mod.Add(v, 0), ok
			})
			if got := finMod.Value(); !mod.Equal(got, wantMod) {
				t.Fatalf("round %d step %d: mod-7 dynamic %d, oracle %d", round, step, got, wantMod)
			}
			wantMP := EvaluateProgram[semiring.Ext](c.Program(), semiring.MinPlus, func(in Input) (semiring.Ext, bool) {
				v, ok := valuationFor(vals)(in)
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
	val := func(in Input) (int64, bool) { v, ok := vals[label(in)]; return v, ok }
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
// injective; elemIndex compares with Equal and must stay correct.
type collidingFormat struct{ semiring.Truncated }

func (collidingFormat) Format(int64) string { return "∗" }

// TestFiniteCarrierIndexPaths drives the finite adder path, whose elemIndex
// is an Equal scan, over a large carrier: a 41-element one with an injective
// Format and the same carrier with a colliding Format, which the scan must not
// confuse.
func TestFiniteCarrierIndexPaths(t *testing.T) {
	big := semiring.NewTruncated(40) // 41 elements
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
		inputs[i] = input(c, "w", i)
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

	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, func(in Input) (int64, bool) {
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

// TestConstantTimeUpdateZeroAllocs extends the allocation guard to the ring
// and finite strategies, on TestGenericUpdateZeroAllocs' circuit shape: shared
// mul gates, a wide adder kept by difference updates or value counts, and a
// permanent gate backed by perm.RingDynamic or perm.FiniteDynamic.
func TestConstantTimeUpdateZeroAllocs(t *testing.T) {
	guardStrategyAllocs(t, "Int", semiring.Int, func(step int) int64 { return int64(step%7 - 3) })
	guardStrategyAllocs(t, "Bool", semiring.Bool, func(step int) bool { return step%3 != 0 })
	tr := semiring.NewTruncated(3)
	guardStrategyAllocs[int64](t, "Truncated(3)", tr, func(step int) int64 { return int64(step % 4) })
}

func guardStrategyAllocs[T any](t *testing.T, name string, s semiring.Semiring[T], val func(step int) T) {
	t.Helper()
	c := NewBuilder()
	const nInputs = 32
	inputs := make([]int, nInputs)
	for i := range inputs {
		inputs[i] = input(c, "w", i)
	}
	var muls []int
	for i := 0; i+1 < nInputs; i += 2 {
		muls = append(muls, c.Mul(inputs[i], inputs[i+1]))
	}
	var entries []PermEntry
	for col := 0; col < 8; col++ {
		entries = append(entries, PermEntry{Row: 0, Col: col, Gate: inputs[col]})
		entries = append(entries, PermEntry{Row: 1, Col: col, Gate: inputs[col+8]})
	}
	c.SetOutput(c.Add(c.Add(muls...), c.Perm(2, 8, entries)))

	d := NewDynamicProgram[T](c.Program(), s, func(in Input) (T, bool) { return s.One(), true })
	keys := make([]structure.WeightKey, nInputs)
	for i := range keys {
		keys[i] = key("w", i)
	}
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			d.SetInput(k, val(round+i))
		}
	}
	step := 0
	if allocs := testing.AllocsPerRun(200, func() {
		step++
		d.SetInput(keys[step%nInputs], val(step))
	}); allocs != 0 {
		t.Errorf("%s: SetInput allocates %.2f objects per steady-state update, want 0", name, allocs)
	}
	batch := make([]InputChange[T], 8)
	if allocs := testing.AllocsPerRun(200, func() {
		step++
		for i := range batch {
			batch[i] = InputChange[T]{Key: keys[(step+i)%nInputs], Value: val(step + i)}
		}
		d.ApplyBatch(batch)
	}); allocs != 0 {
		t.Errorf("%s: ApplyBatch allocates %.2f objects per steady-state batch, want 0", name, allocs)
	}
}

// TestFirstVisitWritesZeroAllocs checks that a write allocates nothing even
// where it reaches gates no earlier wave visited: the wave's memory is sized
// by the gates a wave reaches, not owned gate by gate.  The circuit is many
// disjoint cones of one shape — a product, a sum and a 2×2 permanent over
// four inputs each — under one wide sum; after one cone's input has been
// written, writing every other cone's input once allocates nothing, on each
// update strategy.
func TestFirstVisitWritesZeroAllocs(t *testing.T) {
	guardFirstVisits(t, "Nat", semiring.Nat, []int64{2, 3, 1})
	guardFirstVisits(t, "Int", semiring.Int, []int64{-2, 3, 1})
	guardFirstVisits(t, "Bool", semiring.Bool, []bool{false, true, false})
}

func guardFirstVisits[T any](t *testing.T, name string, s semiring.Semiring[T], warm []T) {
	t.Helper()
	// MemStats counts the whole process, so a window can catch an allocation
	// of the runtime's own goroutines: the writes pass if one of three
	// windows of fresh cones allocates nothing.  A write that allocates on
	// its first visit does so in every window.
	const windows, width = 3, 64
	cones := 1 + windows*width
	c := NewBuilder()
	var tops []int
	for i := 0; i < cones; i++ {
		w, x, y, z := input(c, "w", i), input(c, "x", i), input(c, "y", i), input(c, "z", i)
		perm := c.Perm(2, 2, []PermEntry{{Row: 0, Col: 0, Gate: w}, {Row: 0, Col: 1, Gate: x}, {Row: 1, Col: 0, Gate: y}, {Row: 1, Col: 1, Gate: z}})
		tops = append(tops, c.Add(c.Mul(w, x), y, perm))
	}
	c.SetOutput(c.Add(tops...))
	// y is 0, so a changed w reaches the wide sum in every carrier.
	val := func(in Input) (T, bool) {
		switch {
		case in.Symbol == "y":
			return s.Zero(), true
		case in.Symbol == "w" && in.Tuple[0] == 0:
			return warm[len(warm)-1], true
		case in.Symbol == "w":
			return warm[0], true
		}
		return s.One(), true
	}
	d := NewDynamicProgram[T](c.Program(), s, func(in Input) (T, bool) {
		if in.Symbol == "w" {
			return s.One(), true
		}
		return val(in)
	})
	keys := make([]structure.WeightKey, cones)
	for i := range keys {
		keys[i] = key("w", i)
	}
	for _, v := range warm {
		d.SetInput(keys[0], v)
	}
	least := uint64(1 << 63)
	for win := 0; win < windows; win++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys[1+win*width : 1+(win+1)*width] {
			d.SetInput(k, warm[0])
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("%s: %d first writes to unvisited cones allocate %d objects at least, want 0", name, width, least)
	}
	if got, want := d.Value(), circuittest.EvaluateAll[T](c, s, val)[c.Output]; !s.Equal(got, want) {
		t.Errorf("%s: Value = %s, reference %s", name, s.Format(got), s.Format(want))
	}
}

// TestPrunedOpenBytes guards what a point session costs to open: a Dynamic
// over a Program whose gates its fixed inputs nearly all zero holds, per
// gate, the gate's value and an arena offset, and nothing sized for a wave —
// at most 16 bytes a gate over an int64 carrier, generic or ring.
func TestPrunedOpenBytes(t *testing.T) {
	const cones = 4096
	c := NewBuilder()
	u := input(c, "u", 0)
	var tops []int
	for i := 0; i < cones; i++ {
		v, next := input(c, "v", i), input(c, "v", i+1)
		tops = append(tops, c.Add(c.Mul(v, u), c.Mul(v, next)))
	}
	c.SetOutput(c.Add(u, c.Add(tops...)))
	p := c.Program()
	zero := p.ZeroedBy(fixedSymbol)
	kept := 0
	for _, z := range zero {
		if !z {
			kept++
		}
	}
	if kept > 8 {
		t.Fatalf("%d of %d gates kept, want nearly all left out", kept, p.NumGates())
	}
	val := func(in Input) (int64, bool) {
		if fixedSymbol(in) {
			return 0, true
		}
		return 1, true
	}
	for _, tc := range []struct {
		name string
		s    semiring.Semiring[int64]
	}{{"Nat", semiring.Nat}, {"Int", semiring.Int}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDynamicPruned[int64](p, tc.s, val, zero)
		runtime.ReadMemStats(&after)
		perGate := float64(after.TotalAlloc-before.TotalAlloc) / float64(p.NumGates())
		t.Logf("%s: %.1f B a gate over %d gates", tc.name, perGate, p.NumGates())
		if perGate > 16 {
			t.Errorf("%s: NewDynamicPruned allocates %.1f B a gate, want ≤ 16", tc.name, perGate)
		}
		d.SetInput(key("u", 0), 3)
		if got := d.Value(); got != 3 {
			t.Errorf("%s: Value after a write = %d, want 3", tc.name, got)
		}
	}
}

// fanOutDynamic is a pruned Dynamic whose input u feeds fan products v_i·u,
// every one zeroed by its fixed v_i, beside a kept input w summed into the
// output: a write to u changes u alone, whatever its fan-out.
func fanOutDynamic(fan int) (*Dynamic[int64], *Program) {
	c := NewBuilder()
	u := input(c, "u", 0)
	kids := []int{input(c, "w", 0)}
	for i := 0; i < fan; i++ {
		kids = append(kids, c.Mul(input(c, "v", i), u))
	}
	c.SetOutput(c.Add(kids...))
	p := c.Program()
	val := func(in Input) (int64, bool) {
		if fixedSymbol(in) {
			return 0, true
		}
		return 1, true
	}
	return NewDynamicPruned[int64](p, semiring.Nat, val, p.ZeroedBy(fixedSymbol)), p
}

// TestPrunedFanOutWrites writes an input whose parents are all left out —
// the write enlists nothing and must still store the input — beside a kept
// input whose write reaches the output, at fan-out 2 and 4,096.
// BenchmarkPrunedFanOut times the first kind of write at both fan-outs.
func TestPrunedFanOutWrites(t *testing.T) {
	for _, fan := range []int{2, 4096} {
		d, p := fanOutDynamic(fan)
		for v := int64(2); v < 6; v++ {
			d.SetInput(key("u", 0), v)
			d.SetInput(key("w", 0), v)
			if got := d.Value(); got != v {
				t.Errorf("fan-out %d: Value after writes of %d = %d, want %d", fan, v, got, v)
			}
		}
		if got := d.GateValue(p.InputGate(key("u", 0))); got != 5 {
			t.Errorf("fan-out %d: u holds %d, want 5", fan, got)
		}
	}
}

// BenchmarkPrunedFanOut writes an input whose parents are all left out, at
// fan-out 2 and 4,096: with the quiet bits both cost the same.
func BenchmarkPrunedFanOut(b *testing.B) {
	for _, fan := range []int{2, 4096} {
		d, _ := fanOutDynamic(fan)
		k := key("u", 0)
		b.Run(fmt.Sprintf("fanout=%d", fan), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.SetInput(k, int64(i%7+1))
			}
		})
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
	x, y, z := input(c, "w", 0), input(c, "w", 1), input(c, "w", 2)
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
	val := func(in Input) (T, bool) { v, ok := vals[label(in)]; return v, ok }
	d := NewDynamicProgram[T](c.Program(), s, val)
	for step := 0; step < 60; step++ {
		snap := d.Snapshot()
		overKey, overVal := key("w", r.Intn(3)), draw()
		pinned := circuittest.EvaluateAll[T](c, s, func(in Input) (T, bool) {
			k := label(in)
			if k == overKey {
				return overVal, true
			}
			return val(in)
		})[c.Output]

		k := key("w", r.Intn(3))
		vals[k] = draw()
		d.ApplyBatch([]InputChange[T]{{Key: k, Value: draw()}, {Key: k, Value: vals[k]}})
		for id, want := range circuittest.EvaluateAll[T](c, s, val) {
			if got := d.GateValue(id); !s.Equal(got, want) {
				t.Fatalf("step %d gate %d: maintained %s, reference %s", step, id, s.Format(got), s.Format(want))
			}
		}
		if got := snap.EvalWith([]Leaf[T]{{Gate: c.Program().InputGate(overKey), Value: overVal}}); !s.Equal(got, pinned) {
			t.Fatalf("step %d: EvalWith at the stale pin = %s, reference %s", step, s.Format(got), s.Format(pinned))
		}
		snap.Release()
	}
}
