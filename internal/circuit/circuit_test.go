package circuit_test

import (
	"math/big"
	"math/rand"
	. "repro/internal/circuit"
	"slices"
	"testing"

	"repro/internal/semiring"
	"repro/internal/structure"
)

func key(w string, elems ...int) structure.WeightKey {
	return structure.MakeWeightKey(w, structure.Tuple(elems))
}

// buildTriangleLike builds, by hand, the circuit of Example 5 of the paper:
//
//	f = Σ_{x,y,z} [x≠y ∧ x≠z] · u(x) · v(y) · w(z)
//
// over a domain of size n, decomposed as a 3×n permanent (all three
// distinct) plus a 2×n permanent with the y,z-merged column entries.
func buildTriangleLike(n int) *Circuit {
	c := NewBuilder()
	var entries3 []PermEntry
	var entries2 []PermEntry
	for a := 0; a < n; a++ {
		u := c.Input(key("u", a))
		v := c.Input(key("v", a))
		w := c.Input(key("w", a))
		entries3 = append(entries3,
			PermEntry{Row: 0, Col: a, Gate: u},
			PermEntry{Row: 1, Col: a, Gate: v},
			PermEntry{Row: 2, Col: a, Gate: w},
		)
		vw := c.Mul(v, w)
		entries2 = append(entries2,
			PermEntry{Row: 0, Col: a, Gate: u},
			PermEntry{Row: 1, Col: a, Gate: vw},
		)
	}
	p3 := c.Perm(3, n, entries3)
	p2 := c.Perm(2, n, entries2)
	c.SetOutput(c.Add(p3, p2))
	return c
}

// referenceTriangleLike computes the same quantity by brute force.
func referenceTriangleLike(u, v, w []int64) int64 {
	n := len(u)
	var total int64
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				if x != y && x != z {
					total += u[x] * v[y] * w[z]
				}
			}
		}
	}
	return total
}

func valuationFromSlices(u, v, w []int64) Valuation[int64] {
	return func(k structure.WeightKey) (int64, bool) {
		t := structure.ParseTupleKey(k.Tuple)
		switch k.Weight {
		case "u":
			return u[t[0]], true
		case "v":
			return v[t[0]], true
		case "w":
			return w[t[0]], true
		}
		return 0, false
	}
}

func TestBuilderSimplifications(t *testing.T) {
	c := NewBuilder()
	if c.Add() != c.Zero() {
		t.Errorf("empty Add should be the zero gate")
	}
	if c.Mul() != c.One() {
		t.Errorf("empty Mul should be the one gate")
	}
	in := c.Input(key("u", 0))
	if c.Add(in, c.Zero()) != in {
		t.Errorf("Add with zero should collapse")
	}
	if c.Add(c.Zero(), c.Zero(), c.Zero()) != c.Zero() {
		t.Errorf("Add of zero children only should be the zero gate")
	}
	before := c.NumGates()
	if c.Add(c.Zero(), in, c.Zero()) != in || c.NumGates() != before {
		t.Errorf("Add with a single survivor should return it and append no gate")
	}
	in2 := c.Input(key("u", 1))
	sum := c.Add(c.Zero(), in, c.Zero(), in2, c.Zero())
	if p := c.Program(); p.GateKind(sum) != KindAdd || !slices.Equal(p.ChildIDs(sum), []int32{int32(in), int32(in2)}) {
		t.Errorf("Add of zeros and two survivors = %v %v, want add [%d %d]", p.GateKind(sum), p.ChildIDs(sum), in, in2)
	}
	if prod := c.Mul(in2, c.One(), in); !slices.Equal(c.Program().ChildIDs(prod), []int32{int32(in2), int32(in)}) {
		t.Errorf("Mul of a unit and two factors has operands %v, want [%d %d]", c.Program().ChildIDs(prod), in2, in)
	}
	if c.Mul(in, c.One()) != in {
		t.Errorf("Mul with one should collapse")
	}
	if c.Mul(in, c.Zero()) != c.Zero() {
		t.Errorf("Mul with zero should be zero")
	}
	if c.Input(key("u", 0)) != in {
		t.Errorf("Input should be deduplicated")
	}
	if c.Const(big.NewInt(0)) != c.Zero() || c.Const(big.NewInt(1)) != c.One() {
		t.Errorf("small constants should be canonical")
	}
	if c.Perm(0, 5, nil) != c.One() {
		t.Errorf("0-row permanent should be the one gate")
	}
	if c.Perm(2, 1, nil) != c.Zero() {
		t.Errorf("permanent with fewer columns than rows should be zero")
	}
	if c.Program().InputGate(key("zzz", 9)) != -1 {
		t.Errorf("InputGate of unknown key should be -1")
	}
	// A gate is appended after its children, so an operand must exist already.
	for name, build := range map[string]func(ch int){
		"Add":  func(ch int) { c.Add(in, ch) },
		"Mul":  func(ch int) { c.Mul(in, ch) },
		"Perm": func(ch int) { c.Perm(1, 2, []PermEntry{{Row: 0, Col: 0, Gate: in}, {Row: 0, Col: 1, Gate: ch}}) },
	} {
		for _, ch := range []int{c.NumGates(), c.NumGates() + 5, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted child %d of a %d-gate circuit", name, ch, c.NumGates())
					}
				}()
				build(ch)
			}()
		}
	}
}

func TestEvaluateExample5(t *testing.T) {
	n := 6
	c := buildTriangleLike(n)
	r := rand.New(rand.NewSource(3))
	u := make([]int64, n)
	v := make([]int64, n)
	w := make([]int64, n)
	for i := 0; i < n; i++ {
		u[i], v[i], w[i] = int64(r.Intn(5)), int64(r.Intn(5)), int64(r.Intn(5))
	}
	got := EvaluateProgram[int64](c.Program(), semiring.Nat, valuationFromSlices(u, v, w))
	want := referenceTriangleLike(u, v, w)
	if got != want {
		t.Fatalf("EvaluateProgram = %d, want %d", got, want)
	}
	// The same circuit evaluated in the min-plus semiring computes the
	// minimum of u(x)+v(y)+w(z) over x≠y, x≠z.
	mpVal := func(k structure.WeightKey) (semiring.Ext, bool) {
		iv, ok := valuationFromSlices(u, v, w)(k)
		if !ok {
			return semiring.Infinite, false
		}
		return semiring.Fin(iv), true
	}
	gotMP := EvaluateProgram[semiring.Ext](c.Program(), semiring.MinPlus, mpVal)
	wantMP := semiring.Infinite
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				if x != y && x != z {
					wantMP = semiring.MinPlus.Add(wantMP, semiring.Fin(u[x]+v[y]+w[z]))
				}
			}
		}
	}
	if !semiring.MinPlus.Equal(gotMP, wantMP) {
		t.Fatalf("min-plus EvaluateProgram = %v, want %v", gotMP, wantMP)
	}
}

func TestStatistics(t *testing.T) {
	c := buildTriangleLike(5)
	st := c.Program().Stats()
	if st.MaxPermRows != 3 {
		t.Errorf("MaxPermRows = %d, want 3", st.MaxPermRows)
	}
	if st.PermGates != 2 {
		t.Errorf("PermGates = %d, want 2", st.PermGates)
	}
	if st.InputGates != 15 {
		t.Errorf("InputGates = %d, want 15", st.InputGates)
	}
	// add(perm(3×5), perm(2×5 over mul gates)): depth 3.
	if st.Depth != 3 {
		t.Errorf("Depth = %d, want 3", st.Depth)
	}
	// 15 inputs, 0 and 1, five products, two permanents and their sum; each
	// product has 2 wires, the permanents 15 and 10, the sum 2.
	if st.Gates != c.NumGates() || st.Gates != 25 || st.Edges != 37 {
		t.Errorf("Gates, Edges = %d, %d, want 25, 37", st.Gates, st.Edges)
	}
}

// TestBuilderAllocations holds the builder to allocating per arena, not per
// gate: 10,000 additions, products and permanents (which copy their entries,
// so the caller reuses one slice) grow a dozen arrays geometrically.
func TestBuilderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	keys := make([]structure.WeightKey, 8)
	for i := range keys {
		keys[i] = key("w", i)
	}
	entries := make([]PermEntry, 0, 6)
	allocs := testing.AllocsPerRun(3, func() {
		c := NewBuilder()
		gates := make([]int, 0, 10_008)
		for _, k := range keys {
			gates = append(gates, c.Input(k))
		}
		for i := 0; len(gates) < cap(gates); i++ {
			a, b, d := gates[i%len(gates)], gates[(7*i+1)%len(gates)], gates[(13*i+5)%len(gates)]
			switch i % 3 {
			case 0:
				gates = append(gates, c.Add(a, b, d))
			case 1:
				gates = append(gates, c.Mul(a, b))
			default:
				entries = append(entries[:0],
					PermEntry{Row: 0, Col: 0, Gate: a}, PermEntry{Row: 0, Col: 1, Gate: b}, PermEntry{Row: 0, Col: 2, Gate: d},
					PermEntry{Row: 1, Col: 0, Gate: d}, PermEntry{Row: 1, Col: 2, Gate: a})
				gates = append(gates, c.Perm(2, 3, entries))
			}
		}
		if c.NumGates() < 10_000 {
			t.Fatalf("built %d gates, want ≥ 10,000", c.NumGates())
		}
	})
	t.Logf("%.0f allocations to build 10,000 gates", allocs)
	if allocs > 200 {
		t.Errorf("building 10,000 gates allocates %.0f objects, want ≤ 200", allocs)
	}
}

func TestConstGateEvaluation(t *testing.T) {
	c := NewBuilder()
	// 5 + 3·x where x is an input.
	x := c.Input(key("x", 0))
	five := c.ConstInt(5)
	three := c.ConstInt(3)
	c.SetOutput(c.Add(five, c.Mul(three, x)))
	val := func(k structure.WeightKey) (int64, bool) { return 7, true }
	if got := EvaluateProgram[int64](c.Program(), semiring.Nat, val); got != 26 {
		t.Errorf("5 + 3·7 = %d, want 26", got)
	}
	// In the boolean semiring constants ≥ 1 collapse to true.
	bval := func(k structure.WeightKey) (bool, bool) { return false, true }
	if got := EvaluateProgram[bool](c.Program(), semiring.Bool, bval); got != true {
		t.Errorf("constant 5 should be true in the boolean semiring")
	}
	// Missing inputs default to zero.
	missing := func(k structure.WeightKey) (int64, bool) { return 0, false }
	if got := EvaluateProgram[int64](c.Program(), semiring.Nat, missing); got != 5 {
		t.Errorf("with missing input: %d, want 5", got)
	}
}

// TestDynamicMatchesRecomputation drives random updates through the dynamic
// evaluator for semirings exercising all three maintenance strategies
// (generic, ring, finite) and cross-checks against full re-evaluation.
func TestDynamicMatchesRecomputation(t *testing.T) {
	n := 5
	c := buildTriangleLike(n)
	r := rand.New(rand.NewSource(17))

	runFor := func(name string, check func(step int, vals map[structure.WeightKey]int64)) {
		t.Run(name, func(t *testing.T) {
			vals := map[structure.WeightKey]int64{}
			for a := 0; a < n; a++ {
				for _, w := range []string{"u", "v", "w"} {
					vals[key(w, a)] = int64(r.Intn(4))
				}
			}
			check(0, vals)
		})
	}

	runFor("Nat-generic", func(_ int, vals map[structure.WeightKey]int64) {
		val := func(k structure.WeightKey) (int64, bool) { v, ok := vals[k]; return v, ok }
		d := NewDynamicProgram[int64](c.Program(), semiring.Nat, val)
		for step := 0; step < 40; step++ {
			k := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n))
			vals[k] = int64(r.Intn(4))
			d.SetInput(k, vals[k])
			want := EvaluateProgram[int64](c.Program(), semiring.Nat, val)
			if got := d.Value(); got != want {
				t.Fatalf("step %d: dynamic %d, recomputed %d", step, got, want)
			}
		}
	})

	runFor("Int-ring", func(_ int, vals map[structure.WeightKey]int64) {
		val := func(k structure.WeightKey) (int64, bool) { v, ok := vals[k]; return v, ok }
		d := NewDynamicProgram[int64](c.Program(), semiring.Int, val)
		for step := 0; step < 40; step++ {
			k := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n))
			vals[k] = int64(r.Intn(7) - 3)
			d.SetInput(k, vals[k])
			want := EvaluateProgram[int64](c.Program(), semiring.Int, val)
			if got := d.Value(); got != want {
				t.Fatalf("step %d: dynamic %d, recomputed %d", step, got, want)
			}
		}
	})

	runFor("Mod7-finite", func(_ int, vals map[structure.WeightKey]int64) {
		mod := semiring.NewModular(7)
		val := func(k structure.WeightKey) (int64, bool) { v, ok := vals[k]; return v, ok }
		d := NewDynamicProgram[int64](c.Program(), mod, val)
		for step := 0; step < 40; step++ {
			k := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n))
			vals[k] = int64(r.Intn(7))
			d.SetInput(k, vals[k])
			want := EvaluateProgram[int64](c.Program(), mod, val)
			if got := d.Value(); !mod.Equal(got, want) {
				t.Fatalf("step %d: dynamic %d, recomputed %d", step, got, want)
			}
		}
	})
}

func TestDynamicMinPlus(t *testing.T) {
	n := 4
	c := buildTriangleLike(n)
	r := rand.New(rand.NewSource(23))
	vals := map[structure.WeightKey]semiring.Ext{}
	for a := 0; a < n; a++ {
		for _, w := range []string{"u", "v", "w"} {
			vals[key(w, a)] = semiring.Fin(int64(r.Intn(10)))
		}
	}
	val := func(k structure.WeightKey) (semiring.Ext, bool) { v, ok := vals[k]; return v, ok }
	d := NewDynamicProgram[semiring.Ext](c.Program(), semiring.MinPlus, val)
	for step := 0; step < 30; step++ {
		k := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n))
		if r.Intn(5) == 0 {
			vals[k] = semiring.Infinite
		} else {
			vals[k] = semiring.Fin(int64(r.Intn(10)))
		}
		d.SetInput(k, vals[k])
		want := EvaluateProgram[semiring.Ext](c.Program(), semiring.MinPlus, val)
		if got := d.Value(); !semiring.MinPlus.Equal(got, want) {
			t.Fatalf("step %d: dynamic %v, recomputed %v", step, got, want)
		}
	}
}

func TestDynamicIgnoresUnknownInputs(t *testing.T) {
	c := buildTriangleLike(3)
	vals := map[structure.WeightKey]int64{}
	val := func(k structure.WeightKey) (int64, bool) { v, ok := vals[k]; return v, ok }
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, val)
	before := d.Value()
	d.SetInput(key("unrelated", 0), 99)
	if d.Value() != before {
		t.Errorf("unknown input changed the circuit value")
	}
	// Setting a known input to its current value is a no-op.
	d.SetInput(key("u", 0), 0)
	if d.Value() != before {
		t.Errorf("no-op update changed the circuit value")
	}
}

func TestGateValueAndSharedSubcircuits(t *testing.T) {
	// A gate feeding two parents (fan-out 2) must propagate to both.
	c := NewBuilder()
	x := c.Input(key("x", 0))
	y := c.Input(key("y", 0))
	shared := c.Mul(x, y)
	left := c.Add(shared, x)
	right := c.Mul(shared, y)
	c.SetOutput(c.Add(left, right))
	vals := map[structure.WeightKey]int64{key("x", 0): 2, key("y", 0): 3}
	val := func(k structure.WeightKey) (int64, bool) { v, ok := vals[k]; return v, ok }
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, val)
	// (2·3 + 2) + (2·3·3) = 8 + 18 = 26
	if d.Value() != 26 {
		t.Fatalf("initial value %d, want 26", d.Value())
	}
	if d.GateValue(shared) != 6 {
		t.Errorf("GateValue(shared) = %d, want 6", d.GateValue(shared))
	}
	vals[key("x", 0)] = 5
	d.SetInput(key("x", 0), 5)
	// (15+5) + (15·3) = 20 + 45 = 65
	if d.Value() != 65 {
		t.Fatalf("after update %d, want 65", d.Value())
	}
	if got := EvaluateProgram[int64](c.Program(), semiring.Nat, val); got != d.Value() {
		t.Fatalf("dynamic and static evaluation disagree: %d vs %d", d.Value(), got)
	}
}
