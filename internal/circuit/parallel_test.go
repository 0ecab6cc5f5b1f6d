package circuit_test

import (
	"fmt"
	"math/rand"
	. "repro/internal/circuit"
	"testing"

	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// hasPermGate reports whether the circuit contains a permanent gate.
func hasPermGate(c *Circuit) bool {
	return c.Program().Stats().PermGates > 0
}

// checkEquivalence asserts ParallelEvaluateAllProgram matches
// EvaluateAllProgram gate-for-gate in the given semiring, across several
// worker counts.
func checkEquivalence[T any](t *testing.T, name string, c *Circuit, s semiring.Semiring[T], v Valuation[T]) {
	t.Helper()
	p := c.Program()
	want := EvaluateAllProgram(p, s, v)
	for _, workers := range []int{0, 1, 2, 4, 7} {
		got := ParallelEvaluateAllProgram(p, s, v, workers)
		if len(got) != len(want) {
			t.Fatalf("%s workers=%d: got %d values, want %d", name, workers, len(got), len(want))
		}
		for id := range want {
			if !s.Equal(got[id], want[id]) {
				t.Fatalf("%s workers=%d: gate %d = %s, want %s",
					name, workers, id, s.Format(got[id]), s.Format(want[id]))
			}
		}
	}
}

// TestParallelEvaluateAllEquivalence checks the parallel evaluator against
// the sequential one on random circuits with permanent gates, in the
// natural-number, tropical (min-plus) and provenance semirings.  Run under
// -race this also exercises the claim that gates within a level race on
// nothing.
func TestParallelEvaluateAllEquivalence(t *testing.T) {
	sawPerm := false
	for round := 0; round < 6; round++ {
		rng := rand.New(rand.NewSource(int64(round) + 1))
		nInputs := rng.Intn(6) + 4
		c := randomCircuit(rng, nInputs, rng.Intn(300)+100)
		sawPerm = sawPerm || hasPermGate(c)

		vals := randomValues(rng, nInputs)
		natVal := valuationFor(vals)
		checkEquivalence[int64](t, fmt.Sprintf("nat/round%d", round), c, semiring.Nat, natVal)

		tropVal := func(key structure.WeightKey) (semiring.Ext, bool) {
			v, ok := natVal(key)
			return semiring.Fin(v), ok
		}
		checkEquivalence[semiring.Ext](t, fmt.Sprintf("minplus/round%d", round), c, semiring.MinPlus, tropVal)

		provVal := func(key structure.WeightKey) (*provenance.Poly, bool) {
			if _, ok := natVal(key); !ok {
				return nil, false
			}
			return provenance.FromMonomials(provenance.NewMonomial(provenance.Generator("g" + key.Tuple))), true
		}
		checkEquivalence[*provenance.Poly](t, fmt.Sprintf("provenance/round%d", round), c, provenance.Free, provVal)
	}
	if !sawPerm {
		t.Fatal("no random circuit contained a permanent gate; generator is miscalibrated")
	}
}

// TestParallelEvaluateOutputEquivalence checks the output gate of a parallel
// evaluation against the sequential output-gate shortcut.
func TestParallelEvaluateOutputEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const nInputs = 6
	p := randomCircuit(rng, nInputs, 200).Program()
	val := valuationFor(randomValues(rng, nInputs))
	want := EvaluateProgram[int64](p, semiring.Nat, val)
	got := ParallelEvaluateAllProgram[int64](p, semiring.Nat, val, 3)[p.OutputGate()]
	if got != want {
		t.Fatalf("parallel output = %d, want %d", got, want)
	}
}

// TestProgramLevelSchedule checks the structural invariants of the level
// schedule baked into the Program: every gate appears exactly once on the
// level of its rank, no level is empty, children sit on strictly lower
// levels, and the depth is the longest path from a leaf.
func TestProgramLevelSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng, 8, 400)
	p := c.Program()
	if p.NumGates() != c.NumGates() {
		t.Fatalf("program covers %d gates, circuit has %d", p.NumGates(), c.NumGates())
	}
	seen := make([]bool, c.NumGates())
	for d := 0; d <= p.Depth(); d++ {
		lvl := p.LevelGates(d)
		if len(lvl) == 0 {
			t.Errorf("level %d is empty", d)
		}
		for _, id := range lvl {
			if seen[id] {
				t.Fatalf("gate %d scheduled twice", id)
			}
			seen[id] = true
			if p.Rank(int(id)) != d {
				t.Fatalf("gate %d on level %d has rank %d", id, d, p.Rank(int(id)))
			}
		}
	}
	for id := range seen {
		if !seen[id] {
			t.Fatalf("gate %d not scheduled", id)
		}
	}
	longest := make([]int, p.NumGates())
	want := 0
	for id := range longest {
		for _, ch := range p.ChildIDs(id) {
			if p.Rank(int(ch)) >= p.Rank(id) {
				t.Fatalf("child %d (level %d) not below gate %d (level %d)", ch, p.Rank(int(ch)), id, p.Rank(id))
			}
			longest[id] = max(longest[id], longest[ch]+1)
		}
		want = max(want, longest[id])
	}
	if p.Depth() != want || p.Stats().Depth != want {
		t.Fatalf("program depth %d, Stats depth %d, longest path %d", p.Depth(), p.Stats().Depth, want)
	}
}

// TestProgramRefreezesExtendedCircuit checks the staleness guard of the
// build → freeze seam: gates added after a freeze are covered by the next
// Program() and evaluated, never silently dropped.
func TestProgramRefreezesExtendedCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 5, 60)
	stale := c.Program()
	c.SetOutput(c.Add(c.Output, c.ConstInt(41))) // extend the circuit behind the program's back
	p := c.Program()
	if p == stale || p.NumGates() != c.NumGates() || p.OutputGate() != c.Output {
		t.Fatalf("Program() after extension covers %d gates output %d, circuit has %d/%d",
			p.NumGates(), p.OutputGate(), c.NumGates(), c.Output)
	}
	one := func(structure.WeightKey) (int64, bool) { return 1, true }
	if got, want := EvaluateProgram[int64](p, semiring.Nat, one), EvaluateProgram[int64](stale, semiring.Nat, one)+41; got != want {
		t.Fatalf("extended program evaluates to %d, want %d", got, want)
	}
}

// benchmarkCircuit builds a wide, shallow circuit with ≥ 10k gates dominated
// by permanent gates, the shape produced by the compiler on large databases.
func benchmarkCircuit(b *testing.B) (*Circuit, Valuation[int64]) {
	b.Helper()
	c := NewBuilder()
	rng := rand.New(rand.NewSource(42))
	var inputs []int
	for i := 0; i < 3000; i++ {
		inputs = append(inputs, c.Input(structure.MakeWeightKey("w", structure.Tuple{i})))
	}
	var permGates []int
	for i := 0; i < 7000; i++ {
		const rows, cols = 3, 6
		var entries []PermEntry
		for r := 0; r < rows; r++ {
			for col := 0; col < cols; col++ {
				entries = append(entries, PermEntry{Row: r, Col: col, Gate: inputs[rng.Intn(len(inputs))]})
			}
		}
		permGates = append(permGates, c.Perm(rows, cols, entries))
	}
	var sums []int
	for i := 0; i+10 <= len(permGates); i += 10 {
		prod := c.Mul(permGates[i], permGates[i+1])
		sums = append(sums, c.Add(append([]int{prod}, permGates[i+2:i+10]...)...))
	}
	c.SetOutput(c.Add(sums...))
	if c.NumGates() < 10000 {
		b.Fatalf("benchmark circuit has only %d gates, want ≥ 10000", c.NumGates())
	}
	return c, func(key structure.WeightKey) (int64, bool) { return int64(len(key.Tuple)%5) + 1, true }
}

// BenchmarkEvaluateAllParallel measures the level-parallel evaluator at
// GOMAXPROCS workers; on a multi-core machine it should beat
// BenchmarkProgramEvaluateAll.
func BenchmarkEvaluateAllParallel(b *testing.B) {
	c, val := benchmarkCircuit(b)
	p := c.Program()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelEvaluateAllProgram[int64](p, semiring.Nat, val, 0)
	}
}
