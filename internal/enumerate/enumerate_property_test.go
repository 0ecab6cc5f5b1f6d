package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/structure"
)

// randomQFFormula builds a random quantifier-free formula over E, S, = with
// the given variables, in negation normal form so that the compiled circuit
// stays small.
func randomQFFormula(r *rand.Rand, vars []string, depth int) logic.Formula {
	pick := func() string { return vars[r.Intn(len(vars))] }
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(5) {
		case 0:
			return logic.R("E", pick(), pick())
		case 1:
			return logic.Neg(logic.R("E", pick(), pick()))
		case 2:
			return logic.R("S", pick())
		case 3:
			return logic.Neg(logic.R("S", pick()))
		default:
			return logic.Neg(logic.Equal(pick(), pick()))
		}
	}
	if r.Intn(2) == 0 {
		return logic.Conj(randomQFFormula(r, vars, depth-1), randomQFFormula(r, vars, depth-1))
	}
	return logic.Disj(randomQFFormula(r, vars, depth-1), randomQFFormula(r, vars, depth-1))
}

// TestEnumerateRandomFormulasMatchesNaive is the randomized counterpart of
// TestEnumerateAnswersStatic: for random quantifier-free formulas, the
// enumerated answer set equals the materialised answer set, without
// repetitions, and Count/Empty are consistent.
func TestEnumerateRandomFormulasMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for round := 0; round < 30; round++ {
		a := enumerationStructure(9, 20, int64(round))
		vars := []string{"x", "y"}
		phi := randomQFFormula(r, vars, 2)
		ans, err := EnumerateAnswers(a, phi, vars, compile.Options{})
		if err != nil {
			t.Fatalf("round %d (%s): %v", round, phi, err)
		}
		checkAnswers(t, ans, a, phi, vars)
	}
}

// TestEnumeratorRejectsNonTopologicalCircuits mirrors the circuit.Dynamic
// property: a circuit whose gate ids are not topologically ordered must be
// rejected before preprocessing, not silently enumerated in the wrong order.
// The builder refuses a forward operand and leaves the circuit as it was, so
// the enumerator over what was built still matches explicit evaluation.
func TestEnumeratorRejectsNonTopologicalCircuits(t *testing.T) {
	c := circuit.NewBuilder()
	u, v := c.Input(key("w", 0)), c.Input(key("w", 1))
	before := c.NumGates()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Mul accepted operand %d of a %d-gate circuit", before, before)
			}
		}()
		c.Mul(u, before)
	}()
	if c.NumGates() != before {
		t.Fatalf("a refused gate left %d gates, want %d", c.NumGates(), before)
	}
	c.SetOutput(c.Add(c.Mul(u, v), v))
	inputs := map[structure.WeightKey]Value{key("w", 0): Gen("g"), key("w", 1): Gen("h")}
	checkEnumeratorAgainstExplicit(t, c, func(k structure.WeightKey) Value { return inputs[k] })
}

// TestAnswersApplyBatch drives random batches of Gaifman-preserving updates
// through ApplyBatch and a twin enumerator applying the same changes one at
// a time, comparing both against a structure rebuilt from scratch.
func TestAnswersApplyBatch(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for round := 0; round < 8; round++ {
		a := enumerationStructure(8, 18, int64(300+round))
		vars := []string{"x", "y"}
		phi := logic.Conj(
			logic.R("E", "x", "y"),
			logic.R("S", "x"),
			logic.Neg(logic.R("S", "y")),
		)
		opts := compile.Options{DynamicRelations: []string{"S"}}
		batched, err := EnumerateAnswers(a, phi, vars, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sequential, err := EnumerateAnswers(a, phi, vars, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		mirror := a.Clone()
		for step := 0; step < 8; step++ {
			batch := make([]TupleChange, r.Intn(5)+1)
			for i := range batch {
				// Repeated tuples within a batch are deliberate: the last
				// change must win.
				batch[i] = TupleChange{Rel: "S", Tuple: structure.Tuple{r.Intn(a.N)}, Present: r.Intn(2) == 0}
			}
			if err := batched.ApplyBatch(batch); err != nil {
				t.Fatalf("round %d step %d: ApplyBatch: %v", round, step, err)
			}
			for _, ch := range batch {
				if err := sequential.SetTuple(ch.Rel, ch.Tuple, ch.Present); err != nil {
					t.Fatalf("round %d step %d: SetTuple: %v", round, step, err)
				}
				setMirror(mirror, ch.Rel, ch.Tuple, ch.Present)
			}
			if batched.Count() != sequential.Count() {
				t.Fatalf("round %d step %d: batched count %d, sequential %d",
					round, step, batched.Count(), sequential.Count())
			}
			checkAnswers(t, batched, mirror, phi, vars)
		}
		// All-or-nothing: a batch with any invalid change applies nothing.
		before := batched.Count()
		bad := []TupleChange{
			{Rel: "S", Tuple: structure.Tuple{0}, Present: before == 0},
			{Rel: "E", Tuple: structure.Tuple{0, 1}, Present: true}, // E is not dynamic
		}
		if err := batched.ApplyBatch(bad); err == nil {
			t.Fatalf("round %d: invalid batch accepted", round)
		}
		if got := batched.Count(); got != before {
			t.Fatalf("round %d: invalid batch partially applied: count %d, want %d", round, got, before)
		}
	}
}

// TestEnumerateRandomDynamicUpdates interleaves random Gaifman-preserving
// updates to the unary predicate S with re-enumeration, comparing against a
// structure that is rebuilt from scratch after every update.
func TestEnumerateRandomDynamicUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for round := 0; round < 10; round++ {
		a := enumerationStructure(8, 18, int64(200+round))
		vars := []string{"x", "y"}
		phi := logic.Conj(
			logic.R("E", "x", "y"),
			logic.R("S", "x"),
			logic.Neg(logic.R("S", "y")),
		)
		ans, err := EnumerateAnswers(a, phi, vars, compile.Options{DynamicRelations: []string{"S"}})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// mirror tracks the intended current state of S.
		mirror := a.Clone()
		for step := 0; step < 12; step++ {
			v := r.Intn(a.N)
			present := r.Intn(2) == 0
			if err := ans.SetTuple("S", structure.Tuple{v}, present); err != nil {
				t.Fatalf("round %d step %d: %v", round, step, err)
			}
			setMirror(mirror, "S", structure.Tuple{v}, present)
			checkAnswers(t, ans, mirror, phi, vars)
		}
	}
}
