package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"repro/internal/semiring"
)

// randomEnumCircuit builds a random circuit over nInputs unary weight inputs
// mixing additions, multiplications and small permanent gates — the shapes
// the enumerator maintains emptiness bookkeeping for.
func randomEnumCircuit(r *rand.Rand, nInputs, extraGates int) *circuit.Circuit {
	c := circuit.NewBuilder()
	gates := make([]int, 0, nInputs+extraGates)
	for i := 0; i < nInputs; i++ {
		gates = append(gates, input(c, "w", i))
	}
	pick := func() int { return gates[r.Intn(len(gates))] }
	for i := 0; i < extraGates; i++ {
		switch r.Intn(4) {
		case 0:
			gates = append(gates, c.Add(pick(), pick(), pick()))
		case 1:
			gates = append(gates, c.Mul(pick(), pick()))
		case 2:
			gates = append(gates, c.ConstInt(int64(r.Intn(3))))
		default:
			rows := r.Intn(2) + 1
			cols := r.Intn(3) + rows
			var entries []circuit.PermEntry
			for row := 0; row < rows; row++ {
				for col := 0; col < cols; col++ {
					if r.Intn(3) > 0 {
						entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: pick()})
					}
				}
			}
			gates = append(gates, c.Perm(rows, cols, entries))
		}
	}
	c.SetOutput(gates[len(gates)-1])
	return c
}

// TestEnumeratorEmptinessMatchesLegacyBoolean is the Program-equivalence
// property for the enumeration engine: on random circuits under random
// update sequences, every gate's emptiness flag must equal the reference
// walk's boolean evaluation of "this gate's free-semiring value is non-zero"
// (emptiness is the complement of the boolean semantics, with the boolean
// permanent deciding matchability exactly as Lemma 39 does).
func TestEnumeratorEmptinessMatchesLegacyBoolean(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for round := 0; round < 25; round++ {
		nInputs := r.Intn(6) + 2
		c := randomEnumCircuit(r, nInputs, r.Intn(14)+4)
		present := make([]bool, nInputs)
		for i := range present {
			present[i] = r.Intn(2) == 0
		}
		// Input w(i) is the answer generator e^0_i.
		inputs := func(in circuit.Input) (Generator, bool) {
			return Generator{Var: 0, Elem: in.Tuple[0]}, present[in.Tuple[0]]
		}
		boolVal := func(in circuit.Input) (bool, bool) {
			_, ok := inputs(in)
			return ok, true
		}

		// Sequential and parallel preprocessing agree with each other and
		// with the reference walk, then stay in agreement across updates.
		seq := NewProgram(c.Program(), inputs, nil)
		par := newProgramParallel(t, c.Program(), inputs, 3)
		check := func(step int) {
			t.Helper()
			want := circuittest.EvaluateAll[bool](c, semiring.Bool, boolVal)
			for id := range want {
				if seq.GateEmpty(id) != !want[id] {
					t.Fatalf("round %d step %d: gate %d sequential emptiness %v, legacy boolean %v",
						round, step, id, seq.GateEmpty(id), want[id])
				}
				if par.GateEmpty(id) != !want[id] {
					t.Fatalf("round %d step %d: gate %d parallel emptiness %v, legacy boolean %v",
						round, step, id, par.GateEmpty(id), want[id])
				}
			}
		}
		check(-1)
		for step := 0; step < 10; step++ {
			if r.Intn(2) == 0 {
				i := r.Intn(nInputs)
				present[i] = !present[i]
				setInputs(seq, circuit.InputChange[bool]{Key: key("w", i), Value: present[i]})
				setInputs(par, circuit.InputChange[bool]{Key: key("w", i), Value: present[i]})
			} else {
				size := r.Intn(nInputs) + 1
				assigns := make([]circuit.InputChange[bool], size)
				for j := range assigns {
					i := r.Intn(nInputs)
					present[i] = r.Intn(2) == 0
					assigns[j] = circuit.InputChange[bool]{Key: key("w", i), Value: present[i]}
				}
				setInputs(seq, assigns...)
				setInputs(par, assigns...)
			}
			check(step)
		}
	}
}
