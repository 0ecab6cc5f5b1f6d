package circuit_test

import (
	"context"
	"math/rand"
	. "repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"testing"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// TestValuesEvalWithMatchesReference reads values nobody writes through
// point-query style overrides, in the carriers of
// TestSnapshotEvalWithMatchesReference, and holds every read to the reference
// walk under the overrides: the one point evaluator with nothing pinned.  It
// reads the live values of a Dynamic the same way after each write, as the
// writer's own goroutine does.
func TestValuesEvalWithMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	t.Run("Nat-generic", func(t *testing.T) {
		checkValuesEvalWith[int64](t, r, semiring.Nat, func() int64 { return int64(r.Intn(5)) })
	})
	t.Run("Int-ring", func(t *testing.T) {
		checkValuesEvalWith[int64](t, r, semiring.Int, func() int64 { return int64(r.Intn(9) - 4) })
	})
	t.Run("MinPlus", func(t *testing.T) {
		checkValuesEvalWith[semiring.Ext](t, r, semiring.MinPlus, func() semiring.Ext {
			if r.Intn(4) == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(int64(r.Intn(10)))
		})
	})
}

func checkValuesEvalWith[T any](t *testing.T, r *rand.Rand, s semiring.Semiring[T], draw func() T) {
	n := 4
	c := buildTriangleLike(n)
	p := c.Program()
	randomKey := func() structure.WeightKey { return key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n)) }
	vals := map[structure.WeightKey]T{}
	for a := 0; a < n; a++ {
		for _, w := range []string{"u", "v", "w"} {
			vals[key(w, a)] = draw()
		}
	}
	val := func(in Input) (T, bool) { v, ok := vals[label(in)]; return v, ok }
	static, err := NewValues[T](context.Background(), p, s, val, 2)
	if err != nil {
		t.Fatal(err)
	}
	frozen := circuittest.EvaluateAll[T](c, s, val)[c.Output]
	d := NewDynamicProgram[T](p, s, val)

	// read draws overrides and checks one read of vs against the reference
	// under the current assignment.
	read := func(step int, name string, vs *Values[T], current func(Input) (T, bool)) {
		t.Helper()
		over := map[structure.WeightKey]T{}
		var leaves []Leaf[T]
		for i := 0; i < 1+r.Intn(3); i++ {
			k, v := randomKey(), draw()
			over[k] = v
			leaves = append(leaves, Leaf[T]{Gate: p.InputGate(k), Value: v})
		}
		ref := func(in Input) (T, bool) {
			if v, ok := over[label(in)]; ok {
				return v, true
			}
			return current(in)
		}
		want := circuittest.EvaluateAll[T](c, s, ref)[c.Output]
		if got := vs.EvalWith(leaves); !s.Equal(got, want) {
			t.Fatalf("step %d: %s EvalWith = %s, reference = %s", step, name, s.Format(got), s.Format(want))
		}
	}
	frozenVals := map[structure.WeightKey]T{}
	for k, v := range vals {
		frozenVals[k] = v
	}
	frozenVal := func(in Input) (T, bool) { v, ok := frozenVals[label(in)]; return v, ok }
	for step := 0; step < 40; step++ {
		read(step, "static", static, frozenVal)
		// Repeated reads of one Values must not leak overlay state.
		if got := static.EvalWith(nil); !s.Equal(got, frozen) {
			t.Fatalf("step %d: static Value drifted to %s, want %s", step, s.Format(got), s.Format(frozen))
		}
		k := randomKey()
		vals[k] = draw()
		d.SetInput(k, vals[k])
		read(step, "live", d.Live(), val)
	}
}
