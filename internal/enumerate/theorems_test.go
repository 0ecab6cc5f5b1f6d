package enumerate_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/dbio"
	"repro/internal/enumerate"
	"repro/internal/parser"
	"repro/internal/structure"
)

// TestTheorem24CursorSteps holds Theorem 24's constant delay to a count that
// repeats exactly from run to run: the cursor steps per answer (nodes
// positioned or advanced, so every slot, factor or column tried is one), as
// the maximum and the mean over the first 5,000 answers, at n = 1 k, 4 k and
// 16 k on three sparse inputs.  Both must stay flat: at most 1.25 × their
// value at 1 k.
//
// The query is the 2-paths x→y→z with x ≠ z and z ∉ S, for a dynamic S that
// starts empty, so the first enumeration lists exactly the answers of
// E(x,y)&E(y,z)&!(x=z), where no addition has an empty slot.  The second runs
// after a seeded batch toggled S at n/4 vertices: a cursor must then pass
// over the slots those toggles emptied without trying them.  Every answer
// must hold, none may repeat, and the answer count must equal an independent
// count of the 2-paths.
func TestTheorem24CursorSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("counts up to n = 16 k; CI runs them in a step of their own")
	}
	sizes := []int{1000, 4000, 16000}
	phi := parser.MustParseFormula("E(x,y)&E(y,z)&!(x=z)&!S(z)")
	for _, kind := range []string{"bounded-degree", "pref-attach", "grid"} {
		var steps [2][2][]float64 // [before, after the toggles][max, mean] per size
		for _, n := range sizes {
			db, err := dbio.Source{Kind: kind, N: n, Seed: 1}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			b := db.A.Edit()
			for _, s := range db.A.Tuples("S") {
				if err := b.RemoveTuple("S", s...); err != nil {
					t.Fatal(err)
				}
			}
			a := b.Build()
			ans, err := enumerate.EnumerateAnswers(a, phi, []string{"x", "y", "z"}, compile.Options{DynamicRelations: []string{"S"}})
			if err != nil {
				t.Fatal(err)
			}
			inS := make([]bool, a.N)
			for toggled := range 2 {
				if toggled == 1 {
					r := rand.New(rand.NewSource(1))
					batch := make([]enumerate.TupleChange, a.N/4)
					for i := range batch {
						v := r.Intn(a.N)
						inS[v] = !inS[v]
						batch[i] = enumerate.TupleChange{Rel: "S", Tuple: structure.Tuple{v}, Present: inS[v]}
					}
					if err := ans.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				maxSteps, meanSteps := cursorSteps(t, a, ans, inS)
				steps[toggled][0] = append(steps[toggled][0], maxSteps)
				steps[toggled][1] = append(steps[toggled][1], meanSteps)
			}
		}
		for toggled, when := range []string{"S empty", "S toggled"} {
			name := fmt.Sprintf("%s, %s", kind, when)
			maxSteps, meanSteps := steps[toggled][0], steps[toggled][1]
			t.Logf("%s: steps per answer max %v, mean %.2f at n = %v", name, maxSteps, meanSteps, sizes)
			for i, n := range sizes {
				if maxSteps[i] > 1.25*maxSteps[0] || meanSteps[i] > 1.25*meanSteps[0] {
					t.Errorf("%s at n = %d: steps per answer max %v, mean %.2f, over 1.25 × max %v, mean %.2f at n = %d: not flat",
						name, n, maxSteps[i], meanSteps[i], maxSteps[0], meanSteps[0], sizes[0])
				}
			}
		}
	}
}

// cursorSteps enumerates the first 5,000 answers of ans over a, where S holds
// the vertices inS marks, checks them, and returns the maximum and the mean
// steps per answer.
func cursorSteps(t *testing.T, a *structure.Structure, ans *enumerate.Answers, inS []bool) (maxSteps, meanSteps float64) {
	t.Helper()
	out := make([][]int, a.N)
	for _, e := range a.Tuples("E") {
		out[e[0]] = append(out[e[0]], e[1])
	}
	want := int64(0)
	for _, e := range a.Tuples("E") {
		for _, z := range out[e[1]] {
			if z != e[0] && !inS[z] {
				want++
			}
		}
	}
	if got := ans.Count(); got != want {
		t.Fatalf("n=%d: %d answers, want %d", a.N, got, want)
	}

	cur := ans.Cursor()
	seen := map[[3]int]bool{}
	total, count := 0, 0
	for ; count < 5000; count++ {
		before := cur.Steps()
		tup, ok := cur.Next()
		if !ok {
			break
		}
		steps := cur.Steps() - before
		total += steps
		maxSteps = max(maxSteps, float64(steps))
		x, y, z := tup[0], tup[1], tup[2]
		if seen[[3]int{x, y, z}] || !a.HasTuple("E", x, y) || !a.HasTuple("E", y, z) || x == z || inS[z] {
			t.Fatalf("n=%d: answer %v repeats or does not hold", a.N, tup)
		}
		seen[[3]int{x, y, z}] = true
	}
	if count < 5000 && int64(count) != want {
		t.Fatalf("n=%d: the cursor ended after %d answers, want %d", a.N, count, want)
	}
	return maxSteps, float64(total) / float64(count)
}
