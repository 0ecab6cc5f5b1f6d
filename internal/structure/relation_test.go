package structure

import (
	"math/rand"
	"slices"
	"testing"
)

// indexModel is what a structure must hold: the tuples of each relation in
// insertion order, maintained by the test alongside the structure.
type indexModel map[string][]Tuple

func (m indexModel) clone() indexModel {
	c := indexModel{}
	for rel, ts := range m {
		c[rel] = slices.Clone(ts)
	}
	return c
}

// checkIndex compares the structure with the model: Tuples keeps insertion
// order, and HasTuple, Forward and Reverse agree with a brute-force scan of
// Tuples.
func checkIndex(t *testing.T, a *Structure, m indexModel, rng *rand.Rand) {
	t.Helper()
	for _, decl := range a.Sig.Relations {
		want := m[decl.Name]
		got := a.Tuples(decl.Name)
		if !slices.EqualFunc(got, want, Tuple.Equal) {
			t.Fatalf("%s: Tuples = %v, want %v in insertion order", decl.Name, got, want)
		}
		r := a.Relation(decl.Name)
		fwd := make([][]Element, a.N)
		rev := make([][]Element, a.N)
		for _, tu := range want {
			if decl.Arity >= 2 {
				fwd[tu[0]] = append(fwd[tu[0]], tu[1:]...)
			}
			if decl.Arity == 2 {
				rev[tu[1]] = append(rev[tu[1]], tu[0])
			}
			if !a.HasTuple(decl.Name, tu...) {
				t.Fatalf("%s: HasTuple%v = false for a stored tuple", decl.Name, tu)
			}
		}
		for e := 0; e < a.N; e++ {
			sortTails(fwd[e], decl.Arity-1)
			slices.Sort(rev[e])
			if got := r.Forward(e); !slices.Equal(got, fwd[e]) {
				t.Fatalf("%s: Forward(%d) = %v, want %v", decl.Name, e, got, fwd[e])
			}
			if got := r.Reverse(e); !slices.Equal(got, rev[e]) {
				t.Fatalf("%s: Reverse(%d) = %v, want %v", decl.Name, e, got, rev[e])
			}
		}
		// Probes, most of them absent: the unary ones exhaustively.
		probes := 64
		if decl.Arity == 1 {
			probes = a.N
		}
		for i := 0; i < probes; i++ {
			probe := make(Tuple, decl.Arity)
			for j := range probe {
				probe[j] = rng.Intn(a.N)
			}
			if decl.Arity == 1 {
				probe[0] = i
			}
			in := slices.ContainsFunc(want, probe.Equal)
			if a.HasTuple(decl.Name, probe...) != in {
				t.Fatalf("%s: HasTuple%v = %v, brute force says %v", decl.Name, probe, !in, in)
			}
		}
	}
}

// sortTails sorts a run of tails of width w lexicographically.
func sortTails(run []Element, w int) {
	if w <= 1 {
		slices.Sort(run)
		return
	}
	tails := make([][]Element, 0, len(run)/w)
	for i := 0; i < len(run); i += w {
		tails = append(tails, slices.Clone(run[i:i+w]))
	}
	slices.SortFunc(tails, slices.Compare)
	run = run[:0]
	for _, tail := range tails {
		run = append(run, tail...)
	}
}

// TestRelationIndexMatchesTuples runs seeded scripts of AddTuple (with
// duplicates and self-loops), RemoveTuple (of stored and of absent tuples)
// and OnSignature over relations of arities 1–3 at n = 64.  Every step writes
// to one of the structures re-homed so far, and afterwards every one of them
// must still match its own model: a write to a source after re-homing is
// invisible in the copy, and the reverse.
func TestRelationIndexMatchesTuples(t *testing.T) {
	const n = 64
	sig := MustSignature([]RelSymbol{{Name: "U", Arity: 1}, {Name: "E", Arity: 2}, {Name: "T", Arity: 3}}, nil)
	// A relation declared first shifts every other one's position.
	shifted := MustSignature(append([]RelSymbol{{Name: "D", Arity: 2}}, sig.Relations...), []WeightSymbol{{Name: "v0", Arity: 1}})
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		structures := []*Structure{NewStructure(sig, n)}
		models := []indexModel{{}}
		for step := 0; step < 300; step++ {
			k := rng.Intn(len(structures))
			a, m := structures[k], models[k]
			decl := sig.Relations[rng.Intn(len(sig.Relations))]
			tuple := make(Tuple, decl.Arity)
			for j := range tuple {
				if rng.Intn(2) == 0 {
					tuple[j] = rng.Intn(4) // a small corner, for duplicates
				} else {
					tuple[j] = rng.Intn(n)
				}
			}
			if rng.Intn(5) == 0 {
				for j := range tuple {
					tuple[j] = tuple[0] // a self-loop
				}
			}
			switch op := rng.Intn(10); {
			case op < 6:
				a.MustAddTuple(decl.Name, tuple...)
				if !slices.ContainsFunc(m[decl.Name], tuple.Equal) {
					m[decl.Name] = append(m[decl.Name], tuple)
				}
			case op < 9:
				if stored := m[decl.Name]; len(stored) > 0 && rng.Intn(3) > 0 {
					tuple = stored[rng.Intn(len(stored))].Clone()
				}
				if err := a.RemoveTuple(decl.Name, tuple...); err != nil {
					t.Fatal(err)
				}
				m[decl.Name] = slices.DeleteFunc(m[decl.Name], tuple.Equal)
			default:
				target := sig
				if rng.Intn(2) == 0 {
					target = shifted
				}
				if len(structures) < 4 {
					structures, models = append(structures, a.OnSignature(target)), append(models, m.clone())
				} else {
					structures[k] = a.OnSignature(target)
				}
			}
			for i, s := range structures {
				checkIndex(t, s, models[i], rng)
			}
			if t.Failed() {
				t.Fatalf("seed %d, step %d", seed, step)
			}
		}
	}
}

// TestRehomedRunsAreCapped grows, in the copy, the run of every element that
// has one, then shrinks it in the source: the copy's runs share one arena, so
// a run that were not capped at its length would overwrite its neighbour,
// and a copy that shared the source's runs would see the removals.
func TestRehomedRunsAreCapped(t *testing.T) {
	const n = 16
	sig := MustSignature([]RelSymbol{{Name: "E", Arity: 2}, {Name: "T", Arity: 3}}, nil)
	src := NewStructure(sig, n)
	for v := 0; v < n; v++ {
		src.MustAddTuple("E", v, (v+1)%n)
		src.MustAddTuple("T", v, (v+1)%n, (v+2)%n)
	}
	dst := src.Clone()
	for v := 0; v < n; v++ {
		dst.MustAddTuple("E", v, (v+5)%n)
		dst.MustAddTuple("T", v, (v+5)%n, v)
		if err := src.RemoveTuple("E", v, (v+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < n; v++ {
		want := []Element{(v + 1) % n, (v + 5) % n}
		slices.Sort(want)
		if got := dst.Relation("E").Forward(v); !slices.Equal(got, want) {
			t.Errorf("copy: E.Forward(%d) = %v, want %v", v, got, want)
		}
		if got := src.Relation("E").Forward(v); len(got) != 0 {
			t.Errorf("source: E.Forward(%d) = %v after its removal", v, got)
		}
		if !dst.HasTuple("T", v, (v+1)%n, (v+2)%n) || !dst.HasTuple("T", v, (v+5)%n, v) {
			t.Errorf("copy lost a T tuple of %d", v)
		}
		if src.HasTuple("T", v, (v+5)%n, v) {
			t.Errorf("source sees the copy's T tuple of %d", v)
		}
	}
	if got := len(dst.Tuples("E")); got != 2*n {
		t.Errorf("copy holds %d E tuples, want %d", got, 2*n)
	}
}

// TestOnSignatureAllocations: re-homing copies each relation in bulk into one
// arena, so a 20,000-tuple structure with two relations costs a constant
// number of allocations, not a few per tuple.
func TestOnSignatureAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 10000
	sig := MustSignature([]RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}}, nil)
	a := NewStructure(sig, n)
	for v := 0; v < n; v++ {
		a.MustAddTuple("E", v, (v+1)%n)
		if v%2 == 0 {
			a.MustAddTuple("E", v, (v+3)%n)
			a.MustAddTuple("S", v)
		}
	}
	if a.TupleCount() != 20000 {
		t.Fatalf("built %d tuples, want 20000", a.TupleCount())
	}
	extended, err := sig.WithWeights(WeightSymbol{Name: "v0", Arity: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, rehome := range map[string]func(){
		"Clone":       func() { a.Clone() },
		"OnSignature": func() { a.OnSignature(extended) },
	} {
		if allocs := testing.AllocsPerRun(5, rehome); allocs > 16 {
			t.Errorf("%s of 20,000 tuples allocates %.0f objects, want at most 16", name, allocs)
		}
	}
}
