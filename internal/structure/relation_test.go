package structure

import (
	"math/rand"
	"runtime"
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

// TestRelationIndexMatchesTuples runs seeded scripts of builder writes —
// AddTuple (with duplicates and self-loops) and RemoveTuple (of stored and of
// absent tuples) — interleaved with Build, Edit and Extend, over relations of
// arities 1–3 at n = 64.  Every structure built or extended so far must still
// match its own model afterwards: a write to a builder an Edit seeded from it
// is invisible in it, and a view holds its base's tuples and the derived ones.
func TestRelationIndexMatchesTuples(t *testing.T) {
	const n = 64
	sig := MustSignature([]RelSymbol{{Name: "U", Arity: 1}, {Name: "E", Arity: 2}, {Name: "T", Arity: 3}}, nil)
	// A view adds a unary relation, a binary one inside E, and a weight.
	extended := MustSignature(append(slices.Clone(sig.Relations), RelSymbol{Name: "D", Arity: 1}, RelSymbol{Name: "F", Arity: 2}), []WeightSymbol{{Name: "v0", Arity: 1}})
	type built struct {
		a *Structure
		m indexModel
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		builders := []*Builder{NewBuilder(sig, n)}
		models := []indexModel{{}}
		var structures []built
		for step := 0; step < 300; step++ {
			k := rng.Intn(len(builders))
			b, m := builders[k], models[k]
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
				b.MustAddTuple(decl.Name, tuple...)
				if !slices.ContainsFunc(m[decl.Name], tuple.Equal) {
					m[decl.Name] = append(m[decl.Name], tuple)
				}
			case op < 8:
				if stored := m[decl.Name]; len(stored) > 0 && rng.Intn(3) > 0 {
					tuple = stored[rng.Intn(len(stored))].Clone()
				}
				if err := b.RemoveTuple(decl.Name, tuple...); err != nil {
					t.Fatal(err)
				}
				m[decl.Name] = slices.DeleteFunc(m[decl.Name], tuple.Equal)
			default:
				// Build, and go on writing to an edit of what was built.
				a := b.Build()
				structures = append(structures, built{a, m.clone()})
				builders[k] = a.Edit()
				if rng.Intn(2) == 1 || a.Sig != sig {
					break
				}
				var unary, inE []Tuple
				vm := m.clone()
				for range rng.Intn(8) {
					u := Tuple{rng.Intn(n)}
					unary = append(unary, u)
					if !slices.ContainsFunc(vm["D"], u.Equal) {
						vm["D"] = append(vm["D"], u)
					}
				}
				for _, e := range m["E"] {
					if rng.Intn(2) == 0 {
						inE = append(inE, e)
						vm["F"] = append(vm["F"], e)
					}
				}
				view, err := a.Extend(extended, unary, inE)
				if err != nil {
					t.Fatal(err)
				}
				structures = append(structures, built{view, vm})
				if len(builders) < 4 {
					builders, models = append(builders, view.Edit()), append(models, vm.clone())
				}
			}
			for len(structures) > 6 {
				i := rng.Intn(len(structures))
				structures = slices.Delete(structures, i, i+1)
			}
			for _, s := range structures {
				checkIndex(t, s.a, s.m, rng)
			}
			if t.Failed() {
				t.Fatalf("seed %d, step %d", seed, step)
			}
		}
	}
}

// TestRehomedRunsAreCapped grows, in one edit of a structure, the run of every
// element that has one, and shrinks it in another edit: an edit's runs share
// one arena, so a run that were not capped at its length would overwrite its
// neighbour, and edits that shared runs would see each other's writes.
func TestRehomedRunsAreCapped(t *testing.T) {
	const n = 16
	sig := MustSignature([]RelSymbol{{Name: "E", Arity: 2}, {Name: "T", Arity: 3}}, nil)
	b := NewBuilder(sig, n)
	for v := 0; v < n; v++ {
		b.MustAddTuple("E", v, (v+1)%n)
		b.MustAddTuple("T", v, (v+1)%n, (v+2)%n)
	}
	src := b.Build()
	grow, shrink := src.Edit(), src.Edit()
	for v := 0; v < n; v++ {
		grow.MustAddTuple("E", v, (v+5)%n)
		grow.MustAddTuple("T", v, (v+5)%n, v)
		if err := shrink.RemoveTuple("E", v, (v+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	dst, shrunk := grow.Build(), shrink.Build()
	for v := 0; v < n; v++ {
		want := []Element{(v + 1) % n, (v + 5) % n}
		slices.Sort(want)
		if got := dst.Relation("E").Forward(v); !slices.Equal(got, want) {
			t.Errorf("grown: E.Forward(%d) = %v, want %v", v, got, want)
		}
		if got := shrunk.Relation("E").Forward(v); len(got) != 0 {
			t.Errorf("shrunk: E.Forward(%d) = %v after its removal", v, got)
		}
		if got := src.Relation("E").Forward(v); !slices.Equal(got, []Element{(v + 1) % n}) {
			t.Errorf("source: E.Forward(%d) = %v after its edits", v, got)
		}
		if !dst.HasTuple("T", v, (v+1)%n, (v+2)%n) || !dst.HasTuple("T", v, (v+5)%n, v) {
			t.Errorf("grown edit lost a T tuple of %d", v)
		}
		if src.HasTuple("T", v, (v+5)%n, v) || shrunk.HasTuple("T", v, (v+5)%n, v) {
			t.Errorf("another edit sees the grown edit's T tuple of %d", v)
		}
	}
	if got := len(dst.Tuples("E")); got != 2*n {
		t.Errorf("grown edit holds %d E tuples, want %d", got, 2*n)
	}
}

// TestExtendAllocations: an Extend by weight symbols shares every relation
// and the Gaifman graph, so it allocates the same bytes over 2,000 tuples as
// over 20,000; an Edit copies each relation in bulk into one arena, a
// constant number of allocations, not a few per tuple.
func TestExtendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sig := MustSignature([]RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}}, nil)
	build := func(n int) *Structure {
		b := NewBuilder(sig, n)
		for v := 0; v < n; v++ {
			b.MustAddTuple("E", v, (v+1)%n)
			if v%2 == 0 {
				b.MustAddTuple("E", v, (v+3)%n)
				b.MustAddTuple("S", v)
			}
		}
		a := b.Build()
		if a.TupleCount() != 2*n {
			t.Fatalf("built %d tuples, want %d", a.TupleCount(), 2*n)
		}
		a.Gaifman()
		return a
	}
	extended, err := sig.WithWeights(WeightSymbol{Name: "v0", Arity: 1})
	if err != nil {
		t.Fatal(err)
	}
	bytesPerExtend := func(a *Structure) uint64 {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := a.Extend(extended); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := build(1000), build(10000)
	if s, l := bytesPerExtend(small), bytesPerExtend(large); s != l {
		t.Errorf("Extend by a weight symbol allocates %d bytes over 2,000 tuples and %d over 20,000, want equal", s, l)
	}
	if allocs := testing.AllocsPerRun(5, func() { large.Edit() }); allocs > 16 {
		t.Errorf("Edit of 20,000 tuples allocates %.0f objects, want at most 16", allocs)
	}
}
