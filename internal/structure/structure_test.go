package structure

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

func testSignature(t *testing.T) *Signature {
	t.Helper()
	sig, err := NewSignature(
		[]RelSymbol{{Name: "E", Arity: 2}, {Name: "U", Arity: 1}, {Name: "T", Arity: 3}},
		[]WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}, {Name: "c", Arity: 0}},
	)
	if err != nil {
		t.Fatalf("NewSignature: %v", err)
	}
	return sig
}

func TestSignatureValidation(t *testing.T) {
	if _, err := NewSignature([]RelSymbol{{Name: "E", Arity: 2}, {Name: "E", Arity: 1}}, nil); err == nil {
		t.Errorf("duplicate relation symbols should be rejected")
	}
	if _, err := NewSignature([]RelSymbol{{Name: "E", Arity: 0}}, nil); err == nil {
		t.Errorf("zero-arity relations should be rejected")
	}
	if _, err := NewSignature([]RelSymbol{{Name: "E", Arity: 2}}, []WeightSymbol{{Name: "E", Arity: 1}}); err == nil {
		t.Errorf("weight symbol clashing with relation symbol should be rejected")
	}
	sig := testSignature(t)
	if r, ok := sig.Relation("E"); !ok || r.Arity != 2 {
		t.Errorf("Relation lookup failed")
	}
	if _, ok := sig.Relation("missing"); ok {
		t.Errorf("lookup of missing relation should fail")
	}
	if w, ok := sig.Weight("u"); !ok || w.Arity != 1 {
		t.Errorf("Weight lookup failed")
	}
	ext, err := sig.WithWeights(WeightSymbol{Name: "v1", Arity: 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if _, ok := ext.Weight("v1"); !ok {
		t.Errorf("extended signature missing v1")
	}
	if _, ok := sig.Weight("v1"); ok {
		t.Errorf("original signature unexpectedly gained v1")
	}
}

func TestStructureTuples(t *testing.T) {
	sig := testSignature(t)
	b := NewBuilder(sig, 5)
	b.MustAddTuple("E", 0, 1)
	b.MustAddTuple("E", 1, 2)
	b.MustAddTuple("E", 0, 1) // duplicate
	b.MustAddTuple("U", 3)
	b.MustAddTuple("T", 0, 1, 2)

	if err := b.AddTuple("E", 0); err == nil {
		t.Errorf("arity mismatch should be rejected")
	}
	if err := b.AddTuple("E", 0, 9); err == nil {
		t.Errorf("out-of-domain element should be rejected")
	}
	if err := b.AddTuple("missing", 0, 1); err == nil {
		t.Errorf("unknown relation should be rejected")
	}
	if err := b.RemoveTuple("E", 0); err == nil {
		t.Errorf("removal of a tuple of the wrong arity should be rejected")
	}
	if err := b.RemoveTuple("E", 0, 9); err == nil {
		t.Errorf("removal of an out-of-domain tuple should be rejected")
	}
	a := b.Build()

	if !a.HasTuple("E", 0, 1) || a.HasTuple("E", 1, 0) {
		t.Errorf("HasTuple directionality broken")
	}
	if len(a.Tuples("E")) != 2 {
		t.Errorf("E has %d tuples, want 2", len(a.Tuples("E")))
	}
	if a.TupleCount() != 4 {
		t.Errorf("TupleCount = %d, want 4", a.TupleCount())
	}

	e := a.Edit()
	e.MustAddTuple("E", 3, 4)
	if err := e.RemoveTuple("E", 0, 1); err != nil {
		t.Fatal(err)
	}
	if edited := e.Build(); a.HasTuple("E", 3, 4) || !a.HasTuple("E", 0, 1) || !edited.HasTuple("E", 3, 4) || edited.HasTuple("E", 0, 1) {
		t.Errorf("an edit is not independent of the structure it copies")
	}
}

func TestGaifmanGraph(t *testing.T) {
	sig := testSignature(t)
	b := NewBuilder(sig, 6)
	b.MustAddTuple("E", 0, 1)
	b.MustAddTuple("T", 2, 3, 4)
	b.MustAddTuple("U", 5)
	a := b.Build()

	g := a.Gaifman()
	if !g.HasEdge(0, 1) {
		t.Errorf("Gaifman graph missing binary edge")
	}
	// The ternary tuple induces a triangle.
	if !g.HasEdge(2, 3) || !g.HasEdge(3, 4) || !g.HasEdge(2, 4) {
		t.Errorf("Gaifman graph missing ternary clique edges")
	}
	if g.HasEdge(0, 2) {
		t.Errorf("Gaifman graph has spurious edge")
	}
	if g.Degree(5) != 0 {
		t.Errorf("unary tuples should not create edges")
	}
	if a.Gaifman() != g {
		t.Errorf("Gaifman graph rebuilt on a second call")
	}
	// An edit builds a structure of its own, with a graph of its own.
	e := a.Edit()
	e.MustAddTuple("E", 0, 2)
	if !e.Build().Gaifman().HasEdge(0, 2) || a.Gaifman().HasEdge(0, 2) {
		t.Errorf("an edit's Gaifman graph is not its own")
	}
}

// TestGaifmanAllocations builds the Gaifman graph of a cycle stored in both
// orientations, with chords and a unary relation, at n = 2,000 and
// n = 20,000: one presized edge list and FromEdges's fixed arrays, so the
// number of allocations does not grow with the structure.
func TestGaifmanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sig := MustSignature([]RelSymbol{{Name: "E", Arity: 2}, {Name: "S", Arity: 1}}, nil)
	allocs := func(n int) float64 {
		b := NewBuilder(sig, n)
		for v := 0; v < n; v++ {
			b.MustAddTuple("E", v, (v+1)%n)
			b.MustAddTuple("E", (v+1)%n, v)
			if v%2 == 0 {
				b.MustAddTuple("E", v, (v+3)%n)
				b.MustAddTuple("S", v)
			}
		}
		a := b.Build()
		return testing.AllocsPerRun(5, func() { a.Clone().Gaifman() })
	}
	if small, large := allocs(2000), allocs(20000); small != large {
		t.Errorf("Gaifman allocates %.0f objects at n = 2,000 and %.0f at n = 20,000, want equal counts", small, large)
	}
}

func TestTupleKey(t *testing.T) {
	tu := Tuple{3, 1, 4}
	k := MakeWeightKey("w", tu)
	if k != (WeightKey{Weight: "w", Tuple: "3,1,4"}) {
		t.Errorf("MakeWeightKey = %+v", k)
	}
	round := ParseTupleKey(k.Tuple)
	if !round.Equal(tu) {
		t.Errorf("ParseTupleKey round trip failed: %v", round)
	}
	if !ParseTupleKey("").Equal(Tuple{}) {
		t.Errorf("empty key should decode to empty tuple")
	}
	c := tu.Clone()
	c[0] = 9
	if tu[0] == 9 {
		t.Errorf("Clone aliases original")
	}
	if tu.Equal(Tuple{3, 1}) || !tu.Equal(Tuple{3, 1, 4}) {
		t.Errorf("Equal broken")
	}
}

func TestWeights(t *testing.T) {
	sig := testSignature(t)
	b := NewBuilder(sig, 4)
	b.MustAddTuple("E", 0, 1)
	a := b.Build()

	w := NewWeights[int64]()
	w.Set("w", Tuple{0, 1}, 5)
	w.Set("u", Tuple{2}, 7)
	w.Set("c", Tuple{}, 3)

	if v, ok := w.Get("w", Tuple{0, 1}); !ok || v != 5 {
		t.Errorf("Get(w,(0,1)) = %d,%v", v, ok)
	}
	if _, ok := w.Get("w", Tuple{1, 0}); ok {
		t.Errorf("unset weight should not be found")
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d, want 3", w.Len())
	}
	count := 0
	w.ForEach(func(k WeightKey, v int64) { count++ })
	if count != 3 {
		t.Errorf("ForEach visited %d entries, want 3", count)
	}

	isZero := func(v int64) bool { return v == 0 }
	if err := w.Validate(a, isZero); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Non-zero binary weight outside every relation is invalid.
	w.Set("w", Tuple{2, 3}, 1)
	if err := w.Validate(a, isZero); err == nil {
		t.Errorf("weight on non-tuple should be rejected")
	}
	// But a zero weight there is fine.
	w.Set("w", Tuple{2, 3}, 0)
	if err := w.Validate(a, isZero); err != nil {
		t.Errorf("zero weight outside relations should be allowed: %v", err)
	}
	// Arity mismatch.
	w2 := NewWeights[int64]()
	w2.Set("u", Tuple{1, 2}, 1)
	if err := w2.Validate(a, isZero); err == nil {
		t.Errorf("arity mismatch in weights should be rejected")
	}
	// Undeclared weight symbol.
	w3 := NewWeights[int64]()
	w3.Set("nope", Tuple{0}, 1)
	if err := w3.Validate(a, isZero); err == nil {
		t.Errorf("undeclared weight symbol should be rejected")
	}
}

// TestExtend checks the one way the pipeline derives a structure — the
// Theorem 8 closure's weights, quantifier elimination's predicates, a nested
// connective's relation: the view declares the extended signature, answers
// every query on a's relations as a does, holds the derived tuples, and reads
// a's Gaifman graph itself.  An extension that would add a Gaifman edge, or
// that does not list a's relations first, is refused.
func TestExtend(t *testing.T) {
	sig := testSignature(t)
	b := NewBuilder(sig, 5)
	b.MustAddTuple("E", 0, 1)
	b.MustAddTuple("E", 1, 2)
	b.MustAddTuple("U", 3)
	b.MustAddTuple("T", 0, 1, 2)
	src := b.Build()

	withWeight, err := sig.WithWeights(WeightSymbol{Name: "v0", Arity: 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	withRelations := MustSignature(append(append([]RelSymbol(nil), sig.Relations...), RelSymbol{Name: "D", Arity: 1}, RelSymbol{Name: "F", Arity: 2}), sig.Weights)
	noWeights := MustSignature(sig.Relations, nil)

	for _, tc := range []struct {
		name    string
		sig     *Signature
		derived [][]Tuple
		weights []string // weight symbols the view must declare
	}{
		{name: "same signature", sig: sig, weights: []string{"w", "u", "c"}},
		{name: "extra weight", sig: withWeight, weights: []string{"w", "v0"}},
		{name: "extra relation", sig: withRelations, derived: [][]Tuple{{{4}, {0}, {4}}, {{1, 2}, {0, 1}, {1, 2}}}, weights: []string{"w"}},
		{name: "weights dropped", sig: noWeights},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := src.Extend(tc.sig, tc.derived...)
			if err != nil {
				t.Fatalf("Extend: %v", err)
			}
			if got.Sig != tc.sig || got.N != src.N {
				t.Fatalf("view has signature %p and domain %d, want %p and %d", got.Sig, got.N, tc.sig, src.N)
			}
			if got.Gaifman() != src.Gaifman() {
				t.Errorf("the view built a Gaifman graph of its own")
			}
			for _, r := range sig.Relations {
				want, have := src.Tuples(r.Name), got.Tuples(r.Name)
				if !slices.EqualFunc(have, want, Tuple.Equal) {
					t.Errorf("relation %s holds %v on the view, %v on the base", r.Name, have, want)
				}
				for e := range src.N {
					if !slices.Equal(got.Relation(r.Name).Forward(e), src.Relation(r.Name).Forward(e)) ||
						!slices.Equal(got.Relation(r.Name).Reverse(e), src.Relation(r.Name).Reverse(e)) ||
						got.HasTuple(r.Name, e) != src.HasTuple(r.Name, e) {
						t.Errorf("relation %s answers differently at %d on the view", r.Name, e)
					}
				}
			}
			for _, w := range tc.weights {
				if _, ok := got.Sig.Weight(w); !ok {
					t.Errorf("weight symbol %s is not visible on the view", w)
				}
			}
			for i, ts := range tc.derived {
				name := tc.sig.Relations[len(sig.Relations)+i].Name
				var want []Tuple
				for _, tu := range ts {
					if !slices.ContainsFunc(want, tu.Equal) {
						want = append(want, tu)
					}
				}
				if !slices.EqualFunc(got.Tuples(name), want, Tuple.Equal) || !got.HasTuple(name, want[0]...) {
					t.Errorf("derived relation %s holds %v, want %v", name, got.Tuples(name), want)
				}
			}
			if src.Sig != sig || src.TupleCount() != 4 {
				t.Errorf("extending modified the base structure")
			}
		})
	}

	binary := MustSignature(append(append([]RelSymbol(nil), sig.Relations...), RelSymbol{Name: "F", Arity: 2}), nil)
	if _, err := src.Extend(binary, []Tuple{{0, 1}, {3, 4}}); err == nil {
		t.Errorf("a derived binary tuple outside every relation of the base was accepted")
	}
	if _, err := src.Extend(binary, []Tuple{{0, 9}}); err == nil {
		t.Errorf("a derived tuple outside the domain was accepted")
	}
	reordered := MustSignature([]RelSymbol{sig.Relations[1], sig.Relations[0], sig.Relations[2]}, nil)
	missing := MustSignature(sig.Relations[:2], nil)
	shifted := MustSignature(append([]RelSymbol{{Name: "D", Arity: 1}}, sig.Relations...), nil)
	for _, bad := range []*Signature{reordered, missing, shifted} {
		if _, err := src.Extend(bad); err == nil {
			t.Errorf("an extension over %v, which does not list %v first, was accepted", bad.Relations, sig.Relations)
		}
	}
	if _, err := src.Extend(sig, []Tuple{{0}}); err == nil {
		t.Errorf("derived tuples for a relation the extension does not add were accepted")
	}
}

// TestGaifmanIsSharedAcrossGoroutines asks a structure and views of it for
// their Gaifman graph from several goroutines at once: they build it once
// between them, and all get the same graph.
func TestGaifmanIsSharedAcrossGoroutines(t *testing.T) {
	sig := MustSignature([]RelSymbol{{Name: "E", Arity: 2}}, nil)
	b := NewBuilder(sig, 200)
	for v := range 200 {
		b.MustAddTuple("E", v, (v+1)%200)
	}
	base := b.Build()
	withWeight := MustSignature(sig.Relations, []WeightSymbol{{Name: "v0", Arity: 1}})
	withRelation := MustSignature(append(slices.Clone(sig.Relations), RelSymbol{Name: "D", Arity: 1}), nil)
	structures := []*Structure{base}
	for _, ext := range []*Signature{withWeight, withRelation} {
		view, err := base.Extend(ext)
		if err != nil {
			t.Fatal(err)
		}
		structures = append(structures, view)
	}
	graphs := make([]*graph.Graph, 8)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i] = structures[i%len(structures)].Gaifman()
		}()
	}
	wg.Wait()
	for i, g := range graphs {
		if g != graphs[0] {
			t.Errorf("goroutine %d got Gaifman graph %p, goroutine 0 got %p", i, g, graphs[0])
		}
	}
}

// TestTupleKeyRoundTrip pins the key text — decimal elements, comma
// separated, the empty string for the empty tuple — through ParseTupleKey,
// for arities 0–4, multi-digit elements and a tuple longer than the stack
// buffer Key builds small keys in.  HasTuple formats no key, and Holds
// decodes its key on the stack: neither allocates.
func TestTupleKeyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		tuple Tuple
		key   string
	}{
		{Tuple{}, ""},
		{Tuple{0}, "0"},
		{Tuple{7, 0}, "7,0"},
		{Tuple{12, 345, 6}, "12,345,6"},
		{Tuple{1000000, 2, 30, 400}, "1000000,2,30,400"},
		{Tuple{123456789, 123456789, 123456789, 123456789, 123456789, 123456789}, "123456789,123456789,123456789,123456789,123456789,123456789"},
	} {
		if got := MakeWeightKey("w", tc.tuple).Tuple; got != tc.key {
			t.Errorf("MakeWeightKey(w, %v).Tuple = %q, want %q", []int(tc.tuple), got, tc.key)
		}
		if back := ParseTupleKey(tc.key); !back.Equal(tc.tuple) {
			t.Errorf("ParseTupleKey(%q) = %v, want %v", tc.key, back, tc.tuple)
		}
		for _, role := range []Role{Ordinary, Member, NonMember} {
			k := InputLabel("R", role, tc.tuple)
			if back, err := k.AppendTuple(nil); err != nil || !back.Equal(tc.tuple) || k.Role != role || k.Weight != "R" {
				t.Errorf("InputLabel(R, %d, %v) = %+v decodes to %v, %v", role, tc.tuple, k, back, err)
			}
		}
	}
	b := NewBuilder(testSignature(t), 2000)
	b.MustAddTuple("T", 12, 345, 1999)
	a := b.Build()
	if !a.HasTuple("T", 12, 345, 1999) || a.HasTuple("T", 12, 34, 51999) || a.HasTuple("T", 1, 2345, 1999) {
		t.Errorf("HasTuple does not tell (12,345,1999) from tuples with the same digits")
	}
	if allocs := testing.AllocsPerRun(100, func() { a.HasTuple("T", 12, 345, 1999) }); allocs != 0 {
		t.Errorf("HasTuple allocates %.0f objects per call, want 0", allocs)
	}
	member, absent := Tuple{12, 345, 1999}, Tuple{12, 34, 51999}
	if !a.Holds("T", Member, member) || !a.Holds("T", NonMember, absent) || a.Holds("T", NonMember, member) {
		t.Errorf("Holds does not tell the membership inputs of (12,345,1999) from (12,34,51999)")
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Holds("T", Member, member) }); allocs != 0 {
		t.Errorf("Holds allocates %.0f objects per call, want 0", allocs)
	}
	label := InputLabel("T", Member, member)
	buf := make(Tuple, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = label.AppendTuple(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendTuple into a buffer with room allocates %.0f objects per call, want 0", allocs)
	}
}

// TestMalformedTupleKey decides what a label InputLabel cannot have minted
// does: the boundary decoder reports it, ParseTupleKey panics, and neither
// decodes it to zeros.
func TestMalformedTupleKey(t *testing.T) {
	if got := ParseTupleKey("-3,+4,007"); !got.Equal(Tuple{-3, 4, 7}) {
		t.Errorf(`ParseTupleKey("-3,+4,007") = %v, want [-3 4 7]`, got)
	}
	for _, key := range []string{",", "1,", ",1", "1,,2", "x", "1,2x", "1 ,2", "99999999999999999999"} {
		if got, err := (WeightKey{Weight: "u", Tuple: key}).AppendTuple(nil); err == nil || !strings.Contains(err.Error(), "malformed tuple key") {
			t.Errorf("AppendTuple of %q = %v, %v, want a malformed-key error", key, got, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ParseTupleKey(%q) did not panic", key)
				}
			}()
			ParseTupleKey(key)
		}()
	}
}

// TestWeightsAllocations holds reading a weight, and overwriting one that is
// set, to no allocation: an entry is its symbol's number and its elements in
// a TupleIndex, and nothing formats a key.
// TestMapWeights: a mapped assignment holds every entry of its source under
// the mapped value, and writing it leaves the source as it was.
func TestMapWeights(t *testing.T) {
	w := NewWeights[int64]()
	w.Set("w", Tuple{0, 1}, 5)
	w.Set("u", Tuple{2}, 7)
	m := MapWeights(w, func(weight string, tu Tuple, v int64) string { return fmt.Sprintf("%s%v=%d", weight, tu, v) })
	for _, c := range []struct {
		weight string
		tuple  Tuple
		want   string
	}{{"w", Tuple{0, 1}, "w[0 1]=5"}, {"u", Tuple{2}, "u[2]=7"}} {
		if got, ok := m.Get(c.weight, c.tuple); !ok || got != c.want {
			t.Errorf("mapped %s%v = %q, %v; want %q", c.weight, c.tuple, got, ok, c.want)
		}
	}
	m.Set("u", Tuple{3}, "new")
	if _, ok := w.Get("u", Tuple{3}); ok || w.Len() != 2 || m.Len() != 3 {
		t.Errorf("a write to the mapped assignment reached its source")
	}
}

// TestWeightsAssign: Assign returns the entry's row, which never changes,
// and the value it replaced; a new entry takes the next row and reports none.
// A symbol's head is the same on every call, and the assignment reads back
// through Get.
func TestWeightsAssign(t *testing.T) {
	w := NewWeights[int64]()
	w.Set("w", Tuple{0, 1}, 5)
	u := w.Head("u")
	if w.Head("u") != u || w.Head("w") == u {
		t.Fatalf("heads: u %d then %d, w %d", u, w.Head("u"), w.Head("w"))
	}
	for _, c := range []struct {
		head  int32
		tuple Tuple
		value int64
		row   int
		old   int64
		had   bool
	}{
		{u, Tuple{3}, 7, 1, 0, false},
		{w.Head("w"), Tuple{0, 1}, 6, 0, 5, true},
		{u, Tuple{3}, 8, 1, 7, true},
		{u, Tuple{4}, 9, 2, 0, false},
	} {
		row, old, had := w.Assign(c.head, c.tuple, c.value)
		if row != c.row || old != c.old || had != c.had {
			t.Errorf("Assign(%d, %v, %d) = %d, %d, %v; want %d, %d, %v", c.head, c.tuple, c.value, row, old, had, c.row, c.old, c.had)
		}
	}
	if v, ok := w.Get("u", Tuple{3}); !ok || v != 8 || w.Len() != 3 {
		t.Errorf("Get(u, [3]) = %d, %v with %d entries; want 8, true with 3", v, ok, w.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Assign(u, Tuple{3}, 1) }); allocs != 0 && !raceEnabled {
		t.Errorf("Assign of an existing entry allocates %.0f objects per call, want 0", allocs)
	}
}

func TestWeightsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w := NewWeights[int64]()
	for i := 0; i < 1000; i++ {
		w.Set("w", Tuple{i, i + 1}, int64(i))
		w.Set("u", Tuple{i}, 1)
	}
	probe := Tuple{500, 501}
	if allocs := testing.AllocsPerRun(100, func() {
		w.Get("w", probe)
		w.Get("u", Tuple{5000})
		w.Get("nope", probe)
	}); allocs != 0 {
		t.Errorf("Get allocates %.0f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Set("w", probe, 7) }); allocs != 0 {
		t.Errorf("Set of an existing entry allocates %.0f objects per call, want 0", allocs)
	}
	if v, ok := w.Get("w", probe); !ok || v != 7 || w.Len() != 2000 {
		t.Errorf("after the overwrites Get(w, %v) = %d, %v and Len = %d; want 7, true and 2000", probe, v, ok, w.Len())
	}
}

// TestTupleIndex checks the index against a map of formatted keys: every pair
// added is found under its first number, heads keep equal tuples apart, an
// absent pair is not found, and a clone is independent of its original.
func TestTupleIndex(t *testing.T) {
	var x TupleIndex
	if x.Find(0, Tuple{1}) != -1 {
		t.Fatal("the empty index finds an entry")
	}
	want := map[WeightKey]int{}
	for i := 0; i < 3000; i++ {
		head, tu := int32(i%3), Tuple{i % 97, i % 89}[:1+i%2]
		k := InputLabel("", Role(head), tu)
		n, added := x.Add(head, tu)
		if first, seen := want[k]; seen != !added || (seen && n != first) {
			t.Fatalf("Add(%d, %v) = %d, %v; first added as %d (seen %v)", head, tu, n, added, first, seen)
		}
		if added {
			want[k] = n
		}
	}
	if x.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(want))
	}
	for k, n := range want {
		tu := ParseTupleKey(k.Tuple)
		if got := x.Find(int32(k.Role), tu); got != n || x.Head(n) != int32(k.Role) || !x.Tuple(n).Equal(tu) {
			t.Fatalf("Find(%d, %v) = %d, want %d", k.Role, tu, got, n)
		}
	}
	if x.Find(3, Tuple{0}) != -1 || x.Find(0, Tuple{0, 1, 2}) != -1 {
		t.Error("Find reports a pair never added")
	}
	y := x.Clone()
	y.Add(0, Tuple{1000})
	if x.Find(0, Tuple{1000}) != -1 || y.Find(0, Tuple{1000}) != x.Len() {
		t.Error("a clone shares its additions with the original")
	}
}

// TestRemoveTupleScansWithoutAllocating: removal, from a builder an Edit
// seeded, deletes the tuple from its run in place and compares stored tuples
// element-wise in its one scan of the insertion list, so it allocates
// nothing.
func TestRemoveTupleScansWithoutAllocating(t *testing.T) {
	const n = 512
	b := NewBuilder(testSignature(t), n)
	for v := 0; v < n; v++ {
		b.MustAddTuple("E", v, (v+1)%n)
	}
	b = b.Build().Edit()
	v := 0
	allocs := testing.AllocsPerRun(n/2, func() {
		if err := b.RemoveTuple("E", v, (v+1)%n); err != nil {
			t.Fatal(err)
		}
		v++
	})
	a := b.Build()
	if allocs > 0 {
		t.Errorf("RemoveTuple allocates %.1f objects per call over %d stored tuples, want 0", allocs, n)
	}
	if got := len(a.Tuples("E")); got != n-v || a.HasTuple("E", 0, 1) || !a.HasTuple("E", n-1, 0) {
		t.Errorf("after %d removals %d tuples are left, (0,1) present: %v", v, got, a.HasTuple("E", 0, 1))
	}
}
