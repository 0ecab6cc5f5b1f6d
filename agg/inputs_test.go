package agg

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
	"testing"
)

// answerSet drains an answer stream into a sorted list of rendered tuples.
func answerSet(t *testing.T, stream func(context.Context) iter.Seq2[Answer, error]) []string {
	t.Helper()
	var out []string
	for a, err := range stream(context.Background()) {
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
		out = append(out, fmt.Sprint(a))
	}
	slices.Sort(out)
	return out
}

// TestInternalInputsAreNotWritable writes, through sessions, to the names the
// closure's internal inputs — Lemma 40's membership weights and Theorem 8's
// parameter weights — are rendered with.  A database weight that happens to
// be called "rel+:S" is an ordinary weight, so writing it leaves the value and
// the answers what a fresh Prepare reads; ".fv:0" is no weight of the
// database at all, so writing it fails and commits nothing.
func TestInternalInputsAreNotWritable(t *testing.T) {
	ctx := context.Background()
	eng, err := OpenReader(strings.NewReader(strings.Replace(testDB, "wsym u 1\n", "wsym u 1\nwsym rel+:S 1\n", 1)))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	for _, query := range []string{"sum x . [S(x)]", "S(x)"} {
		p, err := eng.Prepare(ctx, query, WithDynamic("S"))
		if err != nil {
			t.Fatalf("Prepare(%q): %v", query, err)
		}
		s, err := p.Session()
		if err != nil {
			t.Fatalf("Session: %v", err)
		}
		defer s.Close()
		if err := s.Set(SetWeight("rel+:S", []int{0}, 0)); err != nil {
			t.Fatalf("%q: writing the database weight rel+:S: %v", query, err)
		}
		if s.Epoch() != 0 {
			t.Errorf("%q: writing a weight the query does not mention committed epoch %d", query, s.Epoch())
		}
		args := [][]int{{}}
		if p.Enumerable() {
			args = [][]int{{0}, {1}, {2}, {3}}
		}
		for _, a := range args {
			got, err := s.Eval(ctx, a...)
			want, werr := p.Eval(ctx, a...)
			if err != nil || werr != nil || got != want {
				t.Errorf("%q at %v after writing rel+:S(0): session reads %q (%v), a fresh Prepare %q (%v)", query, a, got, err, want, werr)
			}
		}
		if !p.Enumerable() {
			continue
		}
		r, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		got, want := answerSet(t, r.Enumerate), answerSet(t, p.Enumerate)
		r.Close()
		if !slices.Equal(got, want) {
			t.Errorf("%q after writing rel+:S(0): session answers %v, a fresh Prepare %v", query, got, want)
		}
	}

	p, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	if err := s.Set(SetWeight(".fv:0", []int{1}, 1)); !errors.Is(err, ErrUpdate) {
		t.Errorf("writing the parameter weight .fv:0: %v, want ErrUpdate", err)
	}
	if s.Epoch() != 0 {
		t.Errorf("a rejected write committed epoch %d", s.Epoch())
	}
	for x := 0; x < 4; x++ {
		got, err := s.Eval(ctx, x)
		want, werr := p.Eval(ctx, x)
		if err != nil || werr != nil || got != want {
			t.Errorf("Eval(%d) after the rejected write: session %q (%v), a fresh Prepare %q (%v)", x, got, err, want, werr)
		}
	}
}

// TestSessionWritesStayInDomain sends every session write path elements
// outside the domain {0..3}.  Each write addresses no input, so accepting it
// would commit an epoch that changes nothing observable and keep its key in
// the session for good; each must fail with ErrUpdate and commit nothing.
// A point read at such an element still answers, as before.
func TestSessionWritesStayInDomain(t *testing.T) {
	ctx := context.Background()
	eng := testEngine(t)
	outside := []Change{
		SetWeight("u", []int{99999}, 5),
		SetTuple("S", []int{-7}, true),
		SetWeight("u", []int{1<<32 + 1}, 5),
		SetTuple("S", []int{4}, false),
	}
	for _, query := range []string{"sum x . [S(x)] * u(x)", "S(x)"} {
		p, err := eng.Prepare(ctx, query, WithDynamic("S"))
		if err != nil {
			t.Fatalf("Prepare(%q): %v", query, err)
		}
		s, err := p.Session()
		if err != nil {
			t.Fatalf("Session: %v", err)
		}
		defer s.Close()
		for _, ch := range outside {
			if p.Enumerable() && ch.Weight != "" {
				continue // the formula mentions no weight
			}
			if err := s.Set(ch); !errors.Is(err, ErrUpdate) {
				t.Errorf("%q: Set(%+v) = %v, want ErrUpdate", query, ch, err)
			}
			if err := s.ApplyBatch([]Change{SetTuple("S", []int{1}, true), ch}); !errors.Is(err, ErrUpdate) {
				t.Errorf("%q: ApplyBatch with %+v = %v, want ErrUpdate", query, ch, err)
			}
		}
		if s.Epoch() != 0 {
			t.Errorf("%q: rejected writes committed %d epochs", query, s.Epoch())
		}
	}

	p, err := eng.Prepare(ctx, "S(x)", WithDynamic("S"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	search, err := p.Search()
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if err := search.Apply(SetTuple("S", []int{-7}, true)); !errors.Is(err, ErrUpdate) {
		t.Errorf("Searcher.Apply(S(-7)) = %v, want ErrUpdate", err)
	}

	nestedQ := NSum([]string{"x"}, NTimes(NBracket(NAtom("S", "x")), NWeight("u", "x")))
	np, err := eng.Prepare(ctx, "nested marked weight", WithNested(nestedQ))
	if err != nil {
		t.Fatalf("Prepare nested: %v", err)
	}
	ns, err := np.Session()
	if err != nil {
		t.Fatalf("nested Session: %v", err)
	}
	defer ns.Close()
	if err := ns.Set(SetWeight("u", []int{99999}, 5)); !errors.Is(err, ErrUpdate) {
		t.Errorf("nested Set(u(99999)) = %v, want ErrUpdate", err)
	}

	point, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	ps, err := point.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer ps.Close()
	got, err := ps.Eval(ctx, 99999)
	want, werr := point.Eval(ctx, 99999)
	if err != nil || werr != nil || got != want {
		t.Errorf("point read at 99999: session %q (%v), Prepared %q (%v)", got, err, want, werr)
	}
}

// TestDatabaseHasTupleOutOfRange asks Database.HasTuple about tuples no
// relation can hold: elements outside the domain {0..3}, the wrong arity and
// an unknown relation.  Each is answered false, and none may panic by
// indexing the relation store out of range.
func TestDatabaseHasTupleOutOfRange(t *testing.T) {
	db, err := ReadDatabase(strings.NewReader(testDB))
	if err != nil {
		t.Fatalf("ReadDatabase: %v", err)
	}
	if !db.HasTuple("E", 2, 3) || !db.HasTuple("S", 2) {
		t.Fatalf("HasTuple misses stored tuples E(2,3), S(2)")
	}
	for _, tc := range []struct {
		rel   string
		tuple []int
	}{
		{"E", []int{-1, 0}},
		{"E", []int{0, -1}},
		{"E", []int{4, 0}},
		{"E", []int{2, 4}},
		{"E", []int{1 << 40, 0}},
		{"S", []int{-1}},
		{"S", []int{4}},
		{"S", []int{64}},
		{"E", []int{0}},
		{"E", []int{0, 1, 2}},
		{"E", nil},
		{"S", []int{0, 0}},
		{"missing", []int{0}},
		{"", nil},
	} {
		if db.HasTuple(tc.rel, tc.tuple...) {
			t.Errorf("HasTuple(%q, %v) = true, want false", tc.rel, tc.tuple)
		}
	}
}
