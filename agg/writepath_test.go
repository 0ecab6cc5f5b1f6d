package agg

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/structure"
)

// TestSessionWritesMatchFreshPrepare replays a seeded write script on ℕ and
// boolean sessions of the point query and, after every step, reads the
// session at every element against a fresh Prepare, in the same carrier, of
// the database with the script's weights applied.  The database sets u at the
// even elements only, so the script's first writes at odd ones append new
// weight entries.  Besides single Sets, the script writes w, which the query
// does not mention and so must not commit; batches that set one key twice,
// where the last value wins; and batches whose last change is invalid, which
// must apply nothing and leave the epoch where it was.
func TestSessionWritesMatchFreshPrepare(t *testing.T) {
	const query = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
	ctx := context.Background()
	full, err := Generate("pref-attach", 40, 3)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n := full.Elements()
	start := structure.NewWeights[int64]()
	full.w.Each(func(weight string, tup structure.Tuple, v int64) {
		if weight != "u" || tup[0]%2 == 0 {
			start.Set(weight, tup, v)
		}
	})
	db := FromStructure(full.a, start)
	edges := db.Tuples("E")

	r := rand.New(rand.NewSource(29))
	u := func() Change { return SetWeight("u", []int{r.Intn(n)}, int64(r.Intn(4))) }
	invalid := []Change{
		SetWeight("u", []int{n}, 1),
		SetWeight("u", []int{-1}, 1),
		SetWeight("v", []int{0}, 1),
		SetWeight("u", []int{0, 1}, 1),
		SetWeight("w", []int{0}, 1),
	}
	type step struct {
		batch []Change
		fails bool
	}
	var script []step
	for len(script) < 60 {
		switch r.Intn(4) {
		case 0:
			script = append(script, step{batch: []Change{u()}})
		case 1: // w is not mentioned by the query
			e := edges[r.Intn(len(edges))]
			script = append(script, step{batch: []Change{SetWeight("w", e, int64(r.Intn(9)+1))}})
		case 2: // one key twice: the last value wins
			first := u()
			again := SetWeight("u", first.Tuple, int64(r.Intn(4)))
			script = append(script, step{batch: []Change{first, u(), again}})
		case 3: // the last change fails validation: nothing is applied
			script = append(script, step{batch: []Change{u(), u(), invalid[r.Intn(len(invalid))]}, fails: true})
		}
	}

	for _, carrier := range []struct {
		name  string
		image func(int64) string
	}{
		{"natural", func(v int64) string { return strconv.FormatInt(v, 10) }},
		{"boolean", func(v int64) string { return strconv.FormatBool(v != 0) }},
	} {
		t.Run(carrier.name, func(t *testing.T) {
			p, err := Open(db).Prepare(ctx, query, WithSemiring(carrier.name))
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			s, err := p.Session()
			if err != nil {
				t.Fatalf("Session: %v", err)
			}
			defer s.Close()
			// mirror holds the script's weights; stored gives a weight's
			// value as the session stores it, missing being zero.
			mirror := start.Clone()
			stored := func(ch Change) string {
				v, _ := mirror.Get(ch.Weight, ch.Tuple)
				return carrier.image(v)
			}
			for i, st := range script {
				batch, before := st.batch, s.Epoch()
				var err error
				if len(batch) == 1 {
					err = s.Set(batch[0])
				} else {
					err = s.ApplyBatch(batch)
				}
				switch {
				case st.fails && !errors.Is(err, ErrUpdate):
					t.Fatalf("step %d: write %v = %v, want ErrUpdate", i, batch, err)
				case !st.fails && err != nil:
					t.Fatalf("step %d: write %v: %v", i, batch, err)
				}
				// A write commits one epoch iff it changes the stored value
				// of u, the one weight the query mentions.
				want := before
				if !st.fails {
					for _, ch := range batch {
						old := stored(ch)
						mirror.Set(ch.Weight, ch.Tuple, ch.Value)
						if ch.Weight == "u" && stored(ch) != old {
							want = before + 1
						}
					}
				}
				if s.Epoch() != want {
					t.Fatalf("step %d: write %v moved the epoch %d → %d, want %d", i, batch, before, s.Epoch(), want)
				}
				ref, err := Open(FromStructure(db.a, mirror.Clone())).Prepare(ctx, query, WithSemiring(carrier.name))
				if err != nil {
					t.Fatalf("step %d: reference Prepare: %v", i, err)
				}
				for x := range n {
					got, err := s.Eval(ctx, x)
					if err != nil {
						t.Fatalf("step %d: Session.Eval(%d): %v", i, x, err)
					}
					want, err := ref.Eval(ctx, x)
					if err != nil {
						t.Fatalf("step %d: reference Eval(%d): %v", i, x, err)
					}
					if got != want {
						t.Fatalf("step %d: after %v, Session.Eval(%d) = %s, fresh Prepare %s", i, batch, x, got, want)
					}
				}
			}
		})
	}
}
