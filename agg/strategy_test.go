package agg

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/semiring"
)

// The carriers that steer a session onto the circuit's constant-time update
// strategies: ℤ is a ring (difference updates, inclusion–exclusion
// permanents), and Truncated(3) is finite and not idempotent (value counts,
// column-type counting with counts above one).  The built-in "boolean" is the
// third, finite and idempotent.
const (
	ringCarrier      = "test-integer"
	truncatedCarrier = "test-truncated3"
)

var registerStrategyCarriersOnce sync.Once

func registerStrategyCarriers() {
	registerStrategyCarriersOnce.Do(func() {
		MustRegister(NewSemiring[int64](ringCarrier, semiring.Int,
			func(_ string, _ []int, v int64) int64 { return v }))
		MustRegister(NewSemiring[int64](truncatedCarrier, semiring.NewTruncated(3),
			func(_ string, _ []int, v int64) int64 { return min(v, 3) }))
	})
}

// strategyCarriers lists one carrier per update strategy, each with the
// semiring homomorphism from ℕ that gives its value from natural's.
var strategyCarriers = []struct {
	name  string
	image func(nat int64) string
}{
	{"natural", func(v int64) string { return strconv.FormatInt(v, 10) }},
	{ringCarrier, func(v int64) string { return strconv.FormatInt(v, 10) }},
	{"boolean", func(v int64) string { return strconv.FormatBool(v != 0) }},
	{truncatedCarrier, func(v int64) string { return strconv.FormatInt(min(v, 3), 10) }},
}

// TestSessionStrategiesAgree runs one seeded write script on sessions of one
// query in four carriers, one per update strategy: natural (generic), ℤ
// (ring), boolean and Truncated(3) (finite).  Each carrier is the image of ℕ
// under a semiring homomorphism — the identity, n ≠ 0 and min(n, 3) — so after
// every write each session's value is the image of the natural value that a
// fresh Prepare computes from scratch on a mirror of the database, live and
// through a Reader pinned one write back.  The point query is read at every
// element; the closed query's value is its maintained permanents'.
func TestSessionStrategiesAgree(t *testing.T) {
	registerStrategyCarriers()
	db, err := Generate("bounded-degree", 24, 5)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n := db.Elements()
	// The script's first write makes the values small, so that Truncated(3)
	// and boolean do not saturate: u is 0 or 1, and S holds about an eighth
	// of the elements.  Then come u Sets in 0..3 and S toggles, as singles
	// and batches of up to 3.
	r := rand.New(rand.NewSource(17))
	inS := make([]bool, n)
	var first []Change
	for v := range inS {
		inS[v] = r.Intn(8) == 0
		first = append(first, SetWeight("u", []int{v}, int64(r.Intn(2))), SetTuple("S", []int{v}, inS[v]))
	}
	script := [][]Change{first}
	for len(script) < 80 {
		batch := make([]Change, r.Intn(3)+1)
		for i := range batch {
			v := r.Intn(n)
			if r.Intn(2) == 0 {
				batch[i] = SetWeight("u", []int{v}, int64(r.Intn(4)))
			} else {
				inS[v] = !inS[v]
				batch[i] = SetTuple("S", []int{v}, inS[v])
			}
		}
		script = append(script, batch)
	}
	for _, query := range []string{
		"sum y,z . [E(x,y)&E(y,z)&S(z)] * u(y)*u(z)",
		"sum y,z . [S(y)&S(z)&!(y=z)] * u(y)*u(z)",
	} {
		t.Run(query, func(t *testing.T) { checkStrategiesAgree(t, db, query, script) })
	}
}

func checkStrategiesAgree(t *testing.T, db *Database, query string, script [][]Change) {
	ctx := context.Background()
	p, err := Open(db).Prepare(ctx, query, WithDynamic("S"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	points := [][]int{nil}
	if len(p.FreeVars()) > 0 {
		points = points[:0]
		for x := range db.Elements() {
			points = append(points, []int{x})
		}
	}
	sessions := make([]*Session, len(strategyCarriers))
	for i, c := range strategyCarriers {
		view, err := p.In(c.name)
		if err != nil {
			t.Fatalf("In(%s): %v", c.name, err)
		}
		if sessions[i], err = view.Session(); err != nil {
			t.Fatalf("Session(%s): %v", c.name, err)
		}
		defer sessions[i].Close()
	}
	// The mirror takes every write too; reference prepares the query on it
	// afresh and evaluates it in natural at every point.
	mirror, weights := db.a, db.w.Clone()
	reference := func() []int64 {
		ref, err := Open(FromStructure(mirror, weights.Clone())).Prepare(ctx, query)
		if err != nil {
			t.Fatalf("reference Prepare: %v", err)
		}
		out := make([]int64, len(points))
		for j, args := range points {
			v, err := ref.Eval(ctx, args...)
			if err != nil {
				t.Fatalf("reference Eval%v: %v", args, err)
			}
			if out[j], err = strconv.ParseInt(string(v), 10, 64); err != nil {
				t.Fatalf("reference Eval%v = %q: %v", args, v, err)
			}
		}
		return out
	}
	check := func(step int, what string, i int, read func(context.Context, ...int) (Value, error), want []int64) {
		t.Helper()
		for j, nat := range want {
			got, err := read(ctx, points[j]...)
			if err != nil {
				t.Fatalf("step %d: %s %s Eval%v: %v", step, strategyCarriers[i].name, what, points[j], err)
			}
			if w := strategyCarriers[i].image(nat); string(got) != w {
				t.Fatalf("step %d: %s %s Eval%v = %s, want %s (natural %d)",
					step, strategyCarriers[i].name, what, points[j], got, w, nat)
			}
		}
	}

	prev := reference()
	for step, batch := range script {
		readers := make([]*Reader, len(sessions))
		for i, s := range sessions {
			if readers[i], err = s.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if len(batch) == 1 {
				err = s.Set(batch[0])
			} else {
				err = s.ApplyBatch(batch)
			}
			if err != nil {
				t.Fatalf("step %d: %s write %v: %v", step, strategyCarriers[i].name, batch, err)
			}
		}
		edit := mirror.Edit()
		for _, ch := range batch {
			switch {
			case ch.Weight != "":
				weights.Set(ch.Weight, ch.Tuple, ch.Value)
			case ch.Present:
				err = edit.AddTuple(ch.Rel, ch.Tuple...)
			default:
				err = edit.RemoveTuple(ch.Rel, ch.Tuple...)
			}
			if err != nil {
				t.Fatalf("step %d: mirror: %v", step, err)
			}
		}
		mirror = edit.Build()
		now := reference()
		for i, s := range sessions {
			check(step, "live", i, s.Eval, now)
			check(step, fmt.Sprintf("pinned at epoch %d", readers[i].Epoch()), i, readers[i].Eval, prev)
			readers[i].Close()
		}
		prev = now
	}
}

// TestSessionStrategiesAgreeOnMixedGates replays a seeded write script, as
// TestSessionStrategiesAgree does, on point queries with a part free of the
// parameter.  A point session leaves out the gates the parameter holds at
// zero; here that part's gates stay maintained beside them, and the point
// read's overlay recomputes the left-out gates above them from their children,
// live and through a Reader one write back, on all four carriers.
func TestSessionStrategiesAgreeOnMixedGates(t *testing.T) {
	registerStrategyCarriers()
	db, err := Generate("bounded-degree", 24, 7)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n := db.Elements()
	// As in TestSessionStrategiesAgree: small values first, u in 0..1 and S
	// on about an eighth of the elements, then u Sets in 0..2 and S toggles.
	r := rand.New(rand.NewSource(23))
	inS := make([]bool, n)
	var first []Change
	for v := range inS {
		inS[v] = r.Intn(8) == 0
		first = append(first, SetWeight("u", []int{v}, int64(r.Intn(2))), SetTuple("S", []int{v}, inS[v]))
	}
	script := [][]Change{first}
	for len(script) < 40 {
		batch := make([]Change, r.Intn(3)+1)
		for i := range batch {
			v := r.Intn(n)
			if r.Intn(2) == 0 {
				batch[i] = SetWeight("u", []int{v}, int64(r.Intn(3)))
			} else {
				inS[v] = !inS[v]
				batch[i] = SetTuple("S", []int{v}, inS[v])
			}
		}
		script = append(script, batch)
	}
	for _, query := range []string{
		"sum y . [E(x,y)&S(y)] * u(y) + sum z,w . [E(z,w)&S(z)] * u(z)*u(w)",
		"(sum y . [E(x,y)] * u(y)) * (sum z . [S(z)] * u(z))",
	} {
		t.Run(query, func(t *testing.T) { checkStrategiesAgree(t, db, query, script) })
	}
}
