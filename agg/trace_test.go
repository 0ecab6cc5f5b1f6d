package agg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestTracedSessionMatchesPlain checks that tracing only observes: one query
// prepared plain and prepared under a tracer, with a session on each, takes
// the same seeded stream of weight and tuple writes and answers the same
// values at the same epochs after every commit, while the tracer records a
// propagation wave per committed write.
func TestTracedSessionMatchesPlain(t *testing.T) {
	const n = 12
	tr := obs.NewTracer()
	plainCtx := context.Background()
	tracedCtx := obs.NewContext(plainCtx, tr)
	eng := ringEngine(t, n)
	open := func(ctx context.Context) *Session {
		t.Helper()
		p, err := eng.Prepare(ctx, "sum y . [E(x,y)] * w(x,y)", WithDynamic("E"))
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		s, err := p.Session()
		if err != nil {
			t.Fatalf("Session: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	plain, traced := open(plainCtx), open(tracedCtx)

	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 200; step++ {
		i := rng.Intn(n)
		edge := []int{i, (i + 1) % n}
		change := SetWeight("w", edge, int64(rng.Intn(9)))
		if rng.Intn(3) == 0 {
			change = SetTuple("E", edge, rng.Intn(2) == 0)
		}
		if err := plain.Set(change); err != nil {
			t.Fatalf("step %d: plain Set: %v", step, err)
		}
		if err := traced.Set(change); err != nil {
			t.Fatalf("step %d: traced Set: %v", step, err)
		}
		if pe, te := plain.Epoch(), traced.Epoch(); pe != te {
			t.Fatalf("step %d: plain epoch %d, traced epoch %d", step, pe, te)
		}
		want := evalAll(t, n, plain.Eval)
		got := evalAll(t, n, func(_ context.Context, args ...int) (Value, error) {
			return traced.Eval(tracedCtx, args...)
		})
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("step %d: traced Eval(%d) = %v, plain %v", step, x, got[x], want[x])
			}
		}
	}
	if plain.Epoch() == 0 {
		t.Fatalf("the stream committed no epoch")
	}
	if waves := tr.Stage(obs.StageWave).Snapshot().Count; waves == 0 {
		t.Errorf("the tracer observed no propagation wave: the traced session ran untraced")
	}
}
