// Live materialized aggregates through the repro/agg facade: a session's
// value can be watched instead of polled.  Session.Subscribe yields an
// Update after every committed epoch, re-evaluated from an MVCC snapshot, so
// subscribers always see a consistent value — and a slow subscriber never
// stalls the writer or other subscribers, because each subscription is a
// one-slot mailbox where the latest epoch wins: lagging clients skip
// intermediate epochs (Update.Coalesced counts the evaluations folded
// together) instead of applying backpressure.
//
// The write side here is a CDC-style change stream from the workload
// generator (the same shape `agggen -kind cdc` emits and `POST /ingest`
// consumes), applied as coalesced ApplyBatch waves — one commit, one push,
// per wave.
//
//	go run ./examples/livefeed
package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/agg"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	d := workload.Grid(24, 24, 3)
	eng := agg.Open(agg.FromStructure(d.A, d.Weights()))

	p, err := eng.Prepare(ctx,
		"sum x, y . [E(x,y)] * w(x,y) + sum x . [S(x)] * u(x)",
		agg.WithDynamic("E", "S"))
	if err != nil {
		panic(err)
	}
	s, err := p.Session()
	if err != nil {
		panic(err)
	}
	defer s.Close()

	// A CDC change stream in ApplyBatch waves: every change is guaranteed
	// effective (the generator never emits redundant toggles or no-op weight
	// writes), so each wave commits exactly one epoch.
	const changes, wave = 4096, 128
	target := s.Epoch() + changes/wave

	// Two subscribers watch the same session: one keeps up, one sleeps per
	// delivery.  Both terminate at the final epoch — a lagging subscriber is
	// still guaranteed to observe the session's last committed state.
	var wg sync.WaitGroup
	watch := func(name string, sleep time.Duration) {
		defer wg.Done()
		delivered, folded := 0, uint64(0)
		var last agg.Update
		for u, err := range s.Subscribe(ctx) {
			if err != nil {
				panic(err)
			}
			delivered++
			folded += u.Coalesced
			last = u
			if u.Epoch >= target {
				break
			}
			time.Sleep(sleep)
		}
		fmt.Printf("%-4s subscriber: %3d deliveries, %2d evaluations coalesced, final epoch %d value %s\n",
			name, delivered, folded, last.Epoch, last.Value)
	}
	wg.Add(2)
	go watch("fast", 0)
	go watch("slow", 5*time.Millisecond)

	var batch []agg.Change
	for c := range workload.ChangeStream(d, changes, 7) {
		batch = append(batch, agg.Change{
			Weight:  c.Weight,
			Rel:     c.Rel,
			Tuple:   c.Tuple,
			Value:   c.Value,
			Present: c.Present == nil || *c.Present,
		})
		if len(batch) == wave {
			if err := s.ApplyBatch(batch); err != nil {
				panic(err)
			}
			batch = batch[:0]
			time.Sleep(time.Millisecond) // pace like a request stream
		}
	}
	wg.Wait()

	// Resume: a client that reports the epoch it has already seen skips the
	// initial snapshot and is woken only by fresh commits — including one that
	// races its registration, as this one does.
	resumed := make(chan agg.Update, 1)
	seen := s.Epoch()
	go func() {
		for u, err := range s.Subscribe(ctx, agg.SubscribeFrom(seen)) {
			if err != nil {
				panic(err)
			}
			resumed <- u
			return
		}
	}()
	if err := s.Set(agg.SetWeight("u", []int{0}, 999)); err != nil {
		panic(err)
	}
	u := <-resumed
	fmt.Printf("resumed subscriber: first delivery is the fresh commit (epoch %d, value %s)\n", u.Epoch, u.Value)
}
