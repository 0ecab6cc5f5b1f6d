package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

// E13BatchedUpdates measures the batched dynamic-update engine end to end on
// the workload shape where it matters: a hot-key stream of vertex-weight
// updates concentrated on the highest-degree vertices of a preferential-
// attachment graph, driving the weighted 2-path query.  A hub's weight sits
// in the propagation cone of every 2-path through it, so each individual
// update pays an expensive wave; ApplyBatch applies all leaf changes first
// and propagates once per batch in topological-rank order, so repeated
// updates to the same hot keys coalesce and shared gates are recomputed once
// per batch instead of once per update.  The table also reports the
// steady-state heap allocations per update of the core generic-path engine
// (circuit.Dynamic.SetInput), which must stay at zero.
func E13BatchedUpdates(sizes []int, totalUpdates, batchSize, hotKeys int) *Table {
	t := &Table{
		ID:    "E13",
		Title: "Batched dynamic updates (Theorem 8 at request rate)",
		Claim: "applying leaf changes first and propagating once per batch in topological-rank order beats per-update propagation on hot-key streams, with zero steady-state allocations per generic-path engine update",
		Header: []string{
			"n", "updates", "hot keys", "max deg",
			"per-update", fmt.Sprintf("batched(%d)", batchSize), "speedup", "allocs/upd (engine)",
		},
	}
	q := PathQuery()
	for _, n := range sizes {
		db := workload.PreferentialAttachment(n, 2, 11)
		hubs := hotVertices(db, hotKeys)
		r := rand.New(rand.NewSource(int64(n)))
		stream := make([]dynamicq.Change[int64], totalUpdates)
		for i := range stream {
			hub := hubs[r.Intn(len(hubs))]
			stream[i] = dynamicq.WeightChange("u", structure.Tuple{hub.v}, int64(r.Intn(9)+1))
		}

		perQ, err := dynamicq.CompileQuery[int64](semiring.Nat, db.A, db.Weights(), q, compile.Options{})
		if err != nil {
			panic(err)
		}
		batchQ, err := dynamicq.CompileQuery[int64](semiring.Nat, db.A, db.Weights(), q, compile.Options{})
		if err != nil {
			panic(err)
		}

		perDur := timeIt(func() {
			for _, ch := range stream {
				if err := perQ.SetWeight(ch.Weight, ch.Tuple, ch.Value); err != nil {
					panic(err)
				}
			}
		})
		batchDur := timeIt(func() {
			for lo := 0; lo < len(stream); lo += batchSize {
				hi := lo + batchSize
				if hi > len(stream) {
					hi = len(stream)
				}
				if err := batchQ.ApplyBatch(stream[lo:hi]); err != nil {
					panic(err)
				}
			}
		})
		perVal, _ := perQ.ValueClosed()
		batchVal, _ := batchQ.ValueClosed()
		if perVal != batchVal {
			panic(fmt.Sprintf("E13: per-update value %d and batched value %d disagree", perVal, batchVal))
		}

		perRate := float64(totalUpdates) / perDur.Seconds()
		batchRate := float64(totalUpdates) / batchDur.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(totalUpdates), fmt.Sprint(len(hubs)), fmt.Sprint(hubs[0].deg),
			fmt.Sprintf("%.0f upd/s", perRate), fmt.Sprintf("%.0f upd/s", batchRate),
			fmt.Sprintf("%.1fx", batchRate/perRate),
			fmt.Sprintf("%.3f", engineAllocsPerUpdate(db, hubs)),
		})
	}
	t.Notes = append(t.Notes,
		"both runs apply the same stream and must end at the same value; batched application is all-or-nothing and observationally equivalent to the per-update loop",
		"hot keys are the vertex weights of the highest-degree vertices: every 2-path through a hub is in its propagation cone, the regime where one wave per batch pays off",
		"allocs/upd measures circuit.Dynamic.SetInput on the generic (ℕ) path after warm-up via runtime.MemStats; the rank-bucket engine reuses all wave state, so it must report 0.000")
	return t
}

type hotVertex struct {
	v   structure.Element
	deg int
}

// hotVertices returns the k highest-degree vertices of the workload graph.
func hotVertices(db *workload.Database, k int) []hotVertex {
	deg := make([]int, db.A.N)
	for _, e := range db.A.Tuples("E") {
		deg[e[0]]++
		deg[e[1]]++
	}
	order := make([]hotVertex, db.A.N)
	for v := range order {
		order[v] = hotVertex{v: v, deg: deg[v]}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].deg > order[b].deg })
	if k > len(order) {
		k = len(order)
	}
	return order[:k]
}

// engineAllocsPerUpdate measures steady-state heap allocations per update of
// the core generic-path engine: circuit.Dynamic.SetInput with prebuilt keys,
// no query-layer bookkeeping.
func engineAllocsPerUpdate(db *workload.Database, hubs []hotVertex) float64 {
	res, err := compile.Compile(db.A, PathQuery(), compile.Options{})
	if err != nil {
		panic(err)
	}
	w := db.Weights()
	dyn := circuit.NewDynamicProgram[int64](res.Program, semiring.Nat, compile.NewValuation(res, semiring.Nat, w))
	keys := make([]structure.WeightKey, len(hubs))
	for i, h := range hubs {
		keys[i] = structure.MakeWeightKey("u", structure.Tuple{h.v})
	}
	// Warm-up: let every scratch buffer grow to its steady-state capacity.
	for round := 0; round < 4; round++ {
		for i, k := range keys {
			dyn.SetInput(k, int64(round+i%5+1))
		}
	}
	const updates = 2048
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < updates; i++ {
		dyn.SetInput(keys[i%len(keys)], int64(i%7+1))
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / updates
}
