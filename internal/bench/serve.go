package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/agg"
	"repro/internal/server"
	"repro/internal/workload"
)

// E12ServingThroughput measures the aggserve serving path: the cold-compile
// latency of the first /query against the cached latency of the repeats,
// and the sustained requests/sec when `clients` concurrent clients hammer
// the cached query.
func E12ServingThroughput(sizes []int, clients int) *Table {
	if clients < 8 {
		clients = 8
	}
	t := &Table{
		ID:     "E12",
		Title:  "Query serving: compiled-circuit cache and concurrent throughput",
		Claim:  "compilation (Theorem 6) is paid once per (database, query, semiring) key; cached queries skip it entirely, so a long-lived server amortises the expensive preprocessing across many concurrent clients",
		Header: []string{"n", "cold /query", "cached /query", "speedup", fmt.Sprintf("req/s (%d clients)", clients), "cache hits"},
	}
	const expr = "sum x, y . [E(x,y)] * w(x,y)"
	body, _ := json.Marshal(map[string]any{"expr": expr, "semiring": "natural"})

	for _, n := range sizes {
		db := workload.BoundedDegree(n, 3, 7)
		srv := server.New(server.Options{})
		srv.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
		ts := httptest.NewServer(srv.Handler())

		post := func() error {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			var out struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d: %s", resp.StatusCode, out.Error)
			}
			return nil
		}

		cold := timeIt(func() {
			if err := post(); err != nil {
				panic(fmt.Sprintf("E12: cold query: %v", err))
			}
		})

		// Average a handful of cached round trips.
		const warmReps = 10
		warm := timeIt(func() {
			for i := 0; i < warmReps; i++ {
				if err := post(); err != nil {
					panic(fmt.Sprintf("E12: cached query: %v", err))
				}
			}
		}) / warmReps

		// Concurrent clients on the cached entry.
		const perClient = 20
		var wg sync.WaitGroup
		elapsed := timeIt(func() {
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						if err := post(); err != nil {
							panic(fmt.Sprintf("E12: concurrent query: %v", err))
						}
					}
				}()
			}
			wg.Wait()
		})
		reqPerSec := float64(clients*perClient) / elapsed.Seconds()

		hits := srv.StatsSnapshot().CacheHits
		if compiles := srv.StatsSnapshot().Compiles; compiles != 1 {
			panic(fmt.Sprintf("E12: expected exactly 1 compile, saw %d", compiles))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(cold), dur(warm),
			fmt.Sprintf("%.1fx", float64(cold)/float64(warm)),
			fmt.Sprintf("%.0f", reqPerSec), fmt.Sprint(hits),
		})
		ts.Close()
	}
	t.Notes = append(t.Notes,
		"cold includes parsing + Theorem 6 compilation; cached requests hit the LRU of compiled circuits and only pay evaluation",
		"req/s drives the cached query from concurrent clients over loopback HTTP, so it includes JSON and transport overhead")
	return t
}
