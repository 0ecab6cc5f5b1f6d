package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/agg"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/workload"
)

// E19 measures what sharding aggserve buys: aggregate compiled-query cache
// capacity.  The workload is a working set of `distinct` queries — the same
// aggregate with different constant factors, so each has its own cache key
// and its own Theorem 6 compilation — cycled by concurrent clients against a
// per-replica LRU smaller than the set.  One replica cycles a set larger
// than its cache and recompiles on almost every request (E12 puts a
// compilation at 40–50× a cached evaluation); a fleet consistent-hashes the
// keys so each replica's shard fits its cache, and after one warm pass the
// whole set serves at cached speed.

// e19Exprs builds the distinct-query working set: constants are part of the
// canonical text, so each factor is a distinct (database, query, semiring)
// cache key compiled and cached independently.
func e19Exprs(distinct int) [][]byte {
	bodies := make([][]byte, distinct)
	for i := range bodies {
		expr := fmt.Sprintf("sum x, y . [E(x,y)] * w(x,y) * %d", i+1)
		b, err := json.Marshal(map[string]any{"expr": expr, "semiring": "natural"})
		if err != nil {
			panic(fmt.Sprintf("E19: marshal: %v", err))
		}
		bodies[i] = b
	}
	return bodies
}

// e19Post issues one /query and returns its round-trip latency.
func e19Post(client *http.Client, url string, body []byte) time.Duration {
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		panic(fmt.Sprintf("E19: POST: %v", err))
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(fmt.Sprintf("E19: decoding response: %v", err))
	}
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("E19: status %d: %s", resp.StatusCode, out.Error))
	}
	return time.Since(start)
}

func e19Percentile(lats []time.Duration, p int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := len(lats) * p / 100
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx]
}

// e19Result is one fleet-size measurement.
type e19Result struct {
	replicas  int
	reqPerSec float64
	p50, p99  time.Duration
	hits      int64 // cache hits during the measured phase (warm-up excluded)
	misses    int64
}

// e19Run drives the working set through a fleet of the given size: one
// sequential warm pass (each owner compiles its shard once), then `clients`
// concurrent clients cycling the set from staggered offsets.
func e19Run(db *workload.Database, replicas, distinct, cacheSize, clients, perClient int) e19Result {
	f, err := fleet.StartLocal(replicas, fleet.LocalOptions{
		Server: server.Options{CacheSize: cacheSize},
		Configure: func(i int, s *server.Server) {
			s.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
		},
	})
	if err != nil {
		panic(fmt.Sprintf("E19: starting fleet: %v", err))
	}
	defer f.Close()

	client := &http.Client{}
	bodies := e19Exprs(distinct)
	for _, b := range bodies {
		e19Post(client, f.URL()+"/query", b)
	}

	var hits0, misses0 int64
	for i := 0; i < replicas; i++ {
		hits0 += f.Replica(i).StatsSnapshot().CacheHits
		misses0 += f.Replica(i).StatsSnapshot().CacheMisses
	}

	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	elapsed := timeIt(func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					// Staggered offsets desynchronise the cyclic scans, so
					// clients do not ride each other's in-flight compiles.
					b := bodies[(c*5+i)%len(bodies)]
					lats[c] = append(lats[c], e19Post(client, f.URL()+"/query", b))
				}
			}(c)
		}
		wg.Wait()
	})

	res := e19Result{
		replicas:  replicas,
		reqPerSec: float64(clients*perClient) / elapsed.Seconds(),
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	res.p50 = e19Percentile(all, 50)
	res.p99 = e19Percentile(all, 99)
	for i := 0; i < replicas; i++ {
		res.hits += f.Replica(i).StatsSnapshot().CacheHits
		res.misses += f.Replica(i).StatsSnapshot().CacheMisses
	}
	res.hits -= hits0
	res.misses -= misses0
	return res
}

// e19Overhead measures what the proxy hop itself costs: the p50 of a cached
// /query through router + replica minus the p50 of the same request direct
// to the replica.
func e19Overhead(db *workload.Database, reps int) (routed, direct time.Duration) {
	f, err := fleet.StartLocal(1, fleet.LocalOptions{
		Server: server.Options{CacheSize: 8},
		Configure: func(i int, s *server.Server) {
			s.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
		},
	})
	if err != nil {
		panic(fmt.Sprintf("E19: starting fleet: %v", err))
	}
	defer f.Close()

	client := &http.Client{}
	body := e19Exprs(1)[0]
	// Warm the compiled entry and both connection pools.
	for i := 0; i < 3; i++ {
		e19Post(client, f.URL()+"/query", body)
		e19Post(client, f.ReplicaURL(0)+"/query", body)
	}
	var viaRouter, viaReplica []time.Duration
	for i := 0; i < reps; i++ {
		viaRouter = append(viaRouter, e19Post(client, f.URL()+"/query", body))
		viaReplica = append(viaReplica, e19Post(client, f.ReplicaURL(0)+"/query", body))
	}
	return e19Percentile(viaRouter, 50), e19Percentile(viaReplica, 50)
}

// E19FleetScaling measures aggregate throughput and tail latency of the
// distinct-query working set across fleet sizes, plus the router's own hop
// overhead on a cached query.
func E19FleetScaling(n, distinct, cacheSize, clients, perClient int) *Table {
	t := &Table{
		ID:    "E19",
		Title: "Fleet scale-out: consistent-hash sharding of the compiled-query cache",
		Claim: "sharding the cache key space across replicas multiplies effective cache capacity: a working set that thrashes one replica's LRU fits a fleet's, so aggregate req/s scales superlinearly and p99 collapses from compile to eval latency",
		Header: []string{
			"replicas", fmt.Sprintf("req/s (%d clients)", clients), "speedup",
			"p50", "p99", "hit rate",
		},
	}
	db := workload.BoundedDegree(n, 3, 7)
	var base float64
	for _, replicas := range []int{1, 2, 4} {
		r := e19Run(db, replicas, distinct, cacheSize, clients, perClient)
		if replicas == 1 {
			base = r.reqPerSec
		}
		hitRate := float64(r.hits) / float64(r.hits+r.misses)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(replicas),
			fmt.Sprintf("%.0f", r.reqPerSec),
			fmt.Sprintf("%.1fx", r.reqPerSec/base),
			dur(r.p50), dur(r.p99),
			fmt.Sprintf("%.0f%%", 100*hitRate),
		})
	}
	routed, direct := e19Overhead(db, 60)
	t.Notes = append(t.Notes,
		fmt.Sprintf("working set: %d distinct queries (constant factors are distinct cache keys) against a per-replica LRU of %d on bounded-degree n=%d; one warm pass precedes the measured phase", distinct, cacheSize, n),
		"replicas run in-process behind the router (fleet.StartLocal), so they share the machine's cores: the speedup is cache capacity, not added hardware — misses recompile (E12: 40-50x a cached eval) while hits only evaluate",
		fmt.Sprintf("router hop overhead on a cached query: p50 %v routed vs %v direct (+%v)", routed, direct, routed-direct),
	)
	return t
}

// e19Check runs the scale-out comparison as a pass/fail smoke check (used
// by CI): 4 replicas must deliver ≥2.5× the aggregate req/s of 1 replica on
// the cache-thrashing working set with p99 no worse, and the router hop
// must add ≤1ms to the p50 of a cached query.  Timing attempts are
// re-measured up to two more times so co-tenant noise cannot red-light an
// unrelated change.
func e19Check() error {
	const (
		n, distinct, cacheSize = 500, 24, 12
		clients, perClient     = 8, 36
		wantSpeedup            = 2.5
		maxOverhead            = time.Millisecond
	)
	db := workload.BoundedDegree(n, 3, 7)
	var r1, r4 e19Result
	var overhead time.Duration
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		r1 = e19Run(db, 1, distinct, cacheSize, clients, perClient)
		r4 = e19Run(db, 4, distinct, cacheSize, clients, perClient)
		routed, direct := e19Overhead(db, 60)
		overhead = routed - direct
		err = nil
		switch {
		case r4.reqPerSec < wantSpeedup*r1.reqPerSec:
			err = fmt.Errorf("E19: 4 replicas deliver %.0f req/s vs %.0f for 1 — %.2fx, want ≥ %.1fx",
				r4.reqPerSec, r1.reqPerSec, r4.reqPerSec/r1.reqPerSec, wantSpeedup)
		case r4.p99 > r1.p99:
			err = fmt.Errorf("E19: p99 %v at 4 replicas is worse than %v at 1", r4.p99, r1.p99)
		case overhead > maxOverhead:
			err = fmt.Errorf("E19: router hop adds %v to a cached query's p50 (%v routed vs %v direct), want ≤ %v",
				overhead, routed, direct, maxOverhead)
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("E19 ok: %.0f req/s at 1 replica vs %.0f at 4 (%.1fx), p99 %v vs %v, router hop +%v p50\n",
		r1.reqPerSec, r4.reqPerSec, r4.reqPerSec/r1.reqPerSec, r1.p99, r4.p99, overhead)
	return nil
}
