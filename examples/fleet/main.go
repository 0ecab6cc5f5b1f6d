// Scaling aggserve out: a consistent-hash fleet behind one router.  The
// router shards requests by the same key the replicas cache compiled
// queries under — (database, canonical query, semiring, options) — so each
// compiled Program lives on exactly one replica and the fleet's aggregate
// cache capacity grows with its size.  Named sessions shard by name
// (sticky): a session's MVCC state lives where it was created, and every
// /point, /update and /batch follows it there.
//
// Everything here runs in one process via fleet.StartLocal — three real
// replicas and a router on loopback listeners — which is also how the race
// tests and the benchmark's fleet_mix workload drive the fleet.
//
//	go run ./examples/fleet
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/agg"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/workload"
)

func post(url string, body map[string]any) map[string]any {
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(err)
	}
	return out
}

func main() {
	// Three replicas, each mounting its own copy of the same database
	// (replicas share nothing), behind one router.
	db := workload.Grid(8, 8, 7)
	f, err := fleet.StartLocal(3, fleet.LocalOptions{
		Server: server.Options{CacheSize: 32},
		Configure: func(i int, s *server.Server) {
			s.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
		},
		Router: fleet.Options{HealthInterval: 100 * time.Millisecond},
	})
	if err != nil {
		panic(err)
	}
	defer f.Close()
	fmt.Printf("router %s over 3 replicas\n\n", f.URL())

	// --- Cache-key sharding ------------------------------------------------
	//
	// Distinct queries are distinct cache keys and spread across the fleet;
	// textual variants of the same query canonicalize to one key and land on
	// one replica, which compiles once and serves the rest from cache.
	for _, expr := range []string{
		"sum x, y . [E(x,y)] * w(x,y)",
		"sum x,y.[E(x,y)]*w(x,y)", // same query, different spelling
		"sum x, y . [E(x,y)] * w(x,y) * 2",
		"sum x, y . [E(x,y)] * w(x,y) * 3",
	} {
		out := post(f.URL()+"/query", map[string]any{"expr": expr})
		key := fleet.QueryShardKey("", expr, "", nil)
		fmt.Printf("  %-36q -> replica %d  value=%v cached=%v\n",
			expr, f.Router.OwnerOf(key), out["value"], out["cached"])
	}
	fmt.Println()
	for i := 0; i < 3; i++ {
		fmt.Printf("  replica %d: %d compiles, %d cache hits\n",
			i, f.Replica(i).StatsSnapshot().Compiles, f.Replica(i).StatsSnapshot().CacheHits)
	}

	// --- Sticky sessions ---------------------------------------------------
	//
	// The session's MVCC state lives on the replica that owns its name;
	// updates and point reads through the router always land there.
	post(f.URL()+"/session", map[string]any{
		"name": "demo", "expr": "sum x, y . [E(x,y)] * w(x,y)", "dynamic": []string{"E"},
	})
	before := post(f.URL()+"/point", map[string]any{"session": "demo"})
	post(f.URL()+"/update", map[string]any{
		"session": "demo",
		"updates": []map[string]any{{"weight": "w", "tuple": []int{0, 1}, "value": 99}},
	})
	after := post(f.URL()+"/point", map[string]any{"session": "demo"})
	owner := f.Router.OwnerOf(fleet.SessionShardKey("demo"))
	fmt.Printf("\n  session %q lives on replica %d: value %v -> %v after one update\n",
		"demo", owner, before["value"], after["value"])

	// --- Fleet-wide stats --------------------------------------------------
	//
	// GET /stats on the router fans out to every replica concurrently and
	// merges: one document for the whole fleet.
	resp, err := http.Get(f.URL() + "/stats")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var fs fleet.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		panic(err)
	}
	fmt.Printf("\n  fleet: %d queries, %d compiles, %d cache hits, %d sessions across %d/%d live replicas\n",
		fs.Fleet.Queries, fs.Fleet.Compiles, fs.Fleet.CacheHits, fs.Fleet.Sessions,
		fs.Router.Live, fs.Router.Replicas)
}
