// Package fleet shards aggserve horizontally: a router consistent-hashes
// requests across N replicas so that each compiled-query cache key — the
// (database, canonical query, semiring, options) tuple aggserve already
// caches on — lives on exactly one replica, and a named session's MVCC state
// is sticky to the replica that created it.  Aggregate cache capacity and
// hit rate then grow with the fleet instead of being capped by one process.
//
// The package has three layers: Ring (the hash ring), Router (the HTTP
// proxy with health checks and fleet-wide /stats and /metrics aggregation),
// and StartLocal (an in-process harness that runs N replicas behind a
// router inside one test binary, so the whole fleet runs under -race).
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// vnodesPerReplica is the number of virtual nodes per replica.  128 points per
// replica keeps the expected load imbalance of an 8-replica fleet within a
// few percent while the ring stays small enough to rebuild instantly.
const vnodesPerReplica = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle owned
// by a replica.
type ringPoint struct {
	hash    uint64
	replica int
}

// Ring is a consistent-hash ring over a fixed replica set.  Positions
// depend only on each replica's identifier, never on the membership, so a
// replica going down moves only the keys it owned (to the next live point
// clockwise) and leaves every other assignment untouched — exactly the
// property that keeps per-replica compiled-Program caches warm across
// fail-over and recovery.  A Ring is immutable and safe for concurrent use.
type Ring struct {
	points []ringPoint
	n      int
}

// NewRing builds a ring with vnodesPerReplica virtual nodes for each of the
// given replica identifiers.  Every router builds the same ring from the same
// identifiers, so every router places every key identically.
func NewRing(ids []string) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one replica")
	}
	seen := make(map[string]bool, len(ids))
	r := &Ring{points: make([]ringPoint, 0, len(ids)*vnodesPerReplica), n: len(ids)}
	for i, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("fleet: duplicate replica id %q", id)
		}
		seen[id] = true
		for v := 0; v < vnodesPerReplica; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hashKey(id + "#" + strconv.Itoa(v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// hashKey is FNV-1a over the key bytes followed by a 64-bit avalanche
// finalizer (murmur3's fmix64).  Raw FNV clusters badly on the
// near-identical strings vnode positions are derived from ("url#0",
// "url#1", ...), which skews ring balance; the finalizer spreads every
// input bit across the whole word.  Both steps are fixed arithmetic —
// stable across processes and restarts, so routing decisions agree between
// a router and any future router restarted beside it.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Lookup returns the replica owning key when every replica is live.
func (r *Ring) Lookup(key string) int {
	owner, _ := r.LookupLive(key, nil)
	return owner
}

// LookupLive returns the first replica at or clockwise of key's position for
// which live returns true (nil means every replica is live).  The walk
// visits each distinct replica at most once; false reports that no live
// replica exists.  Keys owned by a down replica fall to the next live point
// clockwise, so its hash ranges are spread over the survivors rather than
// dumped onto a single neighbour.
func (r *Ring) LookupLive(key string, live func(int) bool) (int, bool) {
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	tried := 0
	var visited [64]bool // replica fleets are small; fall back to a map beyond
	var visitedMap map[int]bool
	if r.n > len(visited) {
		visitedMap = make(map[int]bool, r.n)
	}
	for i := 0; i < len(r.points) && tried < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if visitedMap != nil {
			if visitedMap[p.replica] {
				continue
			}
			visitedMap[p.replica] = true
		} else {
			if visited[p.replica] {
				continue
			}
			visited[p.replica] = true
		}
		tried++
		if live == nil || live(p.replica) {
			return p.replica, true
		}
	}
	return 0, false
}
