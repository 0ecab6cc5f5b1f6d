package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// each runs f once per replica, concurrently — the by-id registry / async
// fan-out / await-all shape — bounding every call by replicaTimeout.
func (rt *Router) each(f func(ctx context.Context, i int, rep *replica)) {
	var wg sync.WaitGroup
	for i, rep := range rt.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), replicaTimeout)
			defer cancel()
			f(ctx, i, rep)
		}()
	}
	wg.Wait()
}

// getJSON fetches path from one replica into v over the shared client.
func (rt *Router) getJSON(ctx context.Context, rep *replica, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.id+path, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// RouterStats is the router's own serving state, nested under "router" in
// the fleet /stats document.
type RouterStats struct {
	Replicas      int            `json:"replicas"`
	Live          int            `json:"live"`
	Proxied       int64          `json:"proxied"`
	Reroutes      int64          `json:"reroutes"`
	Unavailable   int64          `json:"unavailable"`
	GatewayErrors int64          `json:"gatewayErrors"`
	UptimeSeconds float64        `json:"uptimeSeconds"`
	ReplicaStates []ReplicaState `json:"replicaStates"`
}

// FleetStats is the JSON document of the fleet-wide GET /stats: the merged
// counters under "fleet", each replica's own /stats under "replicas" (keyed
// by replica URL), scrape failures under "replicaErrors", and the router's
// proxy/health state under "router".
type FleetStats struct {
	Fleet         server.StatsSnapshot            `json:"fleet"`
	Replicas      map[string]server.StatsSnapshot `json:"replicas"`
	ReplicaErrors map[string]string               `json:"replicaErrors,omitempty"`
	Router        RouterStats                     `json:"router"`
}

func (rt *Router) routerStats() RouterStats {
	states := rt.ReplicaStates()
	rs := RouterStats{
		Replicas:      len(rt.replicas),
		Reroutes:      rt.reroutes.Load(),
		Unavailable:   rt.unavailable.Load(),
		GatewayErrors: rt.gateway.Load(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
		ReplicaStates: states,
	}
	for _, st := range states {
		rs.Proxied += st.Proxied
		if st.Up {
			rs.Live++
		}
	}
	return rs
}

// scrape fans out to every replica's raw /metrics.json and merges under the
// rules the server's metric table declares: counters sum, histograms merge
// bucket by bucket (a fleet bucket count is exactly the sum of the replica
// buckets), session epoch maps union (sticky routing keeps session names
// disjoint across replicas), uptime takes the oldest replica, and the build
// identity carries over from the first replica reporting one.  Both fleet
// documents, /stats and /metrics, are views of this one result.
func (rt *Router) scrape() (merged *server.MetricsSnapshot, replicas map[string]server.StatsSnapshot, failed map[string]string) {
	snaps := make([]server.MetricsSnapshot, len(rt.replicas))
	errs := make([]error, len(rt.replicas))
	rt.each(func(ctx context.Context, i int, rep *replica) {
		errs[i] = rt.getJSON(ctx, rep, "/metrics.json", &snaps[i])
	})
	merged = &server.MetricsSnapshot{}
	replicas = make(map[string]server.StatsSnapshot, len(rt.replicas))
	for i, rep := range rt.replicas {
		if errs[i] != nil {
			rep.setErr(errs[i])
			if failed == nil {
				failed = map[string]string{}
			}
			failed[rep.id] = errs[i].Error()
			continue
		}
		replicas[rep.id] = snaps[i].Stats
		merged.Merge(&snaps[i])
	}
	return merged, replicas, failed
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	merged, replicas, failed := rt.scrape()
	server.WriteJSON(w, FleetStats{Fleet: merged.Stats, Replicas: replicas, ReplicaErrors: failed, Router: rt.routerStats()})
}

// routerMetrics declares the router's own scalars: RouterStats plus the
// number of replicas that failed to report to the scrape being answered.
var routerMetrics = []obs.Metric{
	{Field: "Replicas", Family: "aggfleet_replicas", Help: "Replicas configured on the ring.", Kind: "gauge"},
	{Field: "Live", Family: "aggfleet_replicas_live", Help: "Replicas currently marked up.", Kind: "gauge"},
	{Field: "UptimeSeconds", Family: "aggfleet_uptime_seconds", Help: "Seconds since the router started.", Kind: "gauge"},
	{Field: "ScrapeFailures", Family: "aggfleet_scrape_failures", Help: "Replicas that failed to report to this scrape.", Kind: "gauge"},
	{Field: "Reroutes", Family: "aggfleet_reroutes_total", Help: "Requests rerouted to another replica after a failed exchange that was safe to repeat.", Kind: "counter"},
	{Field: "Unavailable", Family: "aggfleet_unavailable_total", Help: "Requests answered 503: no live replica for the key.", Kind: "counter"},
	{Field: "GatewayErrors", Family: "aggfleet_gateway_errors_total", Help: "Requests answered 502: replica unreachable mid-exchange.", Kind: "counter"},
}

// replicaMetrics declares the per-replica families over ReplicaState, one
// sample per replica.
var replicaMetrics = []obs.Metric{
	{Field: "Up", Family: "aggfleet_replica_up", Help: "Replica liveness as seen by the router (1 up, 0 down).", Kind: "gauge"},
	{Field: "Proxied", Family: "aggfleet_replica_proxied_total", Help: "Requests proxied to each replica.", Kind: "counter"},
	{Field: "ProbeFailures", Family: "aggfleet_replica_probe_failures_total", Help: "Failed health probes per replica.", Kind: "counter"},
	{Field: "Sessions", Family: "aggfleet_replica_sessions", Help: "Sessions registered on each replica (last readiness probe).", Kind: "gauge"},
	{Field: "CacheEntries", Family: "aggfleet_replica_cache_entries", Help: "Compiled queries cached on each replica (last readiness probe).", Kind: "gauge"},
}

// handleMetrics serves the fleet-wide Prometheus exposition: the replicas'
// own families written from the merged snapshot, plus the aggfleet_*
// families describing the router itself — reroute and error counters,
// per-replica liveness and gauges, and the router-side request latency per
// endpoint.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	merged, _, failed := rt.scrape()
	server.ServeMetrics(w, func(pw *obs.Writer) {
		merged.WritePrometheus(pw, obs.FleetWide)

		rs := rt.routerStats()
		pw.Table(routerMetrics, obs.FleetWide, obs.Source{Stats: &struct {
			RouterStats
			ScrapeFailures int
		}{rs, len(failed)}})
		perReplica := make([]obs.Source, len(rs.ReplicaStates))
		for i := range rs.ReplicaStates {
			perReplica[i] = obs.Source{Labels: obs.Labels{"replica": rs.ReplicaStates[i].ID}, Stats: &rs.ReplicaStates[i]}
		}
		pw.Table(replicaMetrics, obs.FleetWide, perReplica...)

		latency := make(map[string]obs.Snapshot, len(rt.hist))
		for ep, h := range rt.hist {
			latency[ep] = h.Snapshot()
		}
		pw.Histograms("aggfleet_request_duration_seconds", "Router-side end-to-end latency by endpoint (includes the proxy hop).", "endpoint", latency)
	})
}
