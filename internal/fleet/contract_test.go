package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The wire contract of the serving shell, recorded from the commit before
// the metric declaration table and the route table replaced the hand-typed
// lists: the JSON key sets of /stats and, per /metrics family, its TYPE and
// label keys.  HELP text, sample order and values are not contract.
var (
	wantReplicaStatsKeys = []string{
		"analyzes", "batchedUpdates", "batches", "busy", "cacheBytes", "cacheEntryBytes", "cacheHits",
		"cacheMisses", "cachedQueries", "canceled", "compileMillis", "compiles", "databases", "enumerations",
		"errors", "evalMillis", "goVersion", "inFlight", "ingestWaves", "ingestedChanges", "ingests", "points",
		"pushCoalesced", "pushes", "queries", "sessionEpochs", "sessionRetainedUndoBytes", "sessions",
		"startTime", "subscribers", "subscriptions", "updateBatches", "updates", "uptimeSeconds",
	}
	wantRouterStatsKeys = []string{
		"gatewayErrors", "live", "proxied", "replicaStates", "replicas", "reroutes", "unavailable", "uptimeSeconds",
	}
	wantReplicaStateKeys = []string{
		"cacheEntries", "id", "markDowns", "markUps", "probeFailures", "probes", "proxied", "sessions", "up",
	}

	// family → "type labelKey,labelKey" (le, the bucket bound, is implied by
	// the histogram type and left out).
	wantServingFamilies = map[string]string{
		"aggserve_requests_total":           "counter endpoint",
		"aggserve_updates_applied_total":    "counter path",
		"aggserve_compiles_total":           "counter",
		"aggserve_cache_hits_total":         "counter",
		"aggserve_cache_misses_total":       "counter",
		"aggserve_errors_total":             "counter",
		"aggserve_canceled_total":           "counter",
		"aggserve_busy_total":               "counter",
		"aggserve_pushes_total":             "counter",
		"aggserve_push_coalesced_total":     "counter",
		"aggserve_ingest_waves_total":       "counter",
		"aggserve_request_duration_seconds": "histogram endpoint",
		"aggserve_stage_duration_seconds":   "histogram stage",
		"aggserve_push_latency_seconds":     "histogram",
		"aggserve_in_flight_requests":       "gauge",
		"aggserve_cache_entries":            "gauge",
		"aggserve_cache_bytes":              "gauge",
		"aggserve_sessions_active":          "gauge",
		"aggserve_subscribers_active":       "gauge",
		"aggserve_databases":                "gauge",
		"aggserve_session_epoch":            "gauge session",
	}
	wantReplicaOnlyFamilies = map[string]string{
		"aggserve_start_time_seconds":          "gauge",
		"aggserve_uptime_seconds":              "gauge",
		"aggserve_session_retained_undo_bytes": "gauge session",
		"aggserve_build_info":                  "gauge go_version,revision",
		"go_goroutines":                        "gauge",
		"go_memstats_heap_alloc_bytes":         "gauge",
		"go_memstats_sys_bytes":                "gauge",
		"go_gc_cycles_total":                   "gauge",
	}
	wantFleetOnlyFamilies = map[string]string{
		"aggserve_session_retained_undo_bytes_total": "gauge",
		"aggfleet_replicas":                          "gauge",
		"aggfleet_replicas_live":                     "gauge",
		"aggfleet_uptime_seconds":                    "gauge",
		"aggfleet_scrape_failures":                   "gauge",
		"aggfleet_reroutes_total":                    "counter",
		"aggfleet_unavailable_total":                 "counter",
		"aggfleet_gateway_errors_total":              "counter",
		"aggfleet_replica_up":                        "gauge replica",
		"aggfleet_replica_proxied_total":             "counter replica",
		"aggfleet_replica_probe_failures_total":      "counter replica",
		"aggfleet_replica_sessions":                  "gauge replica",
		"aggfleet_replica_cache_entries":             "gauge replica",
		"aggfleet_request_duration_seconds":          "histogram endpoint",
	}
)

// jsonKeys returns the sorted keys of a decoded JSON object, dropping the
// keys whose presence depends on how the binary was built.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("want a JSON object, got %T", v)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		if k != "revision" { // omitempty: set only in binaries built from a VCS checkout
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func getJSONDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return doc
}

// metricFamilies scrapes base/metrics into family → "type labelKeys".
func metricFamilies(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	labels := map[string]map[string]struct{}{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ := strings.Cut(rest, " ")
			kinds[family] = kind
			labels[family] = map[string]struct{}{}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, labelPart, _ := strings.Cut(name, "{")
		family := name
		if _, declared := kinds[family]; !declared {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if f, ok := strings.CutSuffix(name, suffix); ok && kinds[f] == "histogram" {
					family = f
				}
			}
		}
		if _, declared := kinds[family]; !declared {
			t.Fatalf("sample %q precedes its # TYPE line", line)
		}
		for _, pair := range strings.Split(strings.TrimSuffix(labelPart, "}"), `",`) {
			if key, _, ok := strings.Cut(pair, "="); ok && key != "le" {
				labels[family][key] = struct{}{}
			}
		}
	}
	out := map[string]string{}
	for family, kind := range kinds {
		keys := make([]string, 0, len(labels[family]))
		for k := range labels[family] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out[family] = strings.TrimSpace(kind + " " + strings.Join(keys, ","))
	}
	return out
}

func union(ms ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// TestWireContract: the /stats key sets and the /metrics families, types and
// label keys of a replica and of the router are exactly the recorded ones.
func TestWireContract(t *testing.T) {
	f := startFleet(t, 2)
	if out, code := postJSON(t, f.URL()+"/query", map[string]any{"expr": edgeSum}); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	if out, code := postJSON(t, f.URL()+"/session", map[string]any{"name": "wire", "expr": edgeSum, "dynamic": []string{"E"}}); code != http.StatusOK {
		t.Fatalf("session: %d %v", code, out)
	}
	owner := f.Router.OwnerOf(SessionShardKey("wire"))

	replica := getJSONDoc(t, f.ReplicaURL(owner)+"/stats")
	if got := jsonKeys(t, replica); !slices.Equal(got, wantReplicaStatsKeys) {
		t.Errorf("replica /stats keys\n got %q\nwant %q", got, wantReplicaStatsKeys)
	}
	fleet := getJSONDoc(t, f.URL()+"/stats")
	if got := jsonKeys(t, fleet); !slices.Equal(got, []string{"fleet", "replicas", "router"}) {
		t.Errorf("fleet /stats top-level keys %q", got)
	}
	if got := jsonKeys(t, fleet["fleet"]); !slices.Equal(got, wantReplicaStatsKeys) {
		t.Errorf("fleet /stats .fleet keys\n got %q\nwant %q", got, wantReplicaStatsKeys)
	}
	if got := jsonKeys(t, fleet["router"]); !slices.Equal(got, wantRouterStatsKeys) {
		t.Errorf("fleet /stats .router keys\n got %q\nwant %q", got, wantRouterStatsKeys)
	}
	states := fleet["router"].(map[string]any)["replicaStates"].([]any)
	if got := jsonKeys(t, states[0]); !slices.Equal(got, wantReplicaStateKeys) {
		t.Errorf("fleet /stats .router.replicaStates[] keys\n got %q\nwant %q", got, wantReplicaStateKeys)
	}

	if got, want := metricFamilies(t, f.ReplicaURL(owner)), union(wantServingFamilies, wantReplicaOnlyFamilies); !reflect.DeepEqual(got, want) {
		t.Errorf("replica /metrics families\n got %v\nwant %v", got, want)
	}
	if got, want := metricFamilies(t, f.URL()), union(wantServingFamilies, wantFleetOnlyFamilies); !reflect.DeepEqual(got, want) {
		t.Errorf("fleet /metrics families\n got %v\nwant %v", got, want)
	}
}
