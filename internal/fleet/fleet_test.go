package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/agg"
	"repro/internal/server"
	"repro/internal/workload"
)

const edgeSum = "sum x, y . [E(x,y)] * w(x,y)"

// startFleet spins up n replicas (each mounting the same grid workload as
// "default") behind an in-process router with fast health probes.
func startFleet(t *testing.T, n int) *LocalFleet {
	t.Helper()
	db := workload.Grid(6, 6, 7)
	f, err := StartLocal(n, LocalOptions{
		Server: server.Options{CacheSize: 32},
		Configure: func(i int, s *server.Server) {
			s.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
		},
		Router: Options{HealthInterval: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func postJSON(t *testing.T, url string, body any) (map[string]any, int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response of %s: %v", url, err)
	}
	return out, resp.StatusCode
}

// TestStickySessionAcrossConcurrentClients: a named session is created once
// through the router, then 12 concurrent clients mix point reads and
// updates against it.  Sticky routing means every request lands on the one
// replica holding the session — any stray would 404 (the session exists
// nowhere else) — and afterwards exactly one replica carries all the
// traffic.
func TestStickySessionAcrossConcurrentClients(t *testing.T) {
	f := startFleet(t, 3)

	if out, code := postJSON(t, f.URL()+"/session", map[string]any{
		"name": "steady", "expr": edgeSum, "dynamic": []string{"E"},
	}); code != http.StatusOK {
		t.Fatalf("creating session: %d %v", code, out)
	}

	const clients, perClient = 12, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var out map[string]any
				var code int
				if i%4 == 3 {
					out, code = postJSON(t, f.URL()+"/update", map[string]any{
						"session": "steady",
						"updates": []map[string]any{{"weight": "w", "tuple": []int{0, 1}, "value": c*perClient + i}},
					})
				} else {
					out, code = postJSON(t, f.URL()+"/point", map[string]any{"session": "steady"})
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d (%v)", c, i, code, out)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	withSession, totalPoints := 0, int64(0)
	for i := 0; i < 3; i++ {
		st := f.Replica(i).StatsSnapshot()
		if st.Sessions > 0 {
			withSession++
		}
		totalPoints += st.Points
		if st.Sessions == 0 && (st.Points > 0 || st.Updates > 0) {
			t.Errorf("replica %d served session traffic without holding the session", i)
		}
	}
	if withSession != 1 {
		t.Errorf("session exists on %d replicas, want exactly 1", withSession)
	}
	if want := int64(clients * perClient * 3 / 4); totalPoints != want {
		t.Errorf("points served = %d, want %d", totalPoints, want)
	}
}

// TestPointDuringInFlightBatchThroughRouter: MVCC point reads keep
// streaming 200s through the router while a /batch is mid-flight on the
// same session — stickiness routes both to the same replica, where reads
// answer from a committed snapshot.
func TestPointDuringInFlightBatchThroughRouter(t *testing.T) {
	f := startFleet(t, 3)

	if out, code := postJSON(t, f.URL()+"/session", map[string]any{
		"name": "busy", "expr": edgeSum, "dynamic": []string{"E"},
	}); code != http.StatusOK {
		t.Fatalf("creating session: %d %v", code, out)
	}

	var updates []map[string]any
	for i := 0; i < 400; i++ {
		updates = append(updates, map[string]any{"weight": "w", "tuple": []int{i % 6, (i + 1) % 6}, "value": i % 9})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if out, code := postJSON(t, f.URL()+"/batch", map[string]any{"session": "busy", "updates": updates}); code != http.StatusOK {
			t.Errorf("batch: %d %v", code, out)
		}
	}()
	for i := 0; i < 25; i++ {
		if out, code := postJSON(t, f.URL()+"/point", map[string]any{"session": "busy"}); code != http.StatusOK {
			t.Fatalf("point %d during in-flight batch: status %d (%v)", i, code, out)
		}
	}
	wg.Wait()
}

// TestReplicaDownRerouteAndRecovery kills the replica owning a query key,
// asserts the very next request reroutes to a survivor (dial failure, not
// health-probe latency), then restarts the replica and asserts the key
// returns home once the probe marks it up.
func TestReplicaDownRerouteAndRecovery(t *testing.T) {
	f := startFleet(t, 3)

	owner := f.Router.OwnerOf(QueryShardKey("", edgeSum, "", nil))
	body := map[string]any{"expr": edgeSum, "semiring": "natural"}

	if out, code := postJSON(t, f.URL()+"/query", body); code != http.StatusOK {
		t.Fatalf("warm query: %d %v", code, out)
	}
	if got := f.Replica(owner).StatsSnapshot().Queries; got != 1 {
		t.Fatalf("ring owner %d served %d queries, want 1", owner, got)
	}

	f.KillReplica(owner)
	if out, code := postJSON(t, f.URL()+"/query", body); code != http.StatusOK {
		t.Fatalf("query after killing owner: %d %v", code, out)
	}
	survivors := int64(0)
	for i := 0; i < 3; i++ {
		if i != owner {
			survivors += f.Replica(i).StatsSnapshot().Queries
		}
	}
	if survivors != 1 {
		t.Fatalf("after mark-down, survivors served %d queries, want 1", survivors)
	}
	if st := f.Router.ReplicaStates()[owner]; st.Up {
		t.Error("owner still marked up after dial failure")
	}

	if err := f.RestartReplica(owner); err != nil {
		t.Fatalf("restart: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !f.Router.ReplicaStates()[owner].Up {
		if time.Now().After(deadline) {
			t.Fatal("replica not marked up again within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if out, code := postJSON(t, f.URL()+"/query", body); code != http.StatusOK {
		t.Fatalf("query after recovery: %d %v", code, out)
	}
	if got := f.Replica(owner).StatsSnapshot().Queries; got != 2 {
		t.Errorf("recovered owner served %d queries total, want 2 (key returned home)", got)
	}
}

// TestCacheKeySharding: textually different spellings of the same query
// share a canonical form, so they land on the same replica and compile
// once; a spread of distinct queries fans out across replicas.
func TestCacheKeySharding(t *testing.T) {
	f := startFleet(t, 3)

	for _, spelling := range []string{edgeSum, "sum x,y.[E(x,y)]*w(x,y)", "sum  x,  y .  [E(x, y)] * w(x, y)"} {
		if out, code := postJSON(t, f.URL()+"/query", map[string]any{"expr": spelling}); code != http.StatusOK {
			t.Fatalf("query %q: %d %v", spelling, code, out)
		}
	}
	totalCompiles := int64(0)
	for i := 0; i < 3; i++ {
		totalCompiles += f.Replica(i).StatsSnapshot().Compiles
	}
	if totalCompiles != 1 {
		t.Errorf("3 spellings of one query compiled %d times fleet-wide, want 1", totalCompiles)
	}

	// Distinct queries spread: constants are part of the canonical text.
	for k := 2; k <= 17; k++ {
		expr := fmt.Sprintf("sum x, y . [E(x,y)] * w(x,y) * %d", k)
		if out, code := postJSON(t, f.URL()+"/query", map[string]any{"expr": expr}); code != http.StatusOK {
			t.Fatalf("query %d: %d %v", k, code, out)
		}
	}
	spread := 0
	for i := 0; i < 3; i++ {
		if f.Replica(i).StatsSnapshot().Compiles > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("17 distinct queries compiled on %d replica(s), want ≥ 2", spread)
	}
}

// TestMergedStatsEqualsSum: the fleet /stats "fleet" document equals the
// field-wise sum of the per-replica snapshots it was merged from.
func TestMergedStatsEqualsSum(t *testing.T) {
	f := startFleet(t, 3)

	for k := 1; k <= 9; k++ {
		expr := fmt.Sprintf("sum x, y . [E(x,y)] * w(x,y) * %d", k)
		for rep := 0; rep < 2; rep++ {
			if out, code := postJSON(t, f.URL()+"/query", map[string]any{"expr": expr}); code != http.StatusOK {
				t.Fatalf("query: %d %v", code, out)
			}
		}
	}
	if _, code := postJSON(t, f.URL()+"/session", map[string]any{"name": "ms", "expr": edgeSum, "dynamic": []string{"E"}}); code != http.StatusOK {
		t.Fatal("session create failed")
	}
	if _, code := postJSON(t, f.URL()+"/batch", map[string]any{
		"session": "ms",
		"updates": []map[string]any{{"weight": "w", "tuple": []int{0, 1}, "value": 3}},
	}); code != http.StatusOK {
		t.Fatal("batch failed")
	}

	resp, err := http.Get(f.URL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.ReplicaErrors) > 0 {
		t.Fatalf("scrape errors: %v", fs.ReplicaErrors)
	}
	if len(fs.Replicas) != 3 {
		t.Fatalf("merged over %d replicas, want 3", len(fs.Replicas))
	}

	var sum server.StatsSnapshot
	for _, snap := range fs.Replicas {
		sum.Queries += snap.Queries
		sum.Points += snap.Points
		sum.Sessions += snap.Sessions
		sum.Batches += snap.Batches
		sum.BatchedUpdates += snap.BatchedUpdates
		sum.Compiles += snap.Compiles
		sum.CacheHits += snap.CacheHits
		sum.CacheMisses += snap.CacheMisses
		sum.Errors += snap.Errors
		sum.CachedQueries += snap.CachedQueries
		sum.CacheBytes += snap.CacheBytes
		sum.Databases += snap.Databases
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"queries", fs.Fleet.Queries, sum.Queries},
		{"points", fs.Fleet.Points, sum.Points},
		{"sessions", fs.Fleet.Sessions, sum.Sessions},
		{"batches", fs.Fleet.Batches, sum.Batches},
		{"batchedUpdates", fs.Fleet.BatchedUpdates, sum.BatchedUpdates},
		{"compiles", fs.Fleet.Compiles, sum.Compiles},
		{"cacheHits", fs.Fleet.CacheHits, sum.CacheHits},
		{"cacheMisses", fs.Fleet.CacheMisses, sum.CacheMisses},
		{"errors", fs.Fleet.Errors, sum.Errors},
		{"cachedQueries", int64(fs.Fleet.CachedQueries), int64(sum.CachedQueries)},
		{"cacheBytes", fs.Fleet.CacheBytes, sum.CacheBytes},
		{"databases", int64(fs.Fleet.Databases), int64(sum.Databases)},
	} {
		if c.got != c.want {
			t.Errorf("fleet.%s = %d, want per-replica sum %d", c.name, c.got, c.want)
		}
	}
	if fs.Fleet.Queries != 18 {
		t.Errorf("fleet.queries = %d, want 18", fs.Fleet.Queries)
	}
	if fs.Fleet.Sessions != 1 {
		t.Errorf("fleet.sessions = %d, want 1", fs.Fleet.Sessions)
	}
	if epoch, ok := fs.Fleet.SessionEpochs["ms"]; !ok || epoch == 0 {
		t.Errorf("fleet sessionEpochs missing session ms (got %v)", fs.Fleet.SessionEpochs)
	}
	if fs.Router.Replicas != 3 || fs.Router.Live != 3 {
		t.Errorf("router state %d/%d, want 3/3 live", fs.Router.Live, fs.Router.Replicas)
	}
	if fs.Router.Proxied == 0 {
		t.Error("router proxied counter is zero after traffic")
	}
}

// metricLine matches one Prometheus text-format sample.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ` +
	`([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|\+Inf|NaN)$`)

// scrapeMetrics fetches a /metrics exposition, asserts every sample line
// parses, and returns the line → value map.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestFleetMetricsMerge: the fleet /metrics exposition parses, and every
// histogram bucket of the merged aggserve_request_duration_seconds family
// equals the sum of the corresponding per-replica buckets.
func TestFleetMetricsMerge(t *testing.T) {
	f := startFleet(t, 3)

	for k := 1; k <= 12; k++ {
		expr := fmt.Sprintf("sum x, y . [E(x,y)] * w(x,y) * %d", k)
		if out, code := postJSON(t, f.URL()+"/query", map[string]any{"expr": expr}); code != http.StatusOK {
			t.Fatalf("query: %d %v", code, out)
		}
	}

	fleetSamples := scrapeMetrics(t, f.URL())
	replicaSamples := make([]map[string]float64, 3)
	for i := range replicaSamples {
		replicaSamples[i] = scrapeMetrics(t, f.ReplicaURL(i))
	}

	// Every aggserve_ bucket/count/sum line of the fleet exposition must be
	// the per-replica sum (replica expositions contain the same lines).
	checked := 0
	for line, fleetV := range fleetSamples {
		if !strings.HasPrefix(line, "aggserve_request_duration_seconds") &&
			!strings.HasPrefix(line, "aggserve_stage_duration_seconds_bucket") {
			continue
		}
		if strings.Contains(line, "_sum") {
			continue // float seconds: summing replica floats re-orders additions
		}
		var sum float64
		for _, rs := range replicaSamples {
			sum += rs[line]
		}
		if fleetV != sum {
			t.Errorf("%s = %v on the fleet, want per-replica sum %v", line, fleetV, sum)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d histogram lines compared; exposition shape changed?", checked)
	}

	// Counter agreement and router families present.
	var queries float64
	for i := 0; i < 3; i++ {
		queries += float64(f.Replica(i).StatsSnapshot().Queries)
	}
	if got := fleetSamples[`aggserve_requests_total{endpoint="query"}`]; got != queries {
		t.Errorf("fleet aggserve_requests_total{query} = %v, want %v", got, queries)
	}
	if got := fleetSamples["aggfleet_replicas_live"]; got != 3 {
		t.Errorf("aggfleet_replicas_live = %v, want 3", got)
	}
	upLines := 0
	for line, v := range fleetSamples {
		if strings.HasPrefix(line, "aggfleet_replica_up{") {
			upLines++
			if v != 1 {
				t.Errorf("%s = %v, want 1", line, v)
			}
		}
	}
	if upLines != 3 {
		t.Errorf("aggfleet_replica_up lines = %d, want 3", upLines)
	}
}

// TestErrorTaxonomyThroughRouter: replica error responses survive the hop
// byte-for-byte — same status, same machine-readable code — and match what
// the replica answers directly.
func TestErrorTaxonomyThroughRouter(t *testing.T) {
	f := startFleet(t, 3)

	cases := []struct {
		name string
		url  string
		body map[string]any
		want int
	}{
		{"parse error", "/query", map[string]any{"expr": "sum x , ["}, http.StatusBadRequest},
		{"unknown database", "/query", map[string]any{"expr": edgeSum, "db": "nope"}, http.StatusNotFound},
		{"unknown session", "/point", map[string]any{"session": "ghost"}, http.StatusNotFound},
		{"unknown semiring", "/query", map[string]any{"expr": edgeSum, "semiring": "imaginary"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		viaRouter, code := postJSON(t, f.URL()+tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s via router: status %d, want %d", tc.name, code, tc.want)
		}
		if viaRouter["code"] == "" || viaRouter["code"] == nil {
			t.Errorf("%s via router: missing taxonomy code in %v", tc.name, viaRouter)
			continue
		}
		direct, directStatus := postJSON(t, f.ReplicaURL(0)+tc.url, tc.body)
		if directStatus != code || direct["code"] != viaRouter["code"] {
			t.Errorf("%s: router (%d, %v) differs from direct replica (%d, %v)",
				tc.name, code, viaRouter["code"], directStatus, direct["code"])
		}
	}
}

// TestEnumerateStreamsThroughRouter: the NDJSON stream passes through the
// proxy — content type, per-line framing and the final summary line intact.
func TestEnumerateStreamsThroughRouter(t *testing.T) {
	f := startFleet(t, 2)

	resp, err := http.Get(f.URL() + "/enumerate?phi=E(x,y)&vars=x,y&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q did not survive the hop", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 6 {
		t.Fatalf("streamed %d lines, want 5 answers + summary", len(lines))
	}
	last := lines[len(lines)-1]
	if last["done"] != true {
		t.Errorf("missing summary line, got %v", last)
	}
	if last["streamed"] != float64(5) {
		t.Errorf("summary streamed = %v, want 5", last["streamed"])
	}
}

// nextStreamLine reads the next non-heartbeat NDJSON object from a live
// stream, failing the test if the stream ends first.
func nextStreamLine(t *testing.T, sc *bufio.Scanner) map[string]any {
	t.Helper()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if m["heartbeat"] == true {
			continue
		}
		return m
	}
	t.Fatalf("stream ended early: %v", sc.Err())
	return nil
}

// TestSubscribeLiveThroughRouter: a /subscribe stream through the router
// lands on the session's ring owner, pushes each committed epoch through
// the proxy while the connection stays open (per-chunk flush — the update
// arrives long before the response completes), and a client disconnect
// propagates back to the replica, which cancels the subscription and
// drains its subscriber gauge.
func TestSubscribeLiveThroughRouter(t *testing.T) {
	f := startFleet(t, 3)

	if out, code := postJSON(t, f.URL()+"/session", map[string]any{
		"name": "live", "expr": edgeSum, "dynamic": []string{"E"},
	}); code != http.StatusOK {
		t.Fatalf("creating session: %d %v", code, out)
	}
	owner := f.Router.OwnerOf(SessionShardKey("live"))

	resp, err := http.Get(f.URL() + "/subscribe?session=live&mode=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q did not survive the hop", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	first := nextStreamLine(t, sc)
	if first["epoch"] != float64(0) || first["value"] == nil {
		t.Fatalf("initial push = %v, want epoch-0 value", first)
	}

	// Commit an epoch while the stream is open; the push must flow through
	// the still-streaming proxied response.
	if out, code := postJSON(t, f.URL()+"/update", map[string]any{
		"session": "live",
		"updates": []map[string]any{{"rel": "E", "tuple": []int{0, 1}, "present": false}},
	}); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	next := nextStreamLine(t, sc)
	if next["epoch"] != float64(1) {
		t.Fatalf("live push = %v, want epoch 1", next)
	}

	// Sticky: the subscription lives on the ring owner and nowhere else.
	for i := 0; i < 3; i++ {
		st := f.Replica(i).StatsSnapshot()
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := st.Subscriptions; got != want {
			t.Errorf("replica %d subscriptions = %d, want %d", i, got, want)
		}
	}

	// Disconnect: the replica notices the canceled proxy hop, counts it,
	// and the subscriber gauge drains.
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Replica(owner).StatsSnapshot()
		if st.Canceled >= 1 && st.Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never observed the disconnect: canceled=%d subscribers=%d",
				st.Canceled, st.Subscribers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeKillOwnerMidStream: killing the replica that owns an open
// /subscribe stream must surface as a clean end-of-stream on the client —
// never a hang.
func TestSubscribeKillOwnerMidStream(t *testing.T) {
	f := startFleet(t, 3)

	if out, code := postJSON(t, f.URL()+"/session", map[string]any{
		"name": "doomed", "expr": edgeSum, "dynamic": []string{"E"},
	}); code != http.StatusOK {
		t.Fatalf("creating session: %d %v", code, out)
	}
	owner := f.Router.OwnerOf(SessionShardKey("doomed"))

	resp, err := http.Get(f.URL() + "/subscribe?session=doomed&mode=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	nextStreamLine(t, sc) // initial snapshot arrived; the stream is live

	f.KillReplica(owner)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
		}
		// Any terminal outcome is acceptable — EOF or a transport error —
		// as long as the stream ends.
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("subscribe stream hung after its owner was killed")
	}
}

// TestIngestThroughRouter: /ingest streams the request body through the
// router without buffering, so acks flow back to the client while it is
// still producing changes (full duplex across the hop).  The final state
// is unchanged — every removal is paired with a re-insert — and the
// owner's ingest counters account for every line.
func TestIngestThroughRouter(t *testing.T) {
	f := startFleet(t, 3)

	if out, code := postJSON(t, f.URL()+"/session", map[string]any{
		"name": "feed", "expr": edgeSum, "dynamic": []string{"E"},
	}); code != http.StatusOK {
		t.Fatalf("creating session: %d %v", code, out)
	}
	owner := f.Router.OwnerOf(SessionShardKey("feed"))
	base, code := postJSON(t, f.URL()+"/point", map[string]any{"session": "feed"})
	if code != http.StatusOK {
		t.Fatalf("baseline point: %d %v", code, base)
	}

	pr, pwr := io.Pipe()
	req, err := http.NewRequest("POST", f.URL()+"/ingest?session=feed&wave=2&ack=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *http.Response
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		resCh <- result{resp, err}
	}()

	write := func(lines string) {
		t.Helper()
		if _, err := io.WriteString(pwr, lines); err != nil {
			t.Fatalf("writing changes: %v", err)
		}
	}
	// Wave 1: remove an edge and put it back.
	write(`{"rel":"E","tuple":[0,1],"present":false}` + "\n" +
		`{"rel":"E","tuple":[0,1]}` + "\n")
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", res.resp.StatusCode)
	}
	sc := bufio.NewScanner(res.resp.Body)
	ack := nextStreamLine(t, sc)
	if ack["applied"] != float64(2) || ack["epoch"] != float64(1) {
		t.Fatalf("first ack = %v, want applied=2 epoch=1", ack)
	}

	// Wave 2, written only after the first ack came back through the hop.
	write(`{"rel":"E","tuple":[1,2],"present":false}` + "\n" +
		`{"rel":"E","tuple":[1,2]}` + "\n")
	ack = nextStreamLine(t, sc)
	if ack["applied"] != float64(4) || ack["epoch"] != float64(2) {
		t.Fatalf("second ack = %v, want applied=4 epoch=2", ack)
	}

	pwr.Close()
	fin := nextStreamLine(t, sc)
	if fin["done"] != true || fin["applied"] != float64(4) {
		t.Fatalf("final line = %v, want done applied=4", fin)
	}

	after, code := postJSON(t, f.URL()+"/point", map[string]any{"session": "feed"})
	if code != http.StatusOK {
		t.Fatalf("point after ingest: %d %v", code, after)
	}
	if after["value"] != base["value"] {
		t.Errorf("value drifted %v -> %v despite paired remove/re-insert", base["value"], after["value"])
	}

	st := f.Replica(owner).StatsSnapshot()
	if st.Ingests != 1 || st.IngestedChanges != 4 || st.IngestWaves != 2 {
		t.Errorf("owner ingest counters = %d/%d/%d, want 1 ingest, 4 changes, 2 waves",
			st.Ingests, st.IngestedChanges, st.IngestWaves)
	}
}

// TestOversizedBodyIs413AtTheRouter: the router reads a buffered route's body
// whole to find its shard key, so it applies the replicas' bound itself.
func TestOversizedBodyIs413AtTheRouter(t *testing.T) {
	f := startFleet(t, 2)
	body := `{"expr":"` + strings.Repeat("x", server.MaxBodyBytes+1-len(`{"expr":"`))
	resp, err := http.Post(f.URL()+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var out server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding the refusal: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || out.Code != "invalid_argument" {
		t.Fatalf("%d-byte body: status %d code %q (%s), want 413 invalid_argument", len(body), resp.StatusCode, out.Code, out.Error)
	}
}
