package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/agg"
	"repro/internal/workload"
)

// newTestServer mounts a grid workload as "default" and returns the server,
// its HTTP frontend, and the raw workload for oracle computations.
func newTestServer(t *testing.T, n int) (*Server, *httptest.Server, *workload.Database) {
	t.Helper()
	db := workload.Grid(n, n, 7)
	srv := New(Options{CacheSize: 32})
	srv.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, db
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

const edgeSum = "sum x, y . [E(x,y)] * w(x,y)"

// TestCacheHitSkipsCompilation is acceptance criterion 1: a repeated /query
// leaves the compile counter unchanged and reports cached=true.
func TestCacheHitSkipsCompilation(t *testing.T) {
	srv, ts, _ := newTestServer(t, 6)

	first, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "natural"})
	if code != http.StatusOK {
		t.Fatalf("first query failed: %v", first)
	}
	if first["cached"] != false {
		t.Errorf("first query reported cached=%v, want false", first["cached"])
	}
	if got := srv.StatsSnapshot().Compiles; got != 1 {
		t.Fatalf("after first query: %d compiles, want 1", got)
	}

	second, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "natural"})
	if code != http.StatusOK {
		t.Fatalf("second query failed: %v", second)
	}
	if second["cached"] != true {
		t.Errorf("second query reported cached=%v, want true", second["cached"])
	}
	if got := srv.StatsSnapshot().Compiles; got != 1 {
		t.Errorf("cache hit recompiled: %d compiles, want 1", got)
	}
	if second["value"] != first["value"] {
		t.Errorf("cached value %v differs from cold value %v", second["value"], first["value"])
	}
	if got := srv.StatsSnapshot().CacheHits; got != 1 {
		t.Errorf("cacheHits = %d, want 1", got)
	}

	// A different semiring is a different cache key.
	if _, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "boolean"}); code != http.StatusOK {
		t.Fatalf("boolean query failed")
	}
	if got := srv.StatsSnapshot().Compiles; got != 2 {
		t.Errorf("after boolean query: %d compiles, want 2", got)
	}
}

// TestStatsReportProgramBytes checks that /stats reports the per-entry and
// total resident Program bytes of the compiled-artefact cache.
func TestStatsReportProgramBytes(t *testing.T) {
	_, ts, _ := newTestServer(t, 6)

	getStats := func() StatsSnapshot {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatalf("GET /stats: %v", err)
		}
		defer resp.Body.Close()
		var snap StatsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decoding stats: %v", err)
		}
		return snap
	}

	if snap := getStats(); snap.CacheBytes != 0 || len(snap.CacheEntryBytes) != 0 {
		t.Fatalf("empty cache reports bytes %d entries %v", snap.CacheBytes, snap.CacheEntryBytes)
	}

	if _, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "natural"}); code != http.StatusOK {
		t.Fatalf("query failed")
	}
	snap := getStats()
	if len(snap.CacheEntryBytes) != 1 || snap.CacheEntryBytes[0] <= 0 {
		t.Fatalf("after one query: cacheEntryBytes = %v, want one positive entry", snap.CacheEntryBytes)
	}
	if snap.CacheBytes != snap.CacheEntryBytes[0] {
		t.Fatalf("cacheBytes %d does not equal the single entry %d", snap.CacheBytes, snap.CacheEntryBytes[0])
	}

	// A second distinct key adds a second entry and grows the total.
	if _, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "minplus"}); code != http.StatusOK {
		t.Fatalf("minplus query failed")
	}
	snap2 := getStats()
	if len(snap2.CacheEntryBytes) != 2 || snap2.CacheBytes <= snap.CacheBytes {
		t.Fatalf("after two queries: entries %v total %d (was %d)", snap2.CacheEntryBytes, snap2.CacheBytes, snap.CacheBytes)
	}
	var sum int64
	for _, b := range snap2.CacheEntryBytes {
		if b <= 0 {
			t.Fatalf("non-positive entry in %v", snap2.CacheEntryBytes)
		}
		sum += b
	}
	if sum != snap2.CacheBytes {
		t.Fatalf("cacheBytes %d != sum of entries %d", snap2.CacheBytes, sum)
	}
}

// TestConcurrentPointsAndUpdates is acceptance criterion 2: ≥8 concurrent
// clients mix /point and /update on one session, and the session's final
// point values agree with a sequential re-evaluation under the final
// weights.
func TestConcurrentPointsAndUpdates(t *testing.T) {
	srv, ts, db := newTestServer(t, 8)
	const sessionExpr = "sum y . [E(x,y)] * w(x,y)"

	resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "s", "expr": sessionExpr, "semiring": "natural",
	})
	if code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}

	edges := db.A.Tuples("E")
	const updaters, pointers = 6, 6 // 12 concurrent clients
	var wg sync.WaitGroup
	errs := make(chan error, updaters+pointers)

	// Each updater owns a disjoint slice of edges and sets deterministic
	// final values, so the final state is order-independent.
	finalValue := func(i int) int64 { return int64(1000 + i) }
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			var updates []map[string]any
			for i := u; i < len(edges); i += updaters {
				updates = append(updates, map[string]any{
					"weight": "w", "tuple": edges[i], "value": finalValue(i),
				})
			}
			// Split the batch in two so updates interleave with points.
			for _, batch := range [][]map[string]any{updates[:len(updates)/2], updates[len(updates)/2:]} {
				raw, _ := json.Marshal(map[string]any{"session": "s", "updates": batch})
				r, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("update batch: status %d", r.StatusCode)
					return
				}
			}
		}(u)
	}
	for p := 0; p < pointers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for x := p; x < db.A.N; x += pointers {
				raw, _ := json.Marshal(map[string]any{"session": "s", "args": []int{x}})
				r, err := http.Post(ts.URL+"/point", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("point %d: status %d", x, r.StatusCode)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Sequential oracle: a fresh facade compilation under the final weights.
	finalW := db.Weights()
	for i, e := range edges {
		finalW.Set("w", e, finalValue(i))
	}
	oracle, err := agg.Open(agg.FromStructure(db.A, finalW)).Prepare(context.Background(), sessionExpr)
	if err != nil {
		t.Fatalf("compiling oracle: %v", err)
	}
	for x := 0; x < db.A.N; x++ {
		got, code := postJSON(t, ts.URL+"/point", map[string]any{"session": "s", "args": []int{x}})
		if code != http.StatusOK {
			t.Fatalf("final point %d: %v", x, got)
		}
		want, err := oracle.Eval(context.Background(), x)
		if err != nil {
			t.Fatalf("oracle value at %d: %v", x, err)
		}
		if got["value"] != string(want) {
			t.Fatalf("point %d = %v after concurrent updates, sequential oracle says %s", x, got["value"], want)
		}
	}

	// The session and every point went through one compilation (the oracle
	// compiled outside the server).
	if got := srv.StatsSnapshot().Compiles; got != 1 {
		t.Errorf("session workload compiled %d times, want 1", got)
	}
}

// TestPointDuringInFlightBatch is the MVCC acceptance test at the HTTP
// layer: /point answers 200 from a snapshot of the last committed epoch
// while a /batch on the same session is mid-flight, instead of queueing
// behind it or failing 409.  The test holds the handle's update lock to pin
// the batch deterministically — exactly the state a long write wave is in.
func TestPointDuringInFlightBatch(t *testing.T) {
	srv, ts, db := newTestServer(t, 6)
	const sessionExpr = "sum y . [E(x,y)] * w(x,y)"
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "m", "expr": sessionExpr, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	h, err := srv.Session("m")
	if err != nil {
		t.Fatalf("resolving session: %v", err)
	}
	before, code := postJSON(t, ts.URL+"/point", map[string]any{"session": "m", "args": []int{0}})
	if code != http.StatusOK {
		t.Fatalf("baseline point: %v", before)
	}
	epochBefore := h.Epoch()

	h.mu.Lock() // the batch below blocks here, like a mid-flight write wave
	edges := db.A.Tuples("E")
	updates := make([]map[string]any, len(edges))
	for i, e := range edges {
		updates[i] = map[string]any{"weight": "w", "tuple": e, "value": 77}
	}
	batchStatus := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(map[string]any{"session": "m", "updates": updates})
		r, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			batchStatus <- -1
			return
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		batchStatus <- r.StatusCode
	}()

	// Points keep answering the pre-batch value while the write is in flight:
	// no queueing (the batch holds the update lock the whole time) and no 409.
	for i := 0; i < 10; i++ {
		got, code := postJSON(t, ts.URL+"/point", map[string]any{"session": "m", "args": []int{0}})
		if code != http.StatusOK {
			t.Fatalf("point during in-flight batch: status %d (%v)", code, got)
		}
		if got["value"] != before["value"] {
			t.Fatalf("point during in-flight batch = %v, want pre-batch value %v", got["value"], before["value"])
		}
	}
	select {
	case code := <-batchStatus:
		t.Fatalf("batch completed (status %d) while the update lock was held", code)
	default:
	}

	h.mu.Unlock()
	if code := <-batchStatus; code != http.StatusOK {
		t.Fatalf("released batch: status %d", code)
	}
	if got := srv.StatsSnapshot().Busy; got != 0 {
		t.Errorf("busy counter = %d after reads under write, want 0 (writer-writer conflicts only)", got)
	}
	if h.Epoch() <= epochBefore {
		t.Errorf("epoch did not advance past the batch: %d -> %d", epochBefore, h.Epoch())
	}

	// The MVCC gauges surface on /stats and /metrics.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	resp.Body.Close()
	if snap.SessionEpochs["m"] != h.Epoch() {
		t.Errorf("/stats sessionEpochs[m] = %d, want %d", snap.SessionEpochs["m"], h.Epoch())
	}
	if snap.SessionRetainedUndoBytes != 0 {
		t.Errorf("/stats sessionRetainedUndoBytes = %d with no open readers, want 0", snap.SessionRetainedUndoBytes)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf(`aggserve_session_epoch{session="m"} %d`, h.Epoch()),
		`aggserve_session_retained_undo_bytes{session="m"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEnumerateStreamsCorrectPrefix is acceptance criterion 3: /enumerate
// under a limit streams a prefix of the full enumeration, every answer
// satisfies the formula, and the summary line reports the true total.
func TestEnumerateStreamsCorrectPrefix(t *testing.T) {
	_, ts, db := newTestServer(t, 8)
	const phi = "E(x,y) & E(y,z) & !(x = z)"

	stream := func(limit int) (answers [][]int, total int64) {
		t.Helper()
		params := url.Values{"phi": {phi}, "vars": {"x,y,z"}, "limit": {fmt.Sprint(limit)}}
		resp, err := http.Get(ts.URL + "/enumerate?" + params.Encode())
		if err != nil {
			t.Fatalf("GET /enumerate: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /enumerate: status %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		done := false
		for sc.Scan() {
			var line struct {
				Answer []int `json:"answer"`
				Done   bool  `json:"done"`
				Total  int64 `json:"total"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if line.Done {
				done, total = true, line.Total
				break
			}
			answers = append(answers, line.Answer)
		}
		if !done {
			t.Fatalf("stream ended without a summary line")
		}
		return answers, total
	}

	const limit = 10
	prefix, total := stream(limit)
	if int64(limit) < total && len(prefix) != limit {
		t.Fatalf("streamed %d answers under limit %d (total %d)", len(prefix), limit, total)
	}
	seen := map[string]bool{}
	for _, a := range prefix {
		if len(a) != 3 {
			t.Fatalf("answer %v has arity %d, want 3", a, len(a))
		}
		x, y, z := a[0], a[1], a[2]
		if !db.A.HasTuple("E", x, y) || !db.A.HasTuple("E", y, z) || x == z {
			t.Errorf("streamed tuple %v does not satisfy %s", a, phi)
		}
		if seen[fmt.Sprint(a)] {
			t.Errorf("answer %v streamed twice", a)
		}
		seen[fmt.Sprint(a)] = true
	}

	// The same cached enumerator must yield the same prefix under a larger
	// limit, and the full stream must match the reported total.
	longer, total2 := stream(3 * limit)
	if total2 != total {
		t.Errorf("total changed between requests: %d vs %d", total, total2)
	}
	for i := range prefix {
		if !slices.Equal(prefix[i], longer[i]) {
			t.Errorf("limit=%d stream is not a prefix: position %d is %v vs %v", limit, i, prefix[i], longer[i])
		}
	}
	all, _ := stream(0)
	if int64(len(all)) != total {
		t.Errorf("unlimited stream yielded %d answers, summary says %d", len(all), total)
	}
}

// TestBatchEndpoint covers POST /batch: atomic application of a mixed batch
// in one propagation wave, the stats counters, all-or-nothing rejection of
// invalid batches, and agreement with a sequential oracle.
func TestBatchEndpoint(t *testing.T) {
	srv, ts, db := newTestServer(t, 6)
	const sessionExpr = "sum y . [E(x,y)] * w(x,y)"
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "b", "expr": sessionExpr, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}

	edges := db.A.Tuples("E")
	finalValue := func(i int) int64 { return int64(500 + i%7) }
	updates := make([]map[string]any, len(edges))
	for i, e := range edges {
		updates[i] = map[string]any{"weight": "w", "tuple": e, "value": finalValue(i)}
	}
	resp, code := postJSON(t, ts.URL+"/batch", map[string]any{"session": "b", "updates": updates})
	if code != http.StatusOK {
		t.Fatalf("/batch failed: %v", resp)
	}
	if got := resp["applied"]; got != float64(len(updates)) {
		t.Errorf("applied = %v, want %d", got, len(updates))
	}
	if got := srv.StatsSnapshot().Batches; got != 1 {
		t.Errorf("batches counter = %d, want 1", got)
	}
	if got := srv.StatsSnapshot().BatchedUpdates; got != int64(len(updates)) {
		t.Errorf("batchedUpdates counter = %d, want %d", got, len(updates))
	}

	// Sequential oracle under the final weights.
	finalW := db.Weights()
	for i, e := range edges {
		finalW.Set("w", e, finalValue(i))
	}
	oracle, err := agg.Open(agg.FromStructure(db.A, finalW)).Prepare(context.Background(), sessionExpr)
	if err != nil {
		t.Fatalf("compiling oracle: %v", err)
	}
	for x := 0; x < db.A.N; x += 3 {
		got, code := postJSON(t, ts.URL+"/point", map[string]any{"session": "b", "args": []int{x}})
		if code != http.StatusOK {
			t.Fatalf("point %d: %v", x, got)
		}
		want, err := oracle.Eval(context.Background(), x)
		if err != nil {
			t.Fatalf("oracle at %d: %v", x, err)
		}
		if got["value"] != string(want) {
			t.Fatalf("point %d = %v after /batch, oracle says %s", x, got["value"], want)
		}
	}

	// All-or-nothing: a batch with an invalid tail applies nothing.
	before, _ := postJSON(t, ts.URL+"/point", map[string]any{"session": "b", "args": []int{0}})
	bad := []map[string]any{
		{"weight": "w", "tuple": edges[0], "value": 99999},
		{"weight": "w", "rel": "E", "tuple": edges[0], "value": 1},
	}
	if resp, code := postJSON(t, ts.URL+"/batch", map[string]any{"session": "b", "updates": bad}); code != http.StatusBadRequest {
		t.Fatalf("invalid batch: status %d (%v)", code, resp)
	}
	bad[1] = map[string]any{"weight": "nope", "tuple": edges[0], "value": 1}
	if resp, code := postJSON(t, ts.URL+"/batch", map[string]any{"session": "b", "updates": bad}); code != http.StatusBadRequest {
		t.Fatalf("unknown-weight batch: status %d (%v)", code, resp)
	}
	after, _ := postJSON(t, ts.URL+"/point", map[string]any{"session": "b", "args": []int{0}})
	if after["value"] != before["value"] {
		t.Errorf("invalid batch partially applied: point 0 went from %v to %v", before["value"], after["value"])
	}
	if got := srv.StatsSnapshot().Batches; got != 1 {
		t.Errorf("failed batches were counted: batches = %d, want 1", got)
	}

	// Unknown sessions are 404s under the typed taxonomy.
	if resp, code := postJSON(t, ts.URL+"/batch", map[string]any{"session": "ghost", "updates": updates[:1]}); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d (%v)", code, resp)
	}
}

// TestErrorPaths covers the 4xx surface: statuses come from the typed agg
// taxonomy and every error body carries its machine-readable code.
func TestErrorPaths(t *testing.T) {
	_, ts, _ := newTestServer(t, 4)

	check := func(resp map[string]any, wantCode string) {
		t.Helper()
		if resp["code"] != wantCode {
			t.Errorf("error code = %v, want %q (%v)", resp["code"], wantCode, resp["error"])
		}
	}

	resp, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "nope"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown semiring: status %d (%v)", code, resp)
	}
	check(resp, "unknown_semiring")

	resp, code = postJSON(t, ts.URL+"/query", map[string]any{"expr": "sum x , . [E(x,y)]", "semiring": "natural"})
	if code != http.StatusBadRequest {
		t.Errorf("unparsable query: status %d (%v)", code, resp)
	}
	check(resp, "parse")

	resp, code = postJSON(t, ts.URL+"/query", map[string]any{"expr": "sum y . [E(x,y)] * w(x,y)", "semiring": "natural"})
	if code != http.StatusBadRequest || !strings.Contains(resp["error"].(string), "free variables") {
		t.Errorf("free-variable /query: status %d (%v)", code, resp)
	}
	check(resp, "invalid_argument")

	resp, code = postJSON(t, ts.URL+"/point", map[string]any{"session": "ghost", "args": []int{0}})
	if code != http.StatusNotFound {
		t.Errorf("unknown session: status %d (%v)", code, resp)
	}
	check(resp, "unknown_session")

	resp, code = postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "natural", "db": "nope"})
	if code != http.StatusNotFound {
		t.Errorf("unknown database: status %d (%v)", code, resp)
	}
	check(resp, "unknown_database")

	if _, code := postJSON(t, ts.URL+"/session", map[string]any{"name": "dup", "expr": edgeSum, "semiring": "natural"}); code != http.StatusOK {
		t.Fatalf("creating session failed")
	}
	resp, code = postJSON(t, ts.URL+"/session", map[string]any{"name": "dup", "expr": edgeSum, "semiring": "natural"})
	if code != http.StatusConflict {
		t.Errorf("duplicate session: status %d (%v)", code, resp)
	}
	check(resp, "session_exists")

	// Deleting frees the name; deleting twice is an unknown session.
	del := func() int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session?name=dup", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE /session: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := del(); code != http.StatusOK {
		t.Errorf("DELETE /session: status %d, want 200", code)
	}
	if code := del(); code != http.StatusNotFound {
		t.Errorf("second DELETE /session: status %d, want 404", code)
	}
	if _, code := postJSON(t, ts.URL+"/session", map[string]any{"name": "dup", "expr": edgeSum, "semiring": "natural"}); code != http.StatusOK {
		t.Errorf("recreating a deleted session should succeed")
	}

	// A failed compile must not poison the cache with a broken entry.
	resp, code = postJSON(t, ts.URL+"/query", map[string]any{"expr": "sum x . [Nope(x)] * u(x)", "semiring": "natural"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown relation should 400")
	}
	check(resp, "compile")
	if _, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum, "semiring": "natural"}); code != http.StatusOK {
		t.Errorf("valid query after failed compile should succeed")
	}

	// Update taxonomy: a bad update on a live session is invalid_update.
	resp, code = postJSON(t, ts.URL+"/update", map[string]any{
		"session": "dup",
		"updates": []map[string]any{{"weight": "nope", "tuple": []int{0}, "value": 1}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("unknown weight update: status %d (%v)", code, resp)
	}
	check(resp, "invalid_update")

	// A point query's parameter weight is the closure's, not the database's:
	// no update may name it.
	if _, code := postJSON(t, ts.URL+"/session", map[string]any{"name": "point", "expr": "sum y . [E(x,y)] * w(x,y)", "semiring": "natural"}); code != http.StatusOK {
		t.Fatalf("creating the point session failed")
	}
	resp, code = postJSON(t, ts.URL+"/update", map[string]any{
		"session": "point",
		"updates": []map[string]any{{"weight": ".fv:0", "tuple": []int{1}, "value": 1}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("parameter weight update: status %d (%v)", code, resp)
	}
	check(resp, "invalid_update")
}

// TestErrorTaxonomyRoundTrip checks errors.Is/As survive the HTTP layer as
// machine-readable JSON codes: the code served to the client is exactly
// agg.ErrorCode of the error the facade produced for the same request.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	_, ts, db := newTestServer(t, 4)
	eng := agg.Open(agg.FromStructure(db.A, db.Weights()))

	cases := []struct {
		name string
		expr string
		sem  string
	}{
		{"parse", "sum x , . [E(x,y)]", "natural"},
		{"compile", "sum x . [Nope(x)] * u(x)", "natural"},
		{"unknown semiring", edgeSum, "nope"},
	}
	for _, tc := range cases {
		_, facadeErr := eng.Prepare(context.Background(), tc.expr, agg.WithSemiring(tc.sem))
		if facadeErr == nil {
			t.Fatalf("%s: facade accepted %q", tc.name, tc.expr)
		}
		resp, _ := postJSON(t, ts.URL+"/query", map[string]any{"expr": tc.expr, "semiring": tc.sem})
		if want := agg.ErrorCode(facadeErr); resp["code"] != want {
			t.Errorf("%s: HTTP code %v, facade taxonomy says %q", tc.name, resp["code"], want)
		}
	}
}

// TestEnumerateClientDisconnect is the disconnect satellite: a client that
// walks away mid-stream aborts the enumeration (no summary line is
// produced) and increments the canceled counter.
func TestEnumerateClientDisconnect(t *testing.T) {
	db := workload.Grid(50, 50, 7)
	srv := New(Options{CacheSize: 8})
	srv.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	params := url.Values{"phi": {"E(x,y) & E(y,z) & !(x = z)"}, "vars": {"x,y,z"}, "limit": {"0"}}
	resp, err := http.Get(ts.URL + "/enumerate?" + params.Encode())
	if err != nil {
		t.Fatalf("GET /enumerate: %v", err)
	}
	// Read a few lines, then hang up mid-stream.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.StatsSnapshot().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never incremented after client disconnect (enumerations=%d)",
				srv.StatsSnapshot().Enumerations)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.StatsSnapshot().Enumerations; got != 0 {
		t.Errorf("aborted stream still counted as a completed enumeration (%d)", got)
	}

	// The server is healthy afterwards and the same (cached) enumeration
	// completes for a patient client.
	params.Set("limit", "5")
	resp2, err := http.Get(ts.URL + "/enumerate?" + params.Encode())
	if err != nil {
		t.Fatalf("second GET /enumerate: %v", err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if !bytes.Contains(body, []byte(`"done":true`)) {
		t.Errorf("follow-up stream missing summary line: %s", body)
	}
}

// TestLRUCacheEviction exercises the cache bound and the single-build
// guarantee under concurrency.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	builds := 0
	get := func(k string) {
		t.Helper()
		if _, _, err := c.getOrCreate(k, func() (any, error) { builds++; return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a
	get("c") // evicts b
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	get("b") // rebuilt
	if builds != 4 {
		t.Errorf("built %d times, want 4 (a, b, c, b-again)", builds)
	}

	// Concurrent cold hits share one build.
	c2 := newLRUCache(4)
	var wg sync.WaitGroup
	var built int32
	var mu sync.Mutex
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c2.getOrCreate("k", func() (any, error) {
				mu.Lock()
				built++
				mu.Unlock()
				return 1, nil
			})
		}()
	}
	wg.Wait()
	if built != 1 {
		t.Errorf("concurrent getOrCreate built %d times, want 1", built)
	}
}

// TestAnalyzeEndpoint covers GET /analyze in both preparation modes: like
// /query (expression, no vars) and like /enumerate (formula with vars), with
// reports flowing through the shared compilation cache.
func TestAnalyzeEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, 5)

	getAnalyze := func(params url.Values) (map[string]any, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/analyze?" + params.Encode())
		if err != nil {
			t.Fatalf("GET /analyze: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding /analyze response: %v", err)
		}
		return out, resp.StatusCode
	}

	// Expression mode: the report sizes the program but has no model count.
	out, code := getAnalyze(url.Values{"expr": {edgeSum}})
	if code != http.StatusOK {
		t.Fatalf("analyze expression failed: %v", out)
	}
	if g, ok := out["gates"].(float64); !ok || g <= 0 {
		t.Errorf("gates = %v, want > 0", out["gates"])
	}
	if out["decomposable"] != true {
		t.Errorf("edge sum not decomposable: %v", out["decomposabilityViolations"])
	}
	if _, has := out["modelCount"]; has {
		t.Errorf("expression-mode report has modelCount: %v", out["modelCount"])
	}

	// Formula mode with vars: model count equals the enumerate total.
	out, code = getAnalyze(url.Values{"expr": {"E(x,y) & S(x)"}, "vars": {"x,y"}})
	if code != http.StatusOK {
		t.Fatalf("analyze formula failed: %v", out)
	}
	mc, ok := out["modelCount"].(string)
	if !ok || mc == "" || mc == "0" {
		t.Fatalf("modelCount = %v, want positive count", out["modelCount"])
	}
	fact, ok := out["factorization"].(map[string]any)
	if !ok {
		t.Fatalf("factorization missing: %v", out)
	}
	if fact["arity"] != float64(2) {
		t.Errorf("factorization arity = %v, want 2", fact["arity"])
	}

	// The second identical request hits the compiled-query cache.
	out, _ = getAnalyze(url.Values{"expr": {edgeSum}})
	if out["cached"] != true {
		t.Errorf("repeated analyze reported cached=%v, want true", out["cached"])
	}
	if got := srv.StatsSnapshot().Analyzes; got != 3 {
		t.Errorf("Analyzes counter = %d, want 3", got)
	}

	// Errors keep the taxonomy: a parse failure is a 400-class response.
	out, code = getAnalyze(url.Values{"expr": {"sum x . [E(x,"}})
	if code == http.StatusOK {
		t.Fatalf("malformed query analysed successfully: %v", out)
	}
}

// TestOversizedBodyIs413: a JSON body one byte past MaxBodyBytes is refused
// as it is read, not buffered whole, and the refusal keeps the taxonomy.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts, _ := newTestServer(t, 4)
	body := `{"expr":"` + strings.Repeat("x", MaxBodyBytes+1-len(`{"expr":"`))
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var out ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding the refusal: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || out.Code != "invalid_argument" {
		t.Fatalf("%d-byte body: status %d code %q (%s), want 413 invalid_argument", len(body), resp.StatusCode, out.Code, out.Error)
	}
}
