package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/agg"
)

// subscribeLine mirrors the NDJSON / SSE-data wire shape of /subscribe.
type subscribeLine struct {
	Epoch     uint64  `json:"epoch"`
	Kind      string  `json:"kind"`
	Value     string  `json:"value"`
	Count     int64   `json:"count"`
	Reset     bool    `json:"reset"`
	Answers   [][]int `json:"answers"`
	Added     [][]int `json:"added"`
	Removed   [][]int `json:"removed"`
	Coalesced uint64  `json:"coalesced"`
	Heartbeat bool    `json:"heartbeat"`
	Done      bool    `json:"done"`
	Streamed  int     `json:"streamed"`
}

// nextLine reads NDJSON lines until one that is not a heartbeat.
func nextLine(t *testing.T, sc *bufio.Scanner) subscribeLine {
	t.Helper()
	for sc.Scan() {
		var l subscribeLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if l.Heartbeat {
			continue
		}
		return l
	}
	t.Fatalf("stream ended early: %v", sc.Err())
	return subscribeLine{}
}

func mustBatch(t *testing.T, url, session string, updates []map[string]any) {
	t.Helper()
	resp, code := postJSON(t, url+"/batch", map[string]any{"session": session, "updates": updates})
	if code != http.StatusOK {
		t.Fatalf("/batch failed: %v", resp)
	}
}

// TestSubscribeNDJSONStream covers the default NDJSON mode end to end: an
// initial snapshot at the current epoch, one pushed update per committed
// batch, a terminal summary under limit, and the push counters.
func TestSubscribeNDJSONStream(t *testing.T) {
	srv, ts, db := newTestServer(t, 6)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "live", "expr": edgeSum, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	base, code := postJSON(t, ts.URL+"/point", map[string]any{"session": "live", "args": []int{}})
	if code != http.StatusOK {
		t.Fatalf("baseline point: %v", base)
	}

	resp, err := http.Get(ts.URL + "/subscribe?session=live&limit=3")
	if err != nil {
		t.Fatalf("GET /subscribe: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	initial := nextLine(t, sc)
	if initial.Epoch != 0 || initial.Kind != "value" || initial.Value != base["value"] {
		t.Fatalf("initial update = %+v, want epoch 0 with value %v", initial, base["value"])
	}

	edges := db.A.Tuples("E")
	mustBatch(t, ts.URL, "live", []map[string]any{{"weight": "w", "tuple": edges[0], "value": 100}})
	first := nextLine(t, sc)
	if first.Epoch == 0 || first.Value == initial.Value {
		t.Fatalf("after batch: %+v, want new epoch and value", first)
	}
	mustBatch(t, ts.URL, "live", []map[string]any{{"weight": "w", "tuple": edges[1], "value": 200}})
	second := nextLine(t, sc)
	if second.Epoch <= first.Epoch {
		t.Fatalf("epochs not monotone: %d then %d", first.Epoch, second.Epoch)
	}

	done := nextLine(t, sc)
	if !done.Done || done.Streamed != 3 || done.Epoch != second.Epoch {
		t.Fatalf("summary = %+v, want done with 3 streamed at epoch %d", done, second.Epoch)
	}

	if got := srv.StatsSnapshot().Subscriptions; got != 1 {
		t.Errorf("subscriptions = %d, want 1", got)
	}
	if got := srv.StatsSnapshot().Pushes; got != 3 {
		t.Errorf("pushes = %d, want 3", got)
	}
	waitFor(t, "subscriber gauge to drain", func() bool { return srv.StatsSnapshot().Subscribers == 0 })

	// The new families surface on /stats and /metrics.
	var snap StatsSnapshot
	get(t, ts.URL+"/stats", &snap)
	if snap.Subscriptions != 1 || snap.Pushes != 3 {
		t.Errorf("/stats = subscriptions %d pushes %d, want 1 and 3", snap.Subscriptions, snap.Pushes)
	}
	body := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`aggserve_requests_total{endpoint="subscribe"} 1`,
		"aggserve_push_latency_seconds_count",
		"aggserve_subscribers_active 0",
		"aggserve_pushes_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSubscribeSSEResume covers the SSE framing and Last-Event-ID resume: a
// client that reconnects declaring the epoch it already holds gets no
// replayed snapshot, only the next commit.
func TestSubscribeSSEResume(t *testing.T) {
	_, ts, db := newTestServer(t, 6)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "sse", "expr": edgeSum, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	edges := db.A.Tuples("E")

	// First connection: SSE framing of the initial snapshot.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/subscribe?session=sse&mode=sse&limit=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /subscribe: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	frames := readSSE(t, resp.Body, 2)
	resp.Body.Close()
	if frames[0].event != "update" || frames[0].id != "0" {
		t.Fatalf("first frame = %+v, want update with id 0", frames[0])
	}
	var ev subscribeLine
	if err := json.Unmarshal([]byte(frames[0].data), &ev); err != nil {
		t.Fatalf("bad SSE data %q: %v", frames[0].data, err)
	}
	if ev.Epoch != 0 || ev.Value == "" {
		t.Fatalf("initial SSE update = %+v", ev)
	}
	if frames[1].event != "done" {
		t.Fatalf("second frame = %+v, want done", frames[1])
	}

	mustBatch(t, ts.URL, "sse", []map[string]any{{"weight": "w", "tuple": edges[0], "value": 50}})

	// Reconnect declaring epoch 1: nothing is owed until the next commit.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/subscribe?session=sse&mode=sse&limit=1", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("resumed GET /subscribe: %v", err)
	}
	defer resp.Body.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		raw, _ := json.Marshal(map[string]any{"session": "sse", "updates": []map[string]any{
			{"weight": "w", "tuple": edges[1], "value": 60},
		}})
		r, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(raw))
		if err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
	}()
	frames = readSSE(t, resp.Body, 1)
	if err := json.Unmarshal([]byte(frames[0].data), &ev); err != nil {
		t.Fatalf("bad resumed SSE data %q: %v", frames[0].data, err)
	}
	if ev.Epoch != 2 {
		t.Fatalf("resumed stream delivered epoch %d, want 2 (no replayed snapshot)", ev.Epoch)
	}
}

// TestSubscribeCountAndDelta drives the enumerable kinds over HTTP: count
// tracks tuple membership, delta starts with a reset and then streams net
// added/removed tuples.
func TestSubscribeCountAndDelta(t *testing.T) {
	_, ts, db := newTestServer(t, 5)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "dyn", "expr": "E(x,y) & S(x)", "semiring": "natural", "dynamic": []string{"E"},
	}); code != http.StatusOK {
		t.Fatalf("creating dynamic session: %v", resp)
	}

	openStream := func(kind string, limit int) (*http.Response, *bufio.Scanner) {
		t.Helper()
		url := fmt.Sprintf("%s/subscribe?session=dyn&kind=%s&limit=%d", ts.URL, kind, limit)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET /subscribe kind=%s: %v", kind, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("kind=%s: status %d: %s", kind, resp.StatusCode, body)
		}
		return resp, bufio.NewScanner(resp.Body)
	}

	_, counts := openStream("count", 2)
	_, deltas := openStream("delta", 2)
	c0 := nextLine(t, counts)
	d0 := nextLine(t, deltas)
	if !d0.Reset || int64(len(d0.Answers)) != c0.Count {
		t.Fatalf("delta reset %+v does not carry the %d answers counted by %+v", d0, c0.Count, c0)
	}

	// Remove an edge whose source is marked: that answer disappears, so the
	// count drops by one and the delta streams exactly that removal.
	var victim []int
	for _, e := range db.A.Tuples("E") {
		if db.A.HasTuple("S", e[0]) {
			victim = []int{e[0], e[1]}
			break
		}
	}
	if victim == nil {
		t.Fatal("grid has no edge out of a marked vertex")
	}
	mustBatch(t, ts.URL, "dyn", []map[string]any{{"rel": "E", "tuple": victim, "present": false}})

	c1 := nextLine(t, counts)
	d1 := nextLine(t, deltas)
	if d1.Reset {
		t.Fatalf("second delta is a reset: %+v", d1)
	}
	if c1.Count != c0.Count-1 {
		t.Fatalf("count moved %d -> %d, want -1", c0.Count, c1.Count)
	}
	if len(d1.Added) != 0 || len(d1.Removed) != 1 ||
		d1.Removed[0][0] != victim[0] || d1.Removed[0][1] != victim[1] {
		t.Fatalf("delta = %+v, want exactly removed %v", d1, victim)
	}
}

// TestSubscribeCountOfNoAnswers: a count update carries its count even when
// the query has no answers, while the other kinds keep their lines without
// one.  The lines are decoded into maps, so a missing key is not read as 0.
func TestSubscribeCountOfNoAnswers(t *testing.T) {
	_, ts, _ := newTestServer(t, 4)
	for name, expr := range map[string]string{"none": "S(x) & !S(x)", "value": edgeSum} {
		if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
			"name": name, "expr": expr, "semiring": "natural",
		}); code != http.StatusOK {
			t.Fatalf("creating session %s: %v", name, resp)
		}
	}
	first := func(query string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/subscribe?" + query + "&limit=1")
		if err != nil {
			t.Fatalf("GET /subscribe?%s: %v", query, err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		if !sc.Scan() {
			t.Fatalf("/subscribe?%s: no line: %v", query, sc.Err())
		}
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("/subscribe?%s: bad line %q: %v", query, sc.Text(), err)
		}
		return line
	}
	if line := first("session=none&kind=count"); line["count"] != 0.0 {
		t.Errorf("count update of a query with no answers = %v, want a count of 0", line)
	}
	if line := first("session=value"); line["kind"] != "value" || line["count"] != nil {
		t.Errorf("value update = %v, want no count", line)
	}
}

// TestSubscribeDisconnectCancels verifies a client hanging up tears down the
// server-side subscription: the canceled counter moves and the subscriber
// gauge drains while the session keeps taking writes.
func TestSubscribeDisconnectCancels(t *testing.T) {
	srv, ts, db := newTestServer(t, 6)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "gone", "expr": edgeSum, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	resp, err := http.Get(ts.URL + "/subscribe?session=gone")
	if err != nil {
		t.Fatalf("GET /subscribe: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	nextLine(t, sc) // initial snapshot: the stream is live
	waitFor(t, "subscriber gauge to rise", func() bool { return srv.StatsSnapshot().Subscribers == 1 })
	resp.Body.Close()

	waitFor(t, "canceled counter after disconnect", func() bool { return srv.StatsSnapshot().Canceled >= 1 })
	waitFor(t, "subscriber gauge to drain", func() bool { return srv.StatsSnapshot().Subscribers == 0 })

	// The writer path is unaffected.
	mustBatch(t, ts.URL, "gone", []map[string]any{{"weight": "w", "tuple": db.A.Tuples("E")[0], "value": 9}})
}

// TestSubscribeErrors covers the 4xx surface of /subscribe.
func TestSubscribeErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, 4)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "v", "expr": edgeSum, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"session=ghost", http.StatusNotFound},
		{"session=v&kind=nope", http.StatusBadRequest},
		{"session=v&kind=count", http.StatusBadRequest}, // expression query: not enumerable
		{"session=v&from=abc", http.StatusBadRequest},
		{"session=v&mode=websocket", http.StatusBadRequest},
		{"session=v&heartbeat=fast", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/subscribe?" + tc.query)
		if err != nil {
			t.Fatalf("GET /subscribe?%s: %v", tc.query, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("?%s: status %d, want %d (%s)", tc.query, resp.StatusCode, tc.code, body)
		}
	}
}

// TestIngestStream covers POST /ingest: NDJSON changes are applied as
// coalesced waves, acks stream monotone epochs, the summary reports the
// totals, and the final state agrees with the equivalent /batch.
func TestIngestStream(t *testing.T) {
	srv, ts, db := newTestServer(t, 8)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "cdc", "expr": edgeSum, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}

	edges := db.A.Tuples("E")
	var body bytes.Buffer
	var want int64
	for i, e := range edges {
		v := int64(10 + i%5)
		want += v
		fmt.Fprintf(&body, `{"weight":"w","tuple":[%d,%d],"value":%d}`+"\n", e[0], e[1], v)
	}
	const wave = 16
	resp, err := http.Post(ts.URL+fmt.Sprintf("/ingest?session=cdc&wave=%d", wave), "application/x-ndjson", &body)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: status %d", resp.StatusCode)
	}

	var acks []struct {
		Applied int64  `json:"applied"`
		Waves   int64  `json:"waves"`
		Epoch   uint64 `json:"epoch"`
		Done    bool   `json:"done"`
		Error   string `json:"error"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var a struct {
			Applied int64  `json:"applied"`
			Waves   int64  `json:"waves"`
			Epoch   uint64 `json:"epoch"`
			Done    bool   `json:"done"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad ack line %q: %v", sc.Text(), err)
		}
		acks = append(acks, a)
	}
	if len(acks) == 0 {
		t.Fatal("no acks streamed")
	}
	final := acks[len(acks)-1]
	if !final.Done || final.Error != "" {
		t.Fatalf("final ack = %+v, want clean done", final)
	}
	if final.Applied != int64(len(edges)) {
		t.Errorf("applied = %d, want %d", final.Applied, len(edges))
	}
	wantWaves := int64((len(edges) + wave - 1) / wave)
	if final.Waves != wantWaves {
		t.Errorf("waves = %d, want %d", final.Waves, wantWaves)
	}
	// Each wave is one committed epoch: acks carry a strictly monotone
	// checkpoint sequence ending at the session's epoch.
	for i := 1; i < len(acks); i++ {
		if acks[i].Epoch < acks[i-1].Epoch || acks[i].Applied < acks[i-1].Applied {
			t.Fatalf("acks not monotone: %+v then %+v", acks[i-1], acks[i])
		}
	}
	h, err := srv.Session("cdc")
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != h.Epoch() {
		t.Errorf("final ack epoch %d != session epoch %d", final.Epoch, h.Epoch())
	}

	// The ingested weights land exactly: the closed edge sum is the oracle.
	point, code := postJSON(t, ts.URL+"/point", map[string]any{"session": "cdc", "args": []int{}})
	if code != http.StatusOK {
		t.Fatalf("final point: %v", point)
	}
	if point["value"] != fmt.Sprint(want) {
		t.Errorf("after ingest: value %v, want %d", point["value"], want)
	}

	if got := srv.StatsSnapshot().Ingests; got != 1 {
		t.Errorf("ingests = %d, want 1", got)
	}
	if got := srv.StatsSnapshot().IngestedChanges; got != int64(len(edges)) {
		t.Errorf("ingestedChanges = %d, want %d", got, len(edges))
	}
	if got := srv.StatsSnapshot().IngestWaves; got != wantWaves {
		t.Errorf("ingestWaves = %d, want %d", got, wantWaves)
	}
}

// TestIngestBadLine: a malformed line stops the stream after the waves
// already committed, and the terminal line carries the failing line number.
func TestIngestBadLine(t *testing.T) {
	srv, ts, db := newTestServer(t, 5)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "bad", "expr": edgeSum, "semiring": "natural",
	}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	e := db.A.Tuples("E")[0]
	body := fmt.Sprintf(`{"weight":"w","tuple":[%d,%d],"value":7}`+"\n", e[0], e[1]) +
		"this is not json\n"
	resp, err := http.Post(ts.URL+"/ingest?session=bad&wave=1", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last struct {
		Applied int64  `json:"applied"`
		Error   string `json:"error"`
		Code    string `json:"code"`
		AtLine  int64  `json:"atLine"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad terminal line %q: %v", lines[len(lines)-1], err)
	}
	if last.Error == "" || last.Code != "invalid_argument" || last.AtLine != 2 {
		t.Fatalf("terminal line = %+v, want invalid_argument at line 2", last)
	}
	if last.Applied != 1 {
		t.Errorf("applied = %d, want the 1 committed wave", last.Applied)
	}
	if got := srv.StatsSnapshot().Ingests; got != 0 {
		t.Errorf("failed ingest counted as completed (%d)", got)
	}
	// Unknown sessions fail before any body is consumed.
	resp2, err := http.Post(ts.URL+"/ingest?session=ghost", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest ghost: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp2.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func get(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSE parses n non-comment frames off an SSE stream.
func readSSE(t *testing.T, r io.Reader, n int) []sseFrame {
	t.Helper()
	sc := bufio.NewScanner(r)
	var frames []sseFrame
	var cur sseFrame
	for sc.Scan() && len(frames) < n {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data += strings.TrimPrefix(line, "data: ")
		}
	}
	if len(frames) < n {
		t.Fatalf("SSE stream ended after %d frames, want %d (err: %v)", len(frames), n, sc.Err())
	}
	return frames
}

// hubEvaluators counts the live-hub evaluator goroutines in the process.
func hubEvaluators() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "live.(*Hub).run")
}

// TestDeleteSessionClosesIt: DELETE /session closes the session, not just
// its registry entry — an open /subscribe stream ends with a session_closed
// error event instead of heartbeating forever, the subscriber gauge drains,
// the hub's evaluator goroutine exits, and a request still holding the
// handle answers 404 like any request that comes after.
func TestDeleteSessionClosesIt(t *testing.T) {
	srv, ts, _ := newTestServer(t, 6)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{"name": "gone", "expr": edgeSum}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	h, err := srv.Session("gone")
	if err != nil {
		t.Fatal(err)
	}
	before := hubEvaluators()

	resp, err := http.Get(ts.URL + "/subscribe?session=gone&mode=ndjson&heartbeat=100ms")
	if err != nil {
		t.Fatalf("GET /subscribe: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	nextLine(t, sc) // the initial snapshot: the stream is live
	if got := hubEvaluators(); got != before+1 {
		t.Fatalf("%d hub evaluators with one open subscription, want %d", got, before+1)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session?name=gone", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil || del.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /session: %v %v", err, del)
	}
	del.Body.Close()

	// The stream must end by itself, with the error event as its last line.
	last := make(chan map[string]any, 1)
	go func() {
		var line map[string]any
		for sc.Scan() {
			var l map[string]any
			if json.Unmarshal(sc.Bytes(), &l) == nil && l["heartbeat"] != true {
				line = l
			}
		}
		last <- line
	}()
	select {
	case line := <-last:
		if line["code"] != "session_closed" {
			t.Errorf("stream ended with %v, want an error event with code session_closed", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/subscribe stream still open 5s after its session was deleted")
	}
	waitFor(t, "subscriber gauge to drain", func() bool { return srv.StatsSnapshot().Subscribers == 0 })
	waitFor(t, "hub evaluator to exit", func() bool { return hubEvaluators() == before })

	if _, err := h.Eval(context.Background()); statusOf(err) != http.StatusNotFound || agg.ErrorCode(err) != "session_closed" {
		t.Errorf("Eval on the deleted session's handle: %v (status %d), want session_closed as a 404", err, statusOf(err))
	}
	if out, code := postJSON(t, ts.URL+"/point", map[string]any{"session": "gone"}); code != http.StatusNotFound {
		t.Errorf("/point after delete: %d %v, want 404", code, out)
	}
}

// TestServerCloseEndsStreams: Close closes every registered session, so a
// graceful HTTP shutdown is not left waiting on open /subscribe streams.
func TestServerCloseEndsStreams(t *testing.T) {
	srv, ts, _ := newTestServer(t, 6)
	for _, name := range []string{"a", "b"} {
		if resp, code := postJSON(t, ts.URL+"/session", map[string]any{"name": name, "expr": edgeSum}); code != http.StatusOK {
			t.Fatalf("creating session: %v", resp)
		}
	}
	resp, err := http.Get(ts.URL + "/subscribe?session=a&mode=ndjson")
	if err != nil {
		t.Fatalf("GET /subscribe: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	nextLine(t, sc)

	srv.Close()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		for sc.Scan() {
		}
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("/subscribe stream still open 5s after Server.Close")
	}
	if n := len(srv.StatsSnapshot().SessionEpochs); n != 0 {
		t.Errorf("%d sessions still registered after Close", n)
	}
}

// TestServerCloseLeavesNoGoroutines: Server.Close with an SSE stream open
// ends the stream's handler, its iterator goroutine and the session's hub.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	srv, ts, _ := newTestServer(t, 6)
	getText(t, ts.URL+"/stats") // the default client's keep-alive connection is part of the baseline
	base := runtime.NumGoroutine()
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{"name": "a", "expr": edgeSum}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/subscribe?session=a&mode=sse&heartbeat=100ms")
	if err != nil {
		t.Fatalf("GET /subscribe: %v", err)
	}
	readSSE(t, resp.Body, 1) // returns on the line after the frame: the first heartbeat
	if n := runtime.NumGoroutine(); n < base+3 {
		t.Fatalf("%d goroutines with an SSE stream open, baseline %d", n, base)
	}

	srv.Close()
	io.Copy(io.Discard, resp.Body) // ends by itself: the error event, then EOF
	resp.Body.Close()
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 2s after Server.Close, baseline %d", runtime.NumGoroutine(), base)
		}
	}
}
