package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRouteTable pins, for every entry of routes, where its shard key comes
// from, what happens to its body and whether it may be replayed.  A route
// added to the table without a case here fails the test.
func TestRouteTable(t *testing.T) {
	const q = "sum x . [V(x)] * u(x)"
	cases := map[string]struct {
		fields     shardFields // as decoded from the body or the query
		wantKey    string
		body       bodyMode
		replayable bool
	}{
		"POST /query":     {shardFields{DB: "g", Expr: q, Semiring: "minplus", Dynamic: []string{"V"}}, QueryShardKey("g", q, "minplus", []string{"V"}), bodyBuffered, true},
		"POST /session":   {shardFields{Name: "s1", Expr: q}, SessionShardKey("s1"), bodyBuffered, false},
		"DELETE /session": {shardFields{Name: "s1"}, SessionShardKey("s1"), bodyNone, false},
		"POST /point":     {shardFields{Session: "s1", Expr: q}, SessionShardKey("s1"), bodyBuffered, true},
		"POST /update":    {shardFields{Session: "s1"}, SessionShardKey("s1"), bodyBuffered, false},
		"POST /batch":     {shardFields{Session: "s1"}, SessionShardKey("s1"), bodyBuffered, false},
		"GET /enumerate":  {shardFields{DB: "g", Phi: "E(x,y)", Vars: []string{"x", "y"}}, FormulaShardKey("g", "E(x,y)", []string{"x", "y"}), bodyNone, true},
		"GET /subscribe":  {shardFields{Session: "s1"}, SessionShardKey("s1"), bodyNone, true},
		"POST /ingest":    {shardFields{Session: "s1"}, SessionShardKey("s1"), bodyStreamed, false},
		"GET /analyze":    {shardFields{DB: "g", Phi: "E(x,y)", Vars: []string{"x"}}, FormulaShardKey("g", "E(x,y)", []string{"x"}), bodyNone, true},
	}
	for _, ro := range routes {
		name := ro.method + " " + ro.path
		c, ok := cases[name]
		if !ok {
			t.Errorf("route %s has no case in this test", name)
			continue
		}
		delete(cases, name)
		if got := ro.key(c.fields); got != c.wantKey {
			t.Errorf("%s: shard key %q, want %q", name, got, c.wantKey)
		}
		if ro.body != c.body || ro.replayable != c.replayable {
			t.Errorf("%s: body mode %d replayable %v, want %d %v", name, ro.body, ro.replayable, c.body, c.replayable)
		}
	}
	for name := range cases {
		t.Errorf("test case %s matches no route", name)
	}

	// The variants a route's key function chooses between.
	if got, want := pointKey(shardFields{DB: "g", Expr: q, Dynamic: []string{"V"}}), QueryShardKey("g", q, "", nil); got != want {
		t.Errorf("sessionless /point: key %q, want the compiled query's %q", got, want)
	}
	if got, want := analyzeKey(shardFields{DB: "g", Expr: q, Semiring: "minplus"}), QueryShardKey("g", q, "minplus", nil); got != want {
		t.Errorf("/analyze without vars: key %q, want the compiled query's %q", got, want)
	}

	// Both decodings of one request agree.
	var fromBody shardFields
	if err := json.Unmarshal([]byte(`{"name":"n","session":"s","db":"g","expr":"e","phi":"p","semiring":"r","updates":[1]}`), &fromBody); err != nil {
		t.Fatal(err)
	}
	fromQuery := queryFields(url.Values{"name": {"n"}, "session": {"s"}, "db": {"g"}, "expr": {"e"}, "phi": {"p"}, "semiring": {"r"}})
	if sessionKey(fromBody) != sessionKey(fromQuery) || queryKey(fromBody) != queryKey(fromQuery) {
		t.Errorf("body fields %+v and query fields %+v route differently", fromBody, fromQuery)
	}
}

// TestForwardRetriesOnlyWhatIsSafe: when the owning replica accepts the
// connection and then drops it without answering, a replayable route reroutes
// to the next replica, a mutating buffered route and a streamed route answer
// 502 and reach no second replica.
func TestForwardRetriesOnlyWhatIsSafe(t *testing.T) {
	healthz := func(w http.ResponseWriter) { _, _ = io.WriteString(w, `{"status":"ok"}`) }
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			healthz(w)
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close() // mid-exchange: the request arrived, no response will
		}
	}))
	defer flaky.Close()
	var served atomic.Int64
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			healthz(w)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		served.Add(1)
		_, _ = io.WriteString(w, `{}`)
	}))
	defer good.Close()

	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
		wantRerouted       bool
	}{
		{"POST", "/point", `{"session":"%s"}`, http.StatusOK, true},
		{"GET", "/subscribe?session=%s", "", http.StatusOK, true},
		{"POST", "/update", `{"session":"%s"}`, http.StatusBadGateway, false},
		{"POST", "/ingest?session=%s", `{"weight":"w","tuple":[0],"value":1}` + "\n", http.StatusBadGateway, false},
	} {
		// A fresh router per case: a reroute marks the flaky replica down.
		rt, err := New(Options{Replicas: []string{flaky.URL, good.URL}, HealthInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt.Handler())
		session := ""
		for i := 0; session == ""; i++ { // a session the flaky replica owns
			if name := "s" + string(rune('a'+i)); rt.OwnerOf(SessionShardKey(name)) == 0 {
				session = name
			}
		}
		served.Store(0)
		req, err := http.NewRequest(tc.method, front.URL+strings.Replace(tc.path, "%s", session, 1),
			strings.NewReader(strings.Replace(tc.body, "%s", session, 1)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		reached := served.Load() // before the /stats fan-out scrapes the replicas
		var stats FleetStats
		get, err := http.Get(front.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(get.Body).Decode(&stats)
		get.Body.Close()

		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if rerouted := reached == 1 && stats.Router.Reroutes == 1; rerouted != tc.wantRerouted {
			t.Errorf("%s %s: second replica served %d, reroutes %d, gateway errors %d; want rerouted = %v",
				tc.method, tc.path, reached, stats.Router.Reroutes, stats.Router.GatewayErrors, tc.wantRerouted)
		}
		if !tc.wantRerouted && (reached != 0 || stats.Router.GatewayErrors != 1) {
			t.Errorf("%s %s: second replica served %d, gateway errors %d; want 0 and 1",
				tc.method, tc.path, reached, stats.Router.GatewayErrors)
		}
		front.Close()
		rt.Close()
	}
}

// TestStaleProbeSuccessDoesNotUndoMarkDown holds a /healthz answer in flight
// across a mark-down, the way a probe that started just before a replica died
// overlaps the failed proxy attempt that notices the death: the late 200 must
// leave the replica down, and only a probe started after the mark-down may
// mark it up again.
func TestStaleProbeSuccessDoesNotUndoMarkDown(t *testing.T) {
	var hold atomic.Bool
	first, arrived, release := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hold.Load() {
			arrived <- struct{}{}
			<-release
		}
		_, _ = io.WriteString(w, `{"status":"ok"}`)
		select {
		case first <- struct{}{}:
		default:
		}
	}))
	defer srv.Close()
	rt, err := New(Options{Replicas: []string{srv.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rep := rt.replicas[0]
	ctx := context.Background()
	<-first // the health loop's opening probe is out of the way

	hold.Store(true)
	stale := make(chan struct{})
	go func() {
		defer close(stale)
		rt.probe(ctx, 0, rep)
	}()
	<-arrived // the probe's GET is at the replica
	rt.markDown(rep, "proxy failed", errors.New("dial failure"))
	hold.Store(false)
	close(release)
	<-stale
	if rep.up.Load() {
		t.Fatal("a probe answered after the mark-down marked the replica up again")
	}

	rt.probe(ctx, 0, rep)
	if st := rt.ReplicaStates()[0]; !st.Up || st.MarkDowns != 1 || st.MarkUps != 1 {
		t.Fatalf("after a later probe: up=%v markDowns=%d markUps=%d, want up, 1, 1", st.Up, st.MarkDowns, st.MarkUps)
	}
}

// TestCopyHeadersLeavesSourceIntact: hop-by-hop headers are skipped, not
// deleted from the message they came from.
func TestCopyHeadersLeavesSourceIntact(t *testing.T) {
	src := http.Header{"Connection": {"keep-alive"}, "Te": {"trailers"}, "Content-Type": {"application/json"}}
	dst := http.Header{}
	copyHeaders(dst, src)
	if len(dst) != 1 || dst.Get("Content-Type") != "application/json" {
		t.Errorf("copied %v, want only Content-Type", dst)
	}
	if src.Get("Connection") == "" || src.Get("Te") == "" {
		t.Errorf("copyHeaders mutated its source: %v", src)
	}
}

// TestReadmeNamesEveryRouterFamily keeps the README's fleet metrics list
// checked against the router's declaration tables.
func TestReadmeNamesEveryRouterFamily(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]obs.Metric{}, routerMetrics...), replicaMetrics...) {
		if !strings.Contains(string(readme), "`"+m.Family) {
			t.Errorf("README.md does not name the %s family", m.Family)
		}
	}
}
