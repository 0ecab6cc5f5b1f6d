package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/agg"
	"repro/internal/obs"
	"repro/internal/server"
)

// Options configures a Router.
type Options struct {
	// Replicas lists the base URLs of the aggserve replicas to route across
	// (e.g. "http://10.0.0.1:8080").  The URL doubles as the replica's ring
	// identifier, so keep it stable across router restarts.
	Replicas []string
	// HealthInterval is the period of the /healthz probe loop (≤ 0 selects
	// 1s).
	HealthInterval time.Duration
	// Logger receives mark-down/mark-up transitions and proxy errors.  Nil
	// discards them.
	Logger *slog.Logger
}

const (
	// replicaTimeout bounds one replica's share of a fan-out — a /healthz
	// probe round or a fleet-wide /stats or /metrics: a slow or dead replica
	// costs at most this long and is reported, never waited on indefinitely.
	replicaTimeout = 2 * time.Second
	// idleConnsPerReplica sizes the shared keep-alive proxy client: each busy
	// replica keeps a warm connection pool so the proxy hop does not pay a
	// TCP handshake per request.
	idleConnsPerReplica = 32
)

// replica is the router's view of one aggserve process: its ring identity,
// liveness, and the gauges the health probe reports.
type replica struct {
	id   string
	base *url.URL

	up atomic.Bool
	// downMu orders mark-ups against mark-downs: downGen counts the markDown
	// calls, and a probe marks the replica up only if none happened since the
	// probe started — a /healthz answer that was already in flight when the
	// replica died must not undo the mark-down a failed proxy attempt made.
	downMu  sync.Mutex
	downGen uint64

	proxied       atomic.Int64
	probes        atomic.Int64
	probeFailures atomic.Int64
	markDowns     atomic.Int64
	markUps       atomic.Int64
	sessions      atomic.Int64 // last readiness probe's session count
	cacheEntries  atomic.Int64 // last readiness probe's compiled-cache size
	lastErr       atomic.Value // string: last probe or proxy error
}

func (rep *replica) setErr(err error) {
	if err != nil {
		rep.lastErr.Store(err.Error())
	}
}

// ReplicaState is a point-in-time snapshot of one replica's router-side
// state, exported on the fleet /stats and /metrics and used by tests.
type ReplicaState struct {
	ID            string `json:"id"`
	Up            bool   `json:"up"`
	Proxied       int64  `json:"proxied"`
	Probes        int64  `json:"probes"`
	ProbeFailures int64  `json:"probeFailures"`
	MarkDowns     int64  `json:"markDowns"`
	MarkUps       int64  `json:"markUps"`
	Sessions      int64  `json:"sessions"`
	CacheEntries  int64  `json:"cacheEntries"`
	LastError     string `json:"lastError,omitempty"`
}

// Router consistent-hashes aggserve requests across a replica fleet.  Create
// one with New, serve Handler(), and Close it to stop the health probes.
// All methods are safe for concurrent use.
type Router struct {
	opts     Options
	ring     *Ring
	replicas []*replica
	client   *http.Client
	log      *slog.Logger
	start    time.Time

	reroutes    atomic.Int64 // proxy attempts moved to another replica after a dial failure
	unavailable atomic.Int64 // requests answered 503: no live replica
	gateway     atomic.Int64 // requests answered 502: replica unreachable mid-exchange

	hist map[string]*obs.Histogram // router-side end-to-end latency per endpoint

	stop chan struct{}
	done sync.WaitGroup
}

// New builds a router over the given replicas and starts its health-probe
// loop.  Replicas start marked up — routing works before the first probe
// completes — and the first probe round fires immediately.
func New(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one replica URL")
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = time.Second
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}

	replicas := make([]*replica, len(opts.Replicas))
	ids := make([]string, len(opts.Replicas))
	for i, raw := range opts.Replicas {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %q: %w", raw, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: replica %q: need an absolute URL like http://host:port", raw)
		}
		id := strings.TrimSuffix(u.String(), "/")
		replicas[i] = &replica{id: id, base: u}
		replicas[i].up.Store(true)
		ids[i] = id
	}
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}

	rt := &Router{
		opts:     opts,
		ring:     ring,
		replicas: replicas,
		log:      log,
		start:    time.Now(),
		hist:     map[string]*obs.Histogram{},
		stop:     make(chan struct{}),
		client: &http.Client{
			// One shared keep-alive transport: every proxied request and
			// fan-out probe reuses warm connections to the replicas.
			Transport: &http.Transport{
				MaxIdleConns:        4 * idleConnsPerReplica,
				MaxIdleConnsPerHost: idleConnsPerReplica,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, ro := range routes {
		if rt.hist[ro.endpoint] == nil {
			rt.hist[ro.endpoint] = obs.NewHistogram()
		}
	}

	rt.done.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health-probe loop and drops the idle proxy connections.
// In-flight proxied requests are not interrupted.
func (rt *Router) Close() {
	close(rt.stop)
	rt.done.Wait()
	rt.client.CloseIdleConnections()
}

// ReplicaStates snapshots every replica's router-side state, in ring order.
func (rt *Router) ReplicaStates() []ReplicaState {
	out := make([]ReplicaState, len(rt.replicas))
	for i, rep := range rt.replicas {
		st := ReplicaState{
			ID:            rep.id,
			Up:            rep.up.Load(),
			Proxied:       rep.proxied.Load(),
			Probes:        rep.probes.Load(),
			ProbeFailures: rep.probeFailures.Load(),
			MarkDowns:     rep.markDowns.Load(),
			MarkUps:       rep.markUps.Load(),
			Sessions:      rep.sessions.Load(),
			CacheEntries:  rep.cacheEntries.Load(),
		}
		if e, ok := rep.lastErr.Load().(string); ok {
			st.LastError = e
		}
		out[i] = st
	}
	return out
}

// OwnerOf returns the index of the replica that owns the given shard key
// with the full fleet live (tests use it to find which replica to kill).
func (rt *Router) OwnerOf(key string) int { return rt.ring.Lookup(key) }

// QueryShardKey is the shard key of a /query-style request; exported so
// tests and benchmarks can predict placements.  It mirrors the replica's
// compiled-query cache key: database, canonical expression, semiring and
// the dynamic-relations option, with the replica-side defaults applied so
// equivalent requests agree.  An expression that fails to canonicalize
// hashes as raw text — the owning replica then reports the parse error with
// its usual taxonomy.
func QueryShardKey(db, expr, semiring string, dynamic []string) string {
	if db == "" {
		db = "default"
	}
	if semiring == "" {
		semiring = "natural"
	}
	canon, err := agg.Canonicalize(expr)
	if err != nil {
		canon = expr
	}
	dyn := append([]string(nil), dynamic...)
	sort.Strings(dyn)
	return strings.Join([]string{"q", db, canon, semiring, strings.Join(dyn, ",")}, "\x00")
}

// FormulaShardKey is the shard key of an /enumerate-style request: database,
// canonical formula and answer variables.
func FormulaShardKey(db, phi string, vars []string) string {
	if db == "" {
		db = "default"
	}
	canon, err := agg.CanonicalizeFormula(phi)
	if err != nil {
		canon = phi
	}
	return strings.Join([]string{"e", db, canon, strings.Join(vars, ",")}, "\x00")
}

// SessionShardKey is the shard key of a named session: every request naming
// the session — create, point, update, batch, delete — routes to the same
// replica, where its MVCC state lives.
func SessionShardKey(name string) string { return "s\x00" + name }

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

// bodyMode says what a route does with the request body.
type bodyMode uint8

const (
	// bodyNone: the shard key is in the URL query and nothing is forwarded.
	bodyNone bodyMode = iota
	// bodyBuffered: a small JSON document that names the shard key, so it is
	// read whole (up to server.MaxBodyBytes) before a replica can be picked,
	// and replayed on a reroute.
	bodyBuffered
	// bodyStreamed: an unbounded NDJSON feed passed through full-duplex and
	// never buffered; the shard key is in the URL query.
	bodyStreamed
)

// shardFields are the request fields a shard key is built from, decoded once
// per request: from the JSON body of a bodyBuffered route, from the URL query
// otherwise.
type shardFields struct {
	Name     string   `json:"name"` // POST and DELETE /session name the session "name"
	Session  string   `json:"session"`
	DB       string   `json:"db"`
	Expr     string   `json:"expr"`
	Phi      string   `json:"phi"`
	Semiring string   `json:"semiring"`
	Dynamic  []string `json:"dynamic"`
	Vars     []string `json:"-"` // only ever a comma-separated query parameter
}

func queryFields(q url.Values) shardFields {
	return shardFields{
		Name: q.Get("name"), Session: q.Get("session"), DB: q.Get("db"), Expr: q.Get("expr"),
		Phi: q.Get("phi"), Semiring: q.Get("semiring"), Vars: server.SplitList(q.Get("vars")),
	}
}

// route declares one proxied endpoint.  replayable marks a pure read (MVCC
// snapshots and cached Programs, no replica state changes; a /subscribe
// reconnect replays nothing the client cannot reconcile via Last-Event-ID),
// which forward may send again after any transport failure.
type route struct {
	method, path, endpoint string
	body                   bodyMode
	replayable             bool
	key                    func(shardFields) string
}

// routes is every proxied endpoint; Handler registers from it and the
// router-side latency histograms are one per distinct endpoint.  Session
// routes are sticky: every request naming a session lands where its MVCC
// state lives.
var routes = []route{
	{"POST", "/query", "query", bodyBuffered, true, queryKey},
	{"POST", "/session", "session", bodyBuffered, false, sessionKey},
	{"DELETE", "/session", "session", bodyNone, false, sessionKey},
	{"POST", "/point", "point", bodyBuffered, true, pointKey},
	{"POST", "/update", "update", bodyBuffered, false, sessionKey},
	{"POST", "/batch", "batch", bodyBuffered, false, sessionKey},
	{"GET", "/enumerate", "enumerate", bodyNone, true, formulaKey},
	{"GET", "/subscribe", "subscribe", bodyNone, true, sessionKey},
	{"POST", "/ingest", "ingest", bodyStreamed, false, sessionKey},
	{"GET", "/analyze", "analyze", bodyNone, true, analyzeKey},
}

func sessionKey(f shardFields) string {
	if f.Session != "" {
		return SessionShardKey(f.Session)
	}
	return SessionShardKey(f.Name)
}

func queryKey(f shardFields) string {
	return QueryShardKey(f.DB, f.Expr, f.Semiring, f.Dynamic)
}

// pointKey: a point read goes to its session, or else to the compiled query
// (which the replica prepares without dynamic relations).
func pointKey(f shardFields) string {
	if f.Session != "" {
		return SessionShardKey(f.Session)
	}
	return QueryShardKey(f.DB, f.Expr, f.Semiring, nil)
}

func formulaKey(f shardFields) string { return FormulaShardKey(f.DB, f.Phi, f.Vars) }

// analyzeKey mirrors the replica's /analyze preparation split: with vars it
// analyses the enumeration program (formula key), otherwise the query
// program — so the report lands on the replica already holding that
// compiled Program.
func analyzeKey(f shardFields) string {
	expr := f.Expr
	if expr == "" {
		expr = f.Phi
	}
	if len(f.Vars) > 0 {
		return FormulaShardKey(f.DB, expr, f.Vars)
	}
	return QueryShardKey(f.DB, expr, f.Semiring, nil)
}

// Handler returns the router's HTTP handler.  It serves the same API as a
// single aggserve replica: every entry of routes proxies to the replica
// owning the request's shard key; /stats and /metrics fan out to every
// replica and merge; /healthz reports the router's own readiness.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for i := range routes {
		mux.HandleFunc(routes[i].method+" "+routes[i].path, rt.serve(&routes[i]))
	}
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// serve binds one route into its handler: decode the shard fields, pick the
// key, forward, and record the router-side end-to-end latency.
func (rt *Router) serve(ro *route) http.HandlerFunc {
	hist := rt.hist[ro.endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { hist.Observe(time.Since(start)) }()
		var f shardFields
		var buffered []byte
		if ro.body == bodyBuffered {
			var err error
			if buffered, err = io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)); err != nil {
				status, code := http.StatusBadRequest, "bad_request"
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					status, code = http.StatusRequestEntityTooLarge, "invalid_argument"
				}
				writeError(w, status, code, fmt.Sprintf("reading request body: %v", err))
				return
			}
			// A body that fails to decode still forwards (hashed as empty
			// fields): the owning replica produces the canonical 400 with the
			// taxonomy code.
			_ = json.Unmarshal(buffered, &f)
		} else {
			f = queryFields(r.URL.Query())
		}
		rt.forward(w, r, ro, ro.key(f), buffered)
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := rt.routerStats().Live
	h := struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
		Replicas      int     `json:"replicas"`
		Live          int     `json:"live"`
	}{"ok", time.Since(rt.start).Seconds(), len(rt.replicas), live}
	w.Header().Set("Content-Type", "application/json")
	switch {
	case live == 0:
		h.Status = "down"
		w.WriteHeader(http.StatusServiceUnavailable)
	case live < len(rt.replicas):
		h.Status = "degraded"
	}
	_ = json.NewEncoder(w).Encode(h)
}

// writeError emits a router-originated error in the replicas' JSON error
// shape, so clients see one taxonomy whether the hop or the replica failed.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: msg, Code: code})
}

// forward proxies the request to the live replica owning key, streaming the
// response through (NDJSON lines and pushed updates flush as they arrive).
// The outgoing request carries the client's context, so a disconnect cancels
// the replica-side work; replica errors pass through verbatim — status code
// and JSON body with its taxonomy code survive the hop.
//
// Fail-over policy: a failed exchange is safe to send again when nothing
// reached the replica (a dial-level failure, so even an update cannot
// double-apply) or the route is replayable — which covers the killed-replica
// case where a pooled keep-alive connection dies with EOF instead of a dial
// error.  A safe failure marks the replica down at once, without waiting for
// the next probe, and reroutes to the next live owner.  Anything else — a
// mutating exchange the replica may have acted on, or a streamed body, which
// the transport closes with the failed attempt — surfaces as a 502; the
// waves a replica already acked to an /ingest stay committed, and the client
// resumes from its last epoch checkpoint.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, ro *route, key string, buffered []byte) {
	if ro.body == bodyStreamed {
		// Acks stream back while the change feed is still being read, so the
		// router's own connection must be full-duplex too.
		_ = http.NewResponseController(w).EnableFullDuplex()
	}
	tried := make(map[int]bool)
	for {
		idx, ok := rt.ring.LookupLive(key, func(i int) bool {
			return !tried[i] && rt.replicas[i].up.Load()
		})
		if !ok {
			rt.unavailable.Add(1)
			writeError(w, http.StatusServiceUnavailable, "unavailable", "no live replica for this key")
			return
		}
		rep := rt.replicas[idx]

		target := *rep.base
		target.Path = strings.TrimSuffix(target.Path, "/") + r.URL.Path
		target.RawQuery = r.URL.RawQuery
		var body io.Reader
		switch {
		case ro.body == bodyStreamed:
			body = r.Body
		case len(buffered) > 0:
			body = bytes.NewReader(buffered)
		}
		out, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), body)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		copyHeaders(out.Header, r.Header)

		resp, err := rt.client.Do(out)
		if err != nil {
			if r.Context().Err() != nil {
				return // the client is gone; nothing to write
			}
			rep.setErr(err)
			var opErr *net.OpError
			safe := ro.replayable || (errors.As(err, &opErr) && opErr.Op == "dial")
			if safe {
				rt.markDown(rep, "proxy failed", err)
			}
			if safe && ro.body != bodyStreamed {
				tried[idx] = true
				rt.reroutes.Add(1)
				continue
			}
			rt.gateway.Add(1)
			writeError(w, http.StatusBadGateway, "unreachable", fmt.Sprintf("replica %s: %v", rep.id, err))
			return
		}
		defer resp.Body.Close()
		rep.proxied.Add(1)

		copyHeaders(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		flushCopy(w, resp.Body)
		return
	}
}

// hopHeaders are never copied across the proxy hop (RFC 9110 §7.6.1).
var hopHeaders = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true, "Proxy-Authorization": true,
	"Te": true, "Trailer": true, "Transfer-Encoding": true, "Upgrade": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopHeaders[k] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// copyBufs recycles flushCopy's chunk buffers across proxied responses; a
// fresh 32 KB buffer per request was most of what the router allocated.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32*1024); return &b }}

// flushCopy streams src to w, flushing after every chunk so NDJSON lines
// reach the client as the replica emits them instead of pooling in the
// router's buffers.  w does not keep the chunk it is handed, so the buffer
// goes back to the pool when the copy ends.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away mid-stream
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Health probes
// ---------------------------------------------------------------------------

// healthLoop probes every replica each HealthInterval.  A probe hits the
// replica's readiness endpoint (GET /healthz), requiring both a 200 and
// status "ok" in the body — a replica that is listening but not serving is
// down for routing purposes.  Probes also refresh the per-replica session
// and cache-entry gauges the fleet /metrics exports.
func (rt *Router) healthLoop() {
	defer rt.done.Done()
	rt.each(rt.probe) // immediate first round: recover marked-down replicas fast
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.each(rt.probe)
		}
	}
}

func (rt *Router) probe(ctx context.Context, _ int, rep *replica) {
	rep.probes.Add(1)
	rep.downMu.Lock()
	gen := rep.downGen
	rep.downMu.Unlock()
	var h server.Health
	err := rt.getJSON(ctx, rep, "/healthz", &h)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("GET /healthz: status %q", h.Status)
	}
	if err != nil {
		rep.probeFailures.Add(1)
		rep.setErr(err)
		rt.markDown(rep, "probe failed", err)
		return
	}
	rep.sessions.Store(int64(h.Sessions))
	rep.cacheEntries.Store(int64(h.CacheEntries))
	rep.downMu.Lock()
	markedUp := rep.downGen == gen && rep.up.CompareAndSwap(false, true)
	rep.downMu.Unlock()
	if markedUp {
		rep.markUps.Add(1)
		rt.log.Info("replica marked up", "replica", rep.id)
	}
}

// markDown flips the replica to down, invalidating every probe in flight,
// and logs the transition.
func (rt *Router) markDown(rep *replica, why string, err error) {
	rep.downMu.Lock()
	rep.downGen++
	markedDown := rep.up.CompareAndSwap(true, false)
	rep.downMu.Unlock()
	if markedDown {
		rep.markDowns.Add(1)
		rt.log.Warn("replica marked down ("+why+")", "replica", rep.id, "err", err)
	}
}
