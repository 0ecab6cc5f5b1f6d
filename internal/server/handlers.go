package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/agg"
	"repro/internal/obs"
)

// Handler returns the HTTP handler serving the aggserve API:
//
//	POST /query      evaluate a closed expression in a named semiring
//	POST /session    create a named dynamic-update session
//	POST /point      point query at a tuple of free variables
//	POST /update     apply weight/tuple updates to a session one at a time
//	POST /batch      apply a batch atomically with one propagation wave
//	GET  /enumerate  stream query answers as NDJSON with constant delay
//	GET  /subscribe  live push stream of re-evaluated results (SSE / NDJSON)
//	POST /ingest     stream NDJSON changes, applied as coalesced batch waves
//	GET  /stats      serving counters
//	GET  /metrics    Prometheus text exposition (counters, latency histograms)
//	GET  /metrics.json  raw mergeable metrics snapshot (fleet router scrape)
//	GET  /healthz    readiness probe (status, uptime, sessions, cache entries)
//
// Request contexts are honoured: a disconnected client cancels the
// evaluation or enumeration stream it was waiting for (counted in the
// "canceled" stat).  Errors carry a machine-readable "code" field drawn
// from the repro/agg error taxonomy.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.wrap("query", s.handleQuery))
	mux.HandleFunc("POST /session", s.wrap("session", s.handleSession))
	mux.HandleFunc("DELETE /session", s.wrap("session", s.handleDeleteSession))
	mux.HandleFunc("POST /point", s.wrap("point", s.handlePoint))
	mux.HandleFunc("POST /update", s.wrap("update", s.handleUpdate))
	mux.HandleFunc("POST /batch", s.wrap("batch", s.handleBatch))
	mux.HandleFunc("GET /enumerate", s.wrap("enumerate", s.handleEnumerate))
	mux.HandleFunc("GET /subscribe", s.wrap("subscribe", s.handleSubscribe))
	mux.HandleFunc("POST /ingest", s.wrap("ingest", s.handleIngest))
	mux.HandleFunc("GET /analyze", s.wrap("analyze", s.handleAnalyze))
	mux.HandleFunc("GET /stats", s.wrap("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// reqMeta accumulates the structured-log annotations of one request; handlers
// append through annotate and wrap flushes them into the access log.  One
// request is served by one goroutine, so no locking.
type reqMeta struct {
	attrs []slog.Attr
}

type metaKey struct{}

// annotate attaches attributes to the request's access-log line (a no-op for
// requests outside wrap, e.g. in direct handler tests).
func annotate(r *http.Request, attrs ...slog.Attr) {
	if m, ok := r.Context().Value(metaKey{}).(*reqMeta); ok {
		m.attrs = append(m.attrs, attrs...)
	}
}

// statusWriter captures the response status for logging and latency
// labelling.  It forwards Flush so NDJSON streaming through the wrapper
// keeps its per-line flushes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer, so
// /ingest can enable full-duplex streaming through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// wrap is the per-request observability shell: it tracks in-flight requests,
// threads the server's stage tracer through the request context (so facade
// spans — parse, compile, eval, waves — record), captures the status code,
// feeds the endpoint's latency histogram, and emits the access log (Debug)
// or the slow-query log (Warn, above Options.SlowQuery).
func (s *Server) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reqHist[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		s.ctr[cInFlight].Add(1)
		defer s.ctr[cInFlight].Add(-1)
		id := s.reqID.Add(1)
		m := &reqMeta{}
		ctx := context.WithValue(obs.NewContext(r.Context(), s.tr), metaKey{}, m)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		hist.Observe(d)

		slow := s.opts.SlowQuery > 0 && d >= s.opts.SlowQuery
		level, msg := slog.LevelDebug, "request"
		if slow {
			level, msg = slog.LevelWarn, "slow request"
		}
		if !s.log.Enabled(ctx, level) {
			return
		}
		attrs := make([]slog.Attr, 0, 5+len(m.attrs))
		attrs = append(attrs,
			slog.Int64("req", id),
			slog.String("endpoint", endpoint),
			slog.String("method", r.Method),
			slog.Int("status", sw.status),
			slog.Duration("duration", d),
		)
		attrs = append(attrs, m.attrs...)
		s.log.LogAttrs(ctx, level, msg, attrs...)
	}
}

// WriteJSON answers 200 with v as a JSON document.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// ErrorBody is the JSON shape of every error response: a human-readable
// message plus a stable machine-readable code from the agg taxonomy (or, for
// errors the fleet router originates, its own few codes).
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// statusOf maps the typed error taxonomy to HTTP status codes — no string
// matching involved.
func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, agg.ErrUnknownDatabase), errors.Is(err, agg.ErrUnknownSession),
		// A request that resolved its session just before a DELETE closed it.
		errors.Is(err, agg.ErrSessionClosed):
		return http.StatusNotFound
	case errors.Is(err, agg.ErrSessionExists), errors.Is(err, agg.ErrSessionBusy):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// writeError answers a failed request, unless the failure is the client
// having gone away: then it is counted as canceled and nothing is written.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	if s.canceled(err) {
		return
	}
	s.ctr[cErrors].Add(1)
	if errors.Is(err, agg.ErrSessionBusy) {
		// Fail-fast contention is its own signal, not a generic error: the
		// busy counter makes 409 churn visible on /stats and /metrics.
		s.ctr[cBusy].Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusOf(err))
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: err.Error(), Code: agg.ErrorCode(err)})
}

// canceled records and reports a request abandoned by its client.
func (s *Server) canceled(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.ctr[cCanceled].Add(1)
		return true
	}
	return false
}

// MaxBodyBytes bounds every request body that is read whole before it is
// acted on (here and in the fleet router); a larger one is answered 413.
// /ingest is the streaming path for more.
const MaxBodyBytes = 16 << 20

func decode(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w: %w", agg.ErrArgument, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// POST /query
// ---------------------------------------------------------------------------

type queryRequest struct {
	DB       string `json:"db"`
	Expr     string `json:"expr"`
	Semiring string `json:"semiring"`
	// Dynamic lists relations compiled as dynamic inputs; it participates in
	// the cache key.
	Dynamic []string `json:"dynamic"`
}

type circuitInfo struct {
	Gates int `json:"gates"`
	Edges int `json:"edges"`
	Depth int `json:"depth"`
}

type queryResponse struct {
	Semiring   string      `json:"semiring"`
	Value      string      `json:"value"`
	Cached     bool        `json:"cached"`
	EvalMillis float64     `json:"evalMillis"`
	Circuit    circuitInfo `json:"circuit"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	p, hit, err := s.compiled(req.DB, req.Expr, req.Semiring, req.Dynamic)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if free := p.FreeVars(); len(free) > 0 {
		s.writeError(w, fmt.Errorf("expression has free variables %v; use /point for point queries: %w", free, agg.ErrArgument))
		return
	}
	var value agg.Value
	d := timed(&s.ctr[cEvalNanos], func() {
		value, err = p.Eval(r.Context())
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.ctr[cQueries].Add(1)
	annotate(r,
		slog.String("semiring", p.SemiringName()),
		slog.Bool("cached", hit),
		slog.Duration("eval", d))
	st := p.Stats()
	WriteJSON(w, queryResponse{
		Semiring:   p.SemiringName(),
		Value:      value.String(),
		Cached:     hit,
		EvalMillis: float64(d.Nanoseconds()) / 1e6,
		Circuit:    circuitInfo{Gates: st.Gates, Edges: st.Edges, Depth: st.Depth},
	})
}

// ---------------------------------------------------------------------------
// POST /session
// ---------------------------------------------------------------------------

type sessionRequest struct {
	Name     string   `json:"name"`
	DB       string   `json:"db"`
	Expr     string   `json:"expr"`
	Semiring string   `json:"semiring"`
	Dynamic  []string `json:"dynamic"`
}

type sessionResponse struct {
	Session  string   `json:"session"`
	FreeVars []string `json:"freeVars"`
	Cached   bool     `json:"cached"`
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	h, hit, err := s.CreateSession(req.Name, req.DB, req.Expr, req.Semiring, req.Dynamic)
	if err != nil {
		s.writeError(w, err)
		return
	}
	annotate(r,
		slog.String("session", h.Name()),
		slog.String("semiring", h.Semiring()),
		slog.Bool("cached", hit))
	WriteJSON(w, sessionResponse{Session: h.Name(), FreeVars: h.FreeVars(), Cached: hit})
}

// handleDeleteSession serves DELETE /session?name=...; without it, a
// long-lived daemon whose clients create sessions per task would accumulate
// evaluator state without bound (compiled queries live in the bounded LRU,
// sessions do not).
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		s.writeError(w, fmt.Errorf("missing session name: %w", agg.ErrArgument))
		return
	}
	if err := s.DeleteSession(name); err != nil {
		s.writeError(w, err)
		return
	}
	WriteJSON(w, map[string]string{"deleted": name})
}

// ---------------------------------------------------------------------------
// POST /point
// ---------------------------------------------------------------------------

type pointRequest struct {
	// Session targets a named session; alternatively db/expr/semiring read
	// the compiled query at its loaded weights.
	Session  string `json:"session"`
	DB       string `json:"db"`
	Expr     string `json:"expr"`
	Semiring string `json:"semiring"`
	Args     []int  `json:"args"`
}

type pointResponse struct {
	Value string `json:"value"`
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	var req pointRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	// A named session or, without one, the compiled query's lock-free read.
	var target interface {
		Eval(ctx context.Context, args ...int) (agg.Value, error)
	}
	if req.Session != "" {
		annotate(r, slog.String("session", req.Session))
		h, err := s.Session(req.Session)
		if err != nil {
			s.writeError(w, err)
			return
		}
		target = h
	} else {
		p, _, err := s.compiled(req.DB, req.Expr, req.Semiring, nil)
		if err != nil {
			s.writeError(w, err)
			return
		}
		target = p
	}
	value, err := target.Eval(r.Context(), req.Args...)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.ctr[cPoints].Add(1)
	WriteJSON(w, pointResponse{Value: value.String()})
}

// ---------------------------------------------------------------------------
// POST /update
// ---------------------------------------------------------------------------

// updateSpec is one update of a batch.  A weight update sets Weight/Tuple/
// Value; a tuple update sets Rel/Tuple and optionally Present (default
// true, i.e. insert).
type updateSpec struct {
	Weight  string `json:"weight"`
	Rel     string `json:"rel"`
	Tuple   []int  `json:"tuple"`
	Value   int64  `json:"value"`
	Present *bool  `json:"present"`
}

func (u updateSpec) change() agg.Change {
	return agg.Change{
		Weight:  u.Weight,
		Rel:     u.Rel,
		Tuple:   u.Tuple,
		Value:   u.Value,
		Present: u.Present == nil || *u.Present,
	}
}

type updateRequest struct {
	Session string       `json:"session"`
	Updates []updateSpec `json:"updates"`
}

func (req updateRequest) changes() []agg.Change {
	changes := make([]agg.Change, len(req.Updates))
	for i, u := range req.Updates {
		changes[i] = u.change()
	}
	return changes
}

// updateResponse answers both /update and /batch.
type updateResponse struct {
	Applied int `json:"applied"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	h, err := s.Session(req.Session)
	if err != nil {
		s.writeError(w, err)
		return
	}
	applied, err := h.SetAll(req.changes())
	s.ctr[cUpdates].Add(int64(applied))
	s.ctr[cUpdateBatches].Add(1)
	if err != nil {
		s.writeError(w, err)
		return
	}
	WriteJSON(w, updateResponse{Applied: applied})
}

// ---------------------------------------------------------------------------
// POST /batch
// ---------------------------------------------------------------------------

// handleBatch applies a batch of updates atomically: every update is
// validated before anything is applied (all-or-nothing, unlike /update's
// stop-at-first-error semantics) and the session's evaluator then runs a
// single propagation wave for the whole batch, so updates sharing circuit
// gates — or repeatedly hitting the same hot keys — cost far less than the
// equivalent sequence of individual updates.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	h, err := s.Session(req.Session)
	if err != nil {
		s.writeError(w, err)
		return
	}
	changes := req.changes()
	if err := h.ApplyBatch(changes); err != nil {
		s.writeError(w, err)
		return
	}
	s.ctr[cBatches].Add(1)
	s.ctr[cBatchedUpdates].Add(int64(len(changes)))
	WriteJSON(w, updateResponse{Applied: len(changes)})
}

// ---------------------------------------------------------------------------
// GET /enumerate
// ---------------------------------------------------------------------------

// enumerateLine is one NDJSON line of the /enumerate stream: every answer
// tuple on its own line, then a final summary line with Done set.
type enumerateLine struct {
	Answer   []int `json:"answer,omitempty"`
	Done     bool  `json:"done,omitempty"`
	Streamed int   `json:"streamed,omitempty"`
	Total    int64 `json:"total,omitempty"`
	Cached   bool  `json:"cached,omitempty"`
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	vars := SplitList(q.Get("vars"))
	limit := 100
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			s.writeError(w, fmt.Errorf("invalid limit %q: %w", raw, agg.ErrArgument))
			return
		}
		limit = n
	}
	p, hit, err := s.compiledEnumerator(q.Get("db"), q.Get("phi"), vars)
	if err != nil {
		s.writeError(w, err)
		return
	}
	total, err := p.AnswerCount(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)

	// The cached Prepared never receives updates, so concurrent requests
	// each drive an independent cursor; the stream follows r.Context(), so a
	// client that disconnects aborts the enumeration instead of burning the
	// rest of the wave into a dead socket.
	streamed := 0
	for ans, err := range p.Enumerate(r.Context()) {
		if err != nil {
			s.canceled(err)
			return // disconnected (or failed) mid-stream: no summary line
		}
		if limit > 0 && streamed >= limit {
			break
		}
		if err := enc.Encode(enumerateLine{Answer: ans}); err != nil {
			s.ctr[cCanceled].Add(1)
			return // client went away
		}
		streamed++
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(enumerateLine{Done: true, Streamed: streamed, Total: total, Cached: hit})
	s.ctr[cEnumerations].Add(1)
	annotate(r, slog.Int("streamed", streamed), slog.Bool("cached", hit))
}

// ---------------------------------------------------------------------------
// GET /analyze
// ---------------------------------------------------------------------------

type analyzeResponse struct {
	*agg.Analysis
	Cached bool `json:"cached"`
}

// handleAnalyze serves the knowledge-compilation report of a compiled query:
// GET /analyze?db=D&expr=Q[&semiring=S][&vars=x,y].  Without vars the query
// is prepared like /query (expression or formula, optional semiring); with
// vars it is prepared like /enumerate (formula mode with fixed answer
// variables), so the report covers the exact program those endpoints serve.
// Compilations go through the same cache, so analysing a hot query is free.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	expr := q.Get("expr")
	if expr == "" {
		expr = q.Get("phi")
	}
	var (
		p   *agg.Prepared
		hit bool
		err error
	)
	if vars := SplitList(q.Get("vars")); len(vars) > 0 {
		p, hit, err = s.compiledEnumerator(q.Get("db"), expr, vars)
	} else {
		p, hit, err = s.compiled(q.Get("db"), expr, q.Get("semiring"), nil)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	report, err := agg.Analyze(p)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.ctr[cAnalyzes].Add(1)
	WriteJSON(w, analyzeResponse{Analysis: report, Cached: hit})
}

// ---------------------------------------------------------------------------
// GET /stats
// ---------------------------------------------------------------------------

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.StatsSnapshot())
}

// ---------------------------------------------------------------------------
// GET /healthz
// ---------------------------------------------------------------------------

// Health is the JSON shape of the GET /healthz readiness probe.  Beyond the
// bare "listening" signal of a 200, it reports enough serving state for a
// router or external load balancer to distinguish a freshly started empty
// replica from one actively holding sessions and compiled queries.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Sessions      int     `json:"sessions"`
	CacheEntries  int     `json:"cacheEntries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	sessions := len(s.sessions)
	s.mu.RUnlock()
	WriteJSON(w, Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Sessions:      sessions,
		CacheEntries:  s.cache.len(),
	})
}

// SplitList parses a comma-separated query parameter, dropping blanks.
func SplitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
