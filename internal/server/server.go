// Package server implements aggserve, the long-lived query-serving
// subsystem: databases are loaded once at startup, queries are prepared on
// demand through the public repro/agg facade and kept in an LRU cache of
// compiled circuits, and many concurrent clients then share each
// compilation — linear-time semiring evaluation over the level-parallel
// engine (/query), logarithmic-time point queries and weight/tuple updates
// on named dynamic sessions (/point, /update, Theorem 8), and constant-delay
// enumeration streamed as NDJSON (/enumerate, Theorem 24).
//
// The cache is keyed by (database, canonical query, semiring, options), so
// repeated queries skip compilation entirely; concurrent cold requests for
// the same key share a single compile.  Request contexts are honoured end to
// end: a client that disconnects mid-evaluation or mid-stream stops the
// work it was waiting for.
package server

import (
	"context"
	"fmt"
	"iter"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/agg"
	"repro/internal/obs"
)

// Options configures a Server.
type Options struct {
	// CacheSize bounds the number of cached compiled queries (≤ 0 selects
	// the default of 128).
	CacheSize int
	// MaxVars is forwarded to the compiler (0 keeps the compiler default).
	MaxVars int
	// Logger receives the server's structured logs: access logs at Debug,
	// slow queries at Warn, lifecycle events at Info.  Nil discards them.
	Logger *slog.Logger
	// SlowQuery is the threshold above which a completed request is logged
	// at Warn with its full annotations; 0 disables the slow-query log.
	SlowQuery time.Duration
}

// endpoints names every serving route with its own request-latency
// histogram, in the order /metrics emits them.
var endpoints = []string{"query", "session", "point", "update", "batch", "enumerate", "subscribe", "ingest", "analyze", "stats"}

// Server serves compiled queries over one or more mounted databases.  All
// methods and the HTTP handler are safe for concurrent use.
type Server struct {
	opts  Options
	cache *lruCache
	ctr   [numCounters]atomic.Int64 // live counters, indexed by counter
	start time.Time

	// tr records the pipeline stage timings (parse, cache lookup, compile,
	// freeze, eval, update waves) of every request served; reqHist holds one
	// end-to-end latency histogram per endpoint.  Both are exposition state
	// for GET /metrics.
	tr      *obs.Tracer
	reqHist map[string]*obs.Histogram
	// pushHist records commit-to-client push latency on /subscribe streams.
	pushHist *obs.Histogram

	log   *slog.Logger
	reqID atomic.Int64

	mu       sync.RWMutex
	dbs      map[string]*agg.Engine
	sessions map[string]*SessionHandle
}

// New creates a server with no databases mounted.
func New(opts Options) *Server {
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	reqHist := make(map[string]*obs.Histogram, len(endpoints))
	for _, ep := range endpoints {
		reqHist[ep] = obs.NewHistogram()
	}
	return &Server{
		opts:     opts,
		cache:    newLRUCache(opts.CacheSize),
		start:    time.Now(),
		tr:       obs.NewTracer(),
		reqHist:  reqHist,
		pushHist: obs.NewHistogram(),
		log:      log,
		dbs:      map[string]*agg.Engine{},
		sessions: map[string]*SessionHandle{},
	}
}

// MountDatabaseValue mounts an already-loaded database.  Remounting an
// existing name replaces it for new compilations; cached circuits and live
// sessions keep serving the snapshot they were compiled against.
func (s *Server) MountDatabaseValue(name string, db *agg.Database) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dbs[name] = agg.Open(db)
}

// engine resolves a database by name; an empty name selects "default" or,
// failing that, the only mounted database.
func (s *Server) engine(name string) (string, *agg.Engine, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if eng, ok := s.dbs["default"]; ok {
			return "default", eng, nil
		}
		if len(s.dbs) == 1 {
			for n, eng := range s.dbs {
				return n, eng, nil
			}
		}
		return "", nil, fmt.Errorf("no database named in the request and no unambiguous default among %v: %w", s.databaseNames(), agg.ErrUnknownDatabase)
	}
	if eng, ok := s.dbs[name]; ok {
		return name, eng, nil
	}
	return "", nil, fmt.Errorf("unknown database %q (mounted: %v): %w", name, s.databaseNames(), agg.ErrUnknownDatabase)
}

// databaseNames must be called with s.mu held.
func (s *Server) databaseNames() []string {
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// optionsKey canonically encodes the compile options that are part of the
// cache key.
func (s *Server) optionsKey(dynamic []string) string {
	dyn := append([]string(nil), dynamic...)
	sort.Strings(dyn)
	return fmt.Sprintf("dyn=%s;maxvars=%d", strings.Join(dyn, ","), s.opts.MaxVars)
}

// compiled resolves (database, expression, semiring, options) through the
// LRU cache, preparing at most once per key.  The bool reports a cache hit.
func (s *Server) compiled(dbName, exprText, semName string, dynamic []string) (*agg.Prepared, bool, error) {
	dbName, eng, err := s.engine(dbName)
	if err != nil {
		return nil, false, err
	}
	if strings.TrimSpace(exprText) == "" {
		return nil, false, fmt.Errorf("missing expression: %w", agg.ErrArgument)
	}
	canonical, err := agg.Canonicalize(exprText)
	if err != nil {
		return nil, false, err
	}
	if semName == "" {
		semName = "natural"
	}
	key := strings.Join([]string{"query", dbName, canonical, semName, s.optionsKey(dynamic)}, "\x00")
	return s.cached(key, eng, exprText, agg.WithSemiring(semName), agg.WithDynamic(dynamic...))
}

// compiledEnumerator resolves (database, formula, vars) through the cache to
// a formula-mode Prepared whose enumeration preprocessing has been paid.
func (s *Server) compiledEnumerator(dbName, phiText string, vars []string) (*agg.Prepared, bool, error) {
	dbName, eng, err := s.engine(dbName)
	if err != nil {
		return nil, false, err
	}
	if strings.TrimSpace(phiText) == "" {
		return nil, false, fmt.Errorf("missing formula: %w", agg.ErrArgument)
	}
	if len(vars) == 0 {
		return nil, false, fmt.Errorf("missing answer variables: %w", agg.ErrArgument)
	}
	canonical, err := agg.CanonicalizeFormula(phiText)
	if err != nil {
		return nil, false, err
	}
	key := strings.Join([]string{"enum", dbName, canonical, strings.Join(vars, ","), s.optionsKey(nil)}, "\x00")
	return s.cached(key, eng, phiText, agg.WithAnswerVars(vars...))
}

// cached is the cache-through step shared by every compilation: look key up,
// prepare text on a miss (at most once per key, with the server's MaxVars
// option after opts), and account for the hit or miss.
func (s *Server) cached(key string, eng *agg.Engine, text string, opts ...agg.Option) (*agg.Prepared, bool, error) {
	lookupStart := time.Now()
	v, hit, err := s.cache.getOrCreate(key, func() (any, error) {
		s.ctr[cCompiles].Add(1)
		var p *agg.Prepared
		var cerr error
		timed(&s.ctr[cCompileNanos], func() {
			// Background context: the compilation is a shared artefact that
			// outlives the triggering request.  The server tracer rides along
			// so parse/compile/freeze stages and later session waves record.
			p, cerr = eng.Prepare(obs.NewContext(context.Background(), s.tr), text,
				append(opts, agg.WithMaxVars(s.opts.MaxVars))...)
		})
		if cerr != nil {
			return nil, cerr
		}
		return p, nil
	})
	if err != nil {
		return nil, false, err
	}
	if hit {
		s.ctr[cCacheHits].Add(1)
		s.tr.Observe(obs.StageCacheLookup, time.Since(lookupStart))
	} else {
		s.ctr[cCacheMisses].Add(1)
	}
	return v.(*agg.Prepared), hit, nil
}

// SessionHandle is a named dynamic-update session registered with the
// server.  The handle serialises *updates* with its own lock, so update
// batches on one session queue while distinct sessions proceed in parallel
// and the underlying agg.Session never reports a writer–writer conflict
// through this path.  Point queries take no handle lock: agg.Session.Eval
// reads the last committed epoch under the session clock's shared lock, so
// /point keeps answering — without 409s, and waiting at most for one write's
// commit — while a /batch is mid-flight on the same session.
type SessionHandle struct {
	name     string
	semiring string

	mu   sync.Mutex
	sess *agg.Session
}

// Name returns the session's registered name.
func (h *SessionHandle) Name() string { return h.name }

// Semiring returns the name of the session's semiring.
func (h *SessionHandle) Semiring() string { return h.semiring }

// FreeVars returns the free variables of the session's query.
func (h *SessionHandle) FreeVars() []string { return h.sess.FreeVars() }

// Eval reads the session's query value at a tuple of its free variables (no
// arguments for a closed query).  It does not take the handle's update lock:
// the read answers from the last committed epoch, so it proceeds
// concurrently with updates on the same session.
func (h *SessionHandle) Eval(ctx context.Context, args ...int) (agg.Value, error) {
	return h.sess.Eval(ctx, args...)
}

// Epoch reports the number of updates committed on the session so far.
func (h *SessionHandle) Epoch() uint64 { return h.sess.Epoch() }

// RetainedUndoBytes reports the undo-history memory currently pinned by
// open snapshot readers of the session.
func (h *SessionHandle) RetainedUndoBytes() int64 { return h.sess.RetainedUndoBytes() }

// SetAll applies the changes one at a time under a single hold of the
// handle, stopping at the first failure (unlike ApplyBatch it is not
// all-or-nothing).  Holding the lock across the loop keeps the whole batch
// serialised against concurrent points and updates on the same session, so
// no other request observes a half-applied prefix.
func (h *SessionHandle) SetAll(changes []agg.Change) (applied int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ch := range changes {
		if err := h.sess.Set(ch); err != nil {
			return applied, fmt.Errorf("update %d: %w (%d of %d applied)", i, err, applied, len(changes))
		}
		applied++
	}
	return applied, nil
}

// ApplyBatch applies a batch atomically, queueing behind other operations.
func (h *SessionHandle) ApplyBatch(changes []agg.Change) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sess.ApplyBatch(changes)
}

// Subscribe streams live re-evaluations of the session's query; it takes no
// handle lock — each pushed update reads through an MVCC snapshot of the
// committed epoch, like Eval, so subscriptions never slow down writers.
func (h *SessionHandle) Subscribe(ctx context.Context, opts ...agg.SubscribeOption) iter.Seq2[agg.Update, error] {
	return h.sess.Subscribe(ctx, opts...)
}

// CreateSession compiles (through the cache) and registers a named session.
func (s *Server) CreateSession(name, dbName, exprText, semName string, dynamic []string) (*SessionHandle, bool, error) {
	if name == "" {
		return nil, false, fmt.Errorf("missing session name: %w", agg.ErrArgument)
	}
	p, hit, err := s.compiled(dbName, exprText, semName, dynamic)
	if err != nil {
		return nil, hit, err
	}
	sess, err := p.Session()
	if err != nil {
		return nil, hit, err
	}
	h := &SessionHandle{name: name, semiring: p.SemiringName(), sess: sess}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.sessions[name]; exists {
		return nil, hit, fmt.Errorf("session %q: %w", name, agg.ErrSessionExists)
	}
	s.sessions[name] = h
	s.ctr[cSessions].Add(1)
	return h, hit, nil
}

// DeleteSession unregisters a named session and closes it, which stops its
// live-hub evaluator and ends its open /subscribe streams with
// session_closed.  Requests already holding the handle get the same error;
// later requests see an unknown session.
func (s *Server) DeleteSession(name string) error {
	s.mu.Lock()
	h, ok := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("session %q: %w", name, agg.ErrUnknownSession)
	}
	// Outside s.mu: Close waits for an in-flight update on the session.
	return h.sess.Close()
}

// Close closes every registered session, ending their /subscribe streams so
// an HTTP shutdown is not left waiting on them.  The server keeps answering
// stateless requests.
func (s *Server) Close() {
	s.mu.Lock()
	sessions := s.sessions
	s.sessions = map[string]*SessionHandle{}
	s.mu.Unlock()
	for _, h := range sessions {
		_ = h.sess.Close() // always nil; Close is idempotent
	}
}

// Session resolves a registered session handle by name.
func (s *Server) Session(name string) (*SessionHandle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if h, ok := s.sessions[name]; ok {
		return h, nil
	}
	return nil, fmt.Errorf("session %q: %w", name, agg.ErrUnknownSession)
}

// handles lists the registered sessions.  Callers probe them (Epoch,
// RetainedUndoBytes) after the registry lock is dropped: those only touch
// per-session state.
func (s *Server) handles() []*SessionHandle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hs := make([]*SessionHandle, 0, len(s.sessions))
	for _, h := range s.sessions {
		hs = append(hs, h)
	}
	return hs
}
