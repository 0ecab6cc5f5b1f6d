// Command aggserve is the long-lived query-serving daemon: it loads one or
// more databases at startup, compiles queries on demand through the public
// repro/agg facade into an LRU cache of compiled circuits, and serves
// concurrent clients over HTTP/JSON — semiring evaluation, point queries,
// dynamic-update sessions and constant-delay enumeration all amortise one
// compilation (Theorem 6) across many requests.  Sessions also push:
// GET /subscribe streams live re-evaluated updates (SSE or NDJSON, resumable
// via Last-Event-ID, slow clients coalesce instead of stalling the writer)
// and POST /ingest applies an NDJSON change stream as coalesced batch waves
// with epoch acks on the same connection.  Client disconnects cancel the
// work they were waiting for.
//
// With -route, aggserve instead runs as a fleet router: it loads no
// database and consistent-hashes every request across the given replicas —
// compiled-query cache keys for /query, /enumerate and /analyze, session
// names (sticky) for /session, /point, /update, /batch, /subscribe and
// /ingest, streamed through with per-chunk flushing — with health probes,
// fail-over, and fleet-wide /stats and /metrics aggregation.
//
// Usage:
//
//	aggserve -kind grid -n 4096 -listen :8080
//	aggserve -db traffic=roads.txt -db social=graph.txt
//	agggen -kind bounded-degree -n 10000 | aggserve -stdin
//	aggserve -log-format json -log-level debug -slow-query 100ms -pprof-addr localhost:6060
//	aggserve -listen :8080 -route http://10.0.0.1:8081,http://10.0.0.2:8081
//
//	curl -X POST localhost:8080/query \
//	  -d '{"expr":"sum x, y . [E(x,y)] * w(x,y)","semiring":"natural"}'
//	curl -X POST localhost:8080/batch \
//	  -d '{"session":"s","updates":[{"weight":"w","tuple":[0,1],"value":7}]}'
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//
// See the README for the full endpoint reference and metrics catalogue.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/agg"
	"repro/internal/fleet"
	"repro/internal/server"
)

// dbFlags collects repeated -db name=path mounts.
type dbFlags []string

func (d *dbFlags) String() string { return strings.Join(*d, ",") }

func (d *dbFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("-db expects name=path, got %q", v)
	}
	*d = append(*d, v)
	return nil
}

// newLogger builds the process logger from the -log-format/-log-level flags.
// Operator output and per-request access logs share this one format.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("-log-format %q: want text or json", format)
}

func main() {
	var dbs dbFlags
	listen := flag.String("listen", ":8080", "address to serve HTTP on")
	flag.Var(&dbs, "db", "mount a database: name=path (dbio format, repeatable)")
	stdin := flag.Bool("stdin", false, "mount the database read from stdin as \"default\"")
	kind := flag.String("kind", "grid", "generated workload kind for the default database (used when no -db/-stdin)")
	n := flag.Int("n", 2000, "generated database size")
	seed := flag.Int64("seed", 1, "random seed for the generated database")
	cacheSize := flag.Int("cache", 128, "maximum number of cached compiled queries")
	maxVars := flag.Int("maxvars", 0, "compiler MaxVars bound (0 = default)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug enables per-request access logs)")
	slowQuery := flag.Duration("slow-query", 0, "log requests slower than this threshold at warn level (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	route := flag.String("route", "", "run as a fleet router over these comma-separated replica base URLs (no database is loaded)")
	healthInterval := flag.Duration("health-interval", time.Second, "router mode: period of the replica /healthz probe loop")
	flag.Parse()

	log, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggserve: %v\n", err)
		os.Exit(2)
	}

	if *route != "" {
		runRouter(log, *listen, *route, *healthInterval)
		return
	}

	srv := server.New(server.Options{
		CacheSize: *cacheSize,
		MaxVars:   *maxVars,
		Logger:    log,
		SlowQuery: *slowQuery,
	})

	if len(dbs) > 0 && *stdin {
		log.Error("-db and -stdin are mutually exclusive")
		os.Exit(2)
	}
	switch {
	case len(dbs) > 0:
		for _, spec := range dbs {
			name, path, _ := strings.Cut(spec, "=")
			db, err := agg.ReadDatabaseFile(path)
			if err != nil {
				log.Error("loading database", "spec", spec, "err", err)
				os.Exit(1)
			}
			srv.MountDatabaseValue(name, db)
			log.Info("mounted database", "name", name, "n", db.Elements(), "tuples", db.TupleCount())
		}
	default:
		db, err := agg.Load(agg.Source{Stdin: *stdin, Kind: *kind, N: *n, Seed: *seed})
		if err != nil {
			log.Error("loading database", "err", err)
			os.Exit(1)
		}
		srv.MountDatabaseValue("default", db)
		log.Info("mounted database", "name", "default", "n", db.Elements(), "tuples", db.TupleCount())
	}

	// Opt-in pprof on its own listener, so profiling stays off the serving
	// address (and off the open internet) unless explicitly bound.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := newHTTPServer(*pprofAddr, pprofMux)
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil {
				log.Error("pprof listener", "addr", *pprofAddr, "err", err)
			}
		}()
		log.Info("pprof listening", "addr", *pprofAddr)
	}

	httpSrv := newHTTPServer(*listen, srv.Handler())
	goVersion, revision := server.BuildInfo()
	log.Info("aggserve listening",
		"addr", *listen,
		"semirings", agg.SemiringNames(),
		"goVersion", goVersion,
		"revision", revision)
	serve(log, httpSrv, srv.Close)
}

// newHTTPServer builds a listener with the slow-client timeouts every
// aggserve frontend sets: a client must deliver its request headers within
// ReadHeaderTimeout and keep-alive connections are reaped after IdleTimeout,
// so one slowloris peer cannot hold a connection slot forever.  Request
// bodies and responses stay un-deadlined: /enumerate legitimately streams
// for as long as the client reads.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// serve runs the server until it fails or a SIGINT/SIGTERM triggers a
// graceful shutdown.  release runs first: it ends what would otherwise keep
// connections open for the whole shutdown grace period (a replica's
// /subscribe streams end when their sessions close).
func serve(log *slog.Logger, httpSrv *http.Server, release func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Info("shutting down")
		release()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Error("shutdown", "err", err)
			os.Exit(1)
		}
	}
}

// runRouter is the -route mode: a consistent-hash router over an aggserve
// replica fleet.
func runRouter(log *slog.Logger, listen, route string, healthInterval time.Duration) {
	var replicas []string
	for _, u := range strings.Split(route, ",") {
		if u = strings.TrimSpace(u); u != "" {
			replicas = append(replicas, u)
		}
	}
	rt, err := fleet.New(fleet.Options{
		Replicas:       replicas,
		HealthInterval: healthInterval,
		Logger:         log,
	})
	if err != nil {
		log.Error("router", "err", err)
		os.Exit(1)
	}
	log.Info("aggserve routing", "addr", listen, "replicas", replicas)
	serve(log, newHTTPServer(listen, rt.Handler()), rt.Close)
}
