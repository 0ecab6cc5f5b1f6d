package fleet

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// LocalOptions configures an in-process fleet.
type LocalOptions struct {
	// Server configures every replica (cache size, logger, ...).
	Server server.Options
	// Configure, when set, runs once per replica after construction —
	// typically to mount databases.  Replicas share nothing, so each one
	// must mount its own copy.
	Configure func(i int, s *server.Server)
	// Router tunes the router; Replicas is filled in by StartLocal.
	Router Options
}

// localReplica is one in-process aggserve replica: a server plus the HTTP
// listener in front of it.  The listener can be killed and restarted on the
// same address to exercise mark-down, re-route and recovery without losing
// the replica's sessions and cache.
type localReplica struct {
	srv  *server.Server
	addr string

	mu   sync.Mutex
	http *http.Server
}

// LocalFleet is an in-process fleet: n aggserve replicas behind one router,
// all inside the calling test binary so the whole data path — ring lookup,
// proxy hop, health probes, fan-out merges — runs under the race detector.
type LocalFleet struct {
	Router *Router

	routerHTTP *http.Server
	routerLn   net.Listener
	replicas   []*localReplica
}

// StartLocal builds n replicas and a router on loopback listeners.
// Close the fleet when done.
func StartLocal(n int, o LocalOptions) (*LocalFleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: StartLocal needs n > 0 replicas")
	}
	f := &LocalFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := server.New(o.Server)
		if o.Configure != nil {
			o.Configure(i, srv)
		}
		rep := &localReplica{srv: srv}
		if err := rep.listen("127.0.0.1:0"); err != nil {
			f.Close()
			return nil, err
		}
		f.replicas = append(f.replicas, rep)
		urls[i] = "http://" + rep.addr
	}

	ro := o.Router
	ro.Replicas = urls
	rt, err := New(ro)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Router = rt

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	f.routerLn = ln
	f.routerHTTP = serveOn(ln, rt.Handler())
	return f, nil
}

// serveOn starts an HTTP server for h on the listener.
func serveOn(ln net.Listener, h http.Handler) *http.Server {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 60 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	return hs
}

// listen (re)binds the replica's HTTP listener on addr and starts serving.
func (rep *localReplica) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	rep.mu.Lock()
	rep.addr = ln.Addr().String()
	rep.http = serveOn(ln, rep.srv.Handler())
	rep.mu.Unlock()
	return nil
}

// URL returns the router's base URL — the fleet's single client-facing
// address.
func (f *LocalFleet) URL() string { return "http://" + f.routerLn.Addr().String() }

// ReplicaURL returns replica i's direct base URL (bypassing the router).
func (f *LocalFleet) ReplicaURL(i int) string { return "http://" + f.replicas[i].addr }

// Replica returns replica i's server, e.g. to read its counters.
func (f *LocalFleet) Replica(i int) *server.Server { return f.replicas[i].srv }

// KillReplica closes replica i's listener, severing it from the fleet; its
// server state (sessions, compiled cache) survives for RestartReplica.
func (f *LocalFleet) KillReplica(i int) {
	rep := f.replicas[i]
	rep.mu.Lock()
	hs := rep.http
	rep.http = nil
	rep.mu.Unlock()
	if hs != nil {
		_ = hs.Close()
	}
}

// RestartReplica re-binds replica i on its original address, so the router
// (which identifies replicas by URL) sees it recover.
func (f *LocalFleet) RestartReplica(i int) error {
	rep := f.replicas[i]
	rep.mu.Lock()
	running := rep.http != nil
	addr := rep.addr
	rep.mu.Unlock()
	if running {
		return nil
	}
	return rep.listen(addr)
}

// Close tears the fleet down: router first (stopping probes), then every
// replica's listener and sessions.
func (f *LocalFleet) Close() {
	if f.Router != nil {
		f.Router.Close()
	}
	if f.routerHTTP != nil {
		_ = f.routerHTTP.Close()
	}
	for i, rep := range f.replicas {
		f.KillReplica(i)
		rep.srv.Close()
	}
}
