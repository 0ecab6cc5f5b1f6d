package server

import (
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// StatsSnapshot is the JSON shape served by GET /stats.
type StatsSnapshot struct {
	Queries        int64 `json:"queries"`
	Points         int64 `json:"points"`
	Updates        int64 `json:"updates"`
	UpdateBatches  int64 `json:"updateBatches"`
	Batches        int64 `json:"batches"`
	BatchedUpdates int64 `json:"batchedUpdates"`
	Enumerations   int64 `json:"enumerations"`
	Analyzes       int64 `json:"analyzes"`
	Sessions       int64 `json:"sessions"`

	Subscriptions   int64 `json:"subscriptions"`
	Subscribers     int64 `json:"subscribers"`
	Pushes          int64 `json:"pushes"`
	PushCoalesced   int64 `json:"pushCoalesced"`
	Ingests         int64 `json:"ingests"`
	IngestWaves     int64 `json:"ingestWaves"`
	IngestedChanges int64 `json:"ingestedChanges"`

	Compiles      int64   `json:"compiles"`
	CacheHits     int64   `json:"cacheHits"`
	CacheMisses   int64   `json:"cacheMisses"`
	CompileMillis float64 `json:"compileMillis"`
	EvalMillis    float64 `json:"evalMillis"`
	InFlight      int64   `json:"inFlight"`
	Errors        int64   `json:"errors"`
	Canceled      int64   `json:"canceled"`
	Busy          int64   `json:"busy"`
	CachedQueries int     `json:"cachedQueries"`
	Databases     int     `json:"databases"`
	UptimeSeconds float64 `json:"uptimeSeconds"`

	// StartTime is the server start in RFC 3339; GoVersion and Revision
	// identify the running build (VCS revision when the binary was built
	// from a checkout, empty otherwise).
	StartTime string `json:"startTime"`
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`

	// SessionEpochs maps each registered session to the number of updates
	// committed on it, and SessionRetainedUndoBytes is the MVCC undo history
	// currently pinned by open snapshot readers, summed over all sessions
	// (zero whenever no reader is pinned).
	SessionEpochs            map[string]uint64 `json:"sessionEpochs,omitempty"`
	SessionRetainedUndoBytes int64             `json:"sessionRetainedUndoBytes"`

	// CacheBytes is the total resident size of the frozen Programs held by
	// the compiled-artefact cache; CacheEntryBytes lists the per-entry sizes
	// in MRU-to-LRU order (0 for entries still compiling).  One Program is
	// shared by every session and evaluation of its entry, so this is the
	// circuit-side memory footprint of the whole cache.
	CacheBytes      int64   `json:"cacheBytes"`
	CacheEntryBytes []int64 `json:"cacheEntryBytes"`
}

// counter names one live counter of a running server: a fixed slot of
// Server.ctr, so counting is a single atomic add.  Each is declared by the
// statsMetrics row it indexes.
type counter int

const (
	cQueries counter = iota
	cSessions
	cPoints
	cUpdateBatches
	cBatches
	cEnumerations
	cSubscriptions
	cIngests
	cAnalyzes
	cUpdates
	cBatchedUpdates
	cIngestedChanges
	cCompiles
	cCacheHits
	cCacheMisses
	cErrors
	cCanceled
	cBusy
	cPushes
	cPushCoalesced
	cIngestWaves
	cInFlight
	cSubscribers
	cCompileNanos
	cEvalNanos
	numCounters
)

const requestsHelp = "Requests completed successfully, by endpoint."
const appliedHelp = "Individual updates applied, by path."

// statsMetrics declares every field of StatsSnapshot once; /stats, /metrics,
// /metrics.json and the fleet-wide merge are all derived from it.  The first
// numCounters rows are the live counters, keyed by their slot; the rest are
// sampled when a snapshot is taken.  Rows of one family are consecutive.
var statsMetrics = [...]obs.Metric{
	// The request histograms count every request, failed ones included; these
	// count the operations that completed.
	cQueries:       {Field: "Queries", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "query"}, Help: requestsHelp, Kind: "counter"},
	cSessions:      {Field: "Sessions", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "session"}, Help: requestsHelp, Kind: "counter"},
	cPoints:        {Field: "Points", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "point"}, Help: requestsHelp, Kind: "counter"},
	cUpdateBatches: {Field: "UpdateBatches", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "update"}, Help: requestsHelp, Kind: "counter"},
	cBatches:       {Field: "Batches", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "batch"}, Help: requestsHelp, Kind: "counter"},
	cEnumerations:  {Field: "Enumerations", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "enumerate"}, Help: requestsHelp, Kind: "counter"},
	cSubscriptions: {Field: "Subscriptions", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "subscribe"}, Help: requestsHelp, Kind: "counter"},
	cIngests:       {Field: "Ingests", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "ingest"}, Help: requestsHelp, Kind: "counter"},
	cAnalyzes:      {Field: "Analyzes", Family: "aggserve_requests_total", Labels: obs.Labels{"endpoint": "analyze"}, Help: requestsHelp, Kind: "counter"},

	cUpdates:         {Field: "Updates", Family: "aggserve_updates_applied_total", Labels: obs.Labels{"path": "single"}, Help: appliedHelp, Kind: "counter"},
	cBatchedUpdates:  {Field: "BatchedUpdates", Family: "aggserve_updates_applied_total", Labels: obs.Labels{"path": "batched"}, Help: appliedHelp, Kind: "counter"},
	cIngestedChanges: {Field: "IngestedChanges", Family: "aggserve_updates_applied_total", Labels: obs.Labels{"path": "ingested"}, Help: appliedHelp, Kind: "counter"},

	cCompiles:    {Field: "Compiles", Family: "aggserve_compiles_total", Help: "Queries compiled (cache misses that ran the compiler).", Kind: "counter"},
	cCacheHits:   {Field: "CacheHits", Family: "aggserve_cache_hits_total", Help: "Compiled-query cache hits.", Kind: "counter"},
	cCacheMisses: {Field: "CacheMisses", Family: "aggserve_cache_misses_total", Help: "Compiled-query cache misses.", Kind: "counter"},
	cErrors:      {Field: "Errors", Family: "aggserve_errors_total", Help: "Requests answered with a non-2xx status.", Kind: "counter"},
	cCanceled:    {Field: "Canceled", Family: "aggserve_canceled_total", Help: "Requests abandoned by their client mid-work.", Kind: "counter"},
	// Since reads answer from MVCC snapshots, busy rejections arise only from
	// two updates racing for one session's write lock.
	cBusy:          {Field: "Busy", Family: "aggserve_busy_total", Help: "Fail-fast session-busy rejections (409): writer-writer conflicts on one session.", Kind: "counter"},
	cPushes:        {Field: "Pushes", Family: "aggserve_pushes_total", Help: "Updates pushed to /subscribe clients.", Kind: "counter"},
	cPushCoalesced: {Field: "PushCoalesced", Family: "aggserve_push_coalesced_total", Help: "Evaluated results folded into pushed updates by lagging subscribers.", Kind: "counter"},
	cIngestWaves:   {Field: "IngestWaves", Family: "aggserve_ingest_waves_total", Help: "Batch waves committed by /ingest change streams.", Kind: "counter"},

	cInFlight:    {Field: "InFlight", Family: "aggserve_in_flight_requests", Help: "Requests currently being served.", Kind: "gauge"},
	cSubscribers: {Field: "Subscribers", Family: "aggserve_subscribers_active", Help: "Live /subscribe streams currently open.", Kind: "gauge"},

	// Cumulative wall time, counted in nanoseconds and reported on /stats in
	// milliseconds; /metrics carries the same time as the stage histograms.
	cCompileNanos: {Field: "CompileMillis"},
	cEvalNanos:    {Field: "EvalMillis"},

	{Field: "CachedQueries", Family: "aggserve_cache_entries", Help: "Compiled queries resident in the LRU cache.", Kind: "gauge"},
	{Field: "CacheBytes", Family: "aggserve_cache_bytes", Help: "Total bytes of frozen circuit programs in the cache.", Kind: "gauge"},
	{Field: "CacheEntryBytes"},
	{Field: "SessionEpochs", Family: "aggserve_sessions_active", Help: "Named dynamic-update sessions currently registered.", Kind: "gauge"},
	{Field: "SessionRetainedUndoBytes", Family: "aggserve_session_retained_undo_bytes_total", Help: "MVCC undo bytes pinned by open snapshot readers, over all sessions.", Kind: "gauge", Scope: obs.FleetWide},
	{Field: "Databases", Family: "aggserve_databases", Help: "Databases mounted.", Kind: "gauge"},
	{Field: "UptimeSeconds", Family: "aggserve_uptime_seconds", Help: "Seconds since the server started.", Kind: "gauge", Merge: obs.Max, Scope: obs.PerProcess},
	{Field: "StartTime", Merge: obs.Min},
	{Field: "GoVersion", Merge: obs.First},
	{Field: "Revision", Merge: obs.First},
}

// StatsSnapshot assembles the full /stats view: the live counters plus the
// cache, session, database and build gauges.
func (s *Server) StatsSnapshot() StatsSnapshot {
	var snap StatsSnapshot
	v := reflect.ValueOf(&snap).Elem()
	for c := range s.ctr {
		if f, n := v.FieldByName(statsMetrics[c].Field), s.ctr[c].Load(); f.CanFloat() {
			f.SetFloat(float64(n) / 1e6) // nanoseconds counted, milliseconds reported
		} else {
			f.SetInt(n)
		}
	}
	snap.CachedQueries = s.cache.len()
	snap.CacheEntryBytes, snap.CacheBytes = s.cache.entryBytes()
	if hs := s.handles(); len(hs) > 0 {
		snap.SessionEpochs = make(map[string]uint64, len(hs))
		for _, h := range hs {
			snap.SessionEpochs[h.name] = h.Epoch()
			snap.SessionRetainedUndoBytes += h.RetainedUndoBytes()
		}
	}
	s.mu.RLock()
	snap.Databases = len(s.dbs)
	s.mu.RUnlock()
	snap.UptimeSeconds = time.Since(s.start).Seconds()
	snap.StartTime = s.start.UTC().Format(time.RFC3339)
	snap.GoVersion, snap.Revision = buildInfoOnce()
	return snap
}

// BuildInfo reports the Go toolchain version and, when the binary was built
// from a version-controlled checkout, the VCS revision (suffixed with
// "-dirty" for modified trees).
func BuildInfo() (goVersion, revision string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	goVersion = bi.GoVersion
	var dirty bool
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if revision != "" && dirty {
		revision += "-dirty"
	}
	return goVersion, revision
}

// buildInfoOnce is memoised: debug.ReadBuildInfo re-parses the embedded
// module data on every call.
var buildInfoOnce = sync.OnceValues(BuildInfo)

// timed runs f and adds its wall time to the counter.
func timed(counter *atomic.Int64, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	counter.Add(d.Nanoseconds())
	return d
}
