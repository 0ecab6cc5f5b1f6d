package server

import (
	"bytes"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
)

// MetricsSnapshot is the raw, mergeable form of the /metrics exposition: the
// full stats view plus the per-endpoint request histograms and per-stage
// pipeline histograms as obs snapshots.  The fleet router scrapes it from
// GET /metrics.json on every replica and merges the fleet-wide view.
type MetricsSnapshot struct {
	Stats    StatsSnapshot           `json:"stats"`
	Requests map[string]obs.Snapshot `json:"requests"`
	Stages   map[string]obs.Snapshot `json:"stages"`
	// Push is the commit-to-client push latency of /subscribe streams: the
	// time from a committed batch or point write to the re-evaluated update
	// being written to the subscriber.
	Push obs.Snapshot `json:"push"`
}

// MetricsSnapshot captures the server's current counters and histograms.
func (s *Server) MetricsSnapshot() *MetricsSnapshot {
	m := &MetricsSnapshot{
		Stats:    s.StatsSnapshot(),
		Requests: make(map[string]obs.Snapshot, len(endpoints)),
		Stages:   make(map[string]obs.Snapshot, int(obs.NumStages)),
		Push:     s.pushHist.Snapshot(),
	}
	for _, ep := range endpoints {
		m.Requests[ep] = s.reqHist[ep].Snapshot()
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		m.Stages[st.String()] = s.tr.Stage(st).Snapshot()
	}
	return m
}

// Merge folds another process's snapshot into m: every stats field merges
// under the rule statsMetrics declares for it, and histograms merge bucket
// by bucket, so a merged bucket count is exactly the sum of its parts.
func (m *MetricsSnapshot) Merge(o *MetricsSnapshot) {
	obs.MergeInto(statsMetrics[:], &m.Stats, &o.Stats)
	m.Push.Merge(&o.Push)
	m.Requests = mergeHistograms(m.Requests, o.Requests)
	m.Stages = mergeHistograms(m.Stages, o.Stages)
}

func mergeHistograms(dst, src map[string]obs.Snapshot) map[string]obs.Snapshot {
	if dst == nil {
		dst = make(map[string]obs.Snapshot, len(src))
	}
	for k, snap := range src {
		have := dst[k]
		have.Merge(&snap)
		dst[k] = have
	}
	return dst
}

// WritePrometheus emits the snapshot in the text exposition format: the
// statsMetrics families, the request, stage and push latency histograms, and
// the per-session epoch gauge.  at says whether m is one process's snapshot
// or a merged one.
func (m *MetricsSnapshot) WritePrometheus(pw *obs.Writer, at obs.Scope) {
	pw.Table(statsMetrics[:], at, obs.Source{Stats: &m.Stats})

	pw.Histograms("aggserve_request_duration_seconds", "End-to-end request latency by endpoint.", "endpoint", m.Requests)
	// Stage latency: the parse → cache lookup → compile → freeze → eval
	// pipeline of the paper, plus the per-wave update propagation cost
	// (the observable form of the O(log n)-per-update guarantee).
	pw.Histograms("aggserve_stage_duration_seconds", "Internal pipeline stage latency.", "stage", m.Stages)
	pw.Header("aggserve_push_latency_seconds", "Commit-to-client push latency of /subscribe streams.", "histogram")
	pw.Histogram("aggserve_push_latency_seconds", nil, &m.Push)

	if len(m.Stats.SessionEpochs) > 0 {
		// The committed epoch advances with every update; each session lives
		// on exactly one replica, so merged snapshots never collide.
		obs.Gauges(pw, "aggserve_session_epoch", "Updates committed per session.", "session", m.Stats.SessionEpochs)
	}
}

// handleMetricsJSON serves the raw snapshot for fleet-wide aggregation.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.MetricsSnapshot())
}

// handleMetrics serves GET /metrics, the scrape target: the snapshot's
// families plus what only this process can say.  /stats serves the same
// counters as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ServeMetrics(w, func(pw *obs.Writer) {
		s.MetricsSnapshot().WritePrometheus(pw, obs.PerProcess)

		// Undo history each session's snapshot readers pin: zero in steady
		// state with no readers.
		if hs := s.handles(); len(hs) > 0 {
			retained := make(map[string]int64, len(hs))
			for _, h := range hs {
				retained[h.name] = h.RetainedUndoBytes()
			}
			obs.Gauges(pw, "aggserve_session_retained_undo_bytes", "Undo-history bytes pinned by open snapshot readers, per session.", "session", retained)
		}

		goVersion, revision := buildInfoOnce()
		pw.Header("aggserve_build_info", "Build metadata; the value is always 1.", "gauge")
		pw.Gauge("aggserve_build_info", obs.Labels{"go_version": goVersion, "revision": revision}, 1)

		// Process start and the handful of Go runtime stats an operator
		// reaches for first; attach pprof (-pprof-addr) for anything deeper.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for _, g := range []struct {
			name, help string
			v          float64
		}{
			{"aggserve_start_time_seconds", "Unix time the server started.", float64(s.start.UnixNano()) / float64(time.Second)},
			{"go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine())},
			{"go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc)},
			{"go_memstats_sys_bytes", "Bytes obtained from the OS.", float64(ms.Sys)},
			{"go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC)},
		} {
			pw.Header(g.name, g.help, "gauge")
			pw.Gauge(g.name, nil, g.v)
		}
	})
}

// ServeMetrics answers a /metrics scrape with whatever write emits,
// buffered so a formatting error becomes a 500 instead of a torn exposition.
func ServeMetrics(w http.ResponseWriter, write func(*obs.Writer)) {
	var buf bytes.Buffer
	pw := obs.NewWriter(&buf)
	write(pw)
	if err := pw.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
