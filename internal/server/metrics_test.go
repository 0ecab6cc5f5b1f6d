package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/agg"
	"repro/internal/obs"
)

// metricLine matches one Prometheus text-format sample:
// name{labels} value — labels optional, value a float or integer.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ` +
	`([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|\+Inf|NaN)$`)

// fetchMetrics scrapes /metrics and returns the raw body plus a map of
// sample line → value for exact-match assertions.
func fetchMetrics(t *testing.T, base string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	body := string(raw)
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return body, samples
}

// TestMetricsEndpoint drives every serving endpoint once, then asserts the
// Prometheus exposition parses, carries latency histograms for all of them,
// and agrees with the JSON /stats counters.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, 6)

	// One request per serving endpoint.
	if _, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum}); code != http.StatusOK {
		t.Fatalf("/query failed: %d", code)
	}
	if _, code := postJSON(t, ts.URL+"/point", map[string]any{"expr": "sum y . [E(x,y)] * w(x,y)", "args": []int{0}}); code != http.StatusOK {
		t.Fatalf("/point failed: %d", code)
	}
	if _, code := postJSON(t, ts.URL+"/session", map[string]any{
		"name": "m1", "expr": "sum x, y . [E(x,y)] * w(x,y)", "dynamic": []string{"E"},
	}); code != http.StatusOK {
		t.Fatalf("/session failed: %d", code)
	}
	if _, code := postJSON(t, ts.URL+"/batch", map[string]any{
		"session": "m1",
		"updates": []map[string]any{{"weight": "w", "tuple": []int{0, 1}, "value": 5}},
	}); code != http.StatusOK {
		t.Fatalf("/batch failed: %d", code)
	}
	resp, err := http.Get(ts.URL + "/enumerate?phi=E(x,y)&vars=x,y&limit=3")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/enumerate failed: %v %v", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/analyze?expr=" + url.QueryEscape(edgeSum))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/analyze failed: %v %v", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	body, samples := fetchMetrics(t, ts.URL)

	// Request latency histograms for the five serving endpoints (plus the
	// rest of the route table): at least a _count sample with count ≥ 1 and
	// a +Inf bucket agreeing with it.
	for _, ep := range []string{"query", "point", "batch", "enumerate", "analyze", "session"} {
		count, ok := samples[`aggserve_request_duration_seconds_count{endpoint="`+ep+`"}`]
		if !ok || count < 1 {
			t.Errorf("endpoint %q: missing or zero request histogram count (got %v, ok=%v)", ep, count, ok)
		}
		inf := samples[`aggserve_request_duration_seconds_bucket{endpoint="`+ep+`",le="+Inf"}`]
		if inf != count {
			t.Errorf("endpoint %q: +Inf bucket %v != count %v", ep, inf, count)
		}
	}

	// Stage histograms: the exercised pipeline stages all saw at least one
	// observation (cache_lookup needs a repeated query).
	if _, code := postJSON(t, ts.URL+"/query", map[string]any{"expr": edgeSum}); code != http.StatusOK {
		t.Fatalf("repeat /query failed: %d", code)
	}
	_, samples = fetchMetrics(t, ts.URL)
	for _, stage := range []string{"parse", "cache_lookup", "compile", "freeze", "eval", "wave"} {
		if c := samples[`aggserve_stage_duration_seconds_count{stage="`+stage+`"}`]; c < 1 {
			t.Errorf("stage %q: histogram count %v, want ≥ 1", stage, c)
		}
	}

	// Counter agreement with /stats.
	st := srv.StatsSnapshot()
	for line, want := range map[string]int64{
		`aggserve_requests_total{endpoint="query"}`:     st.Queries,
		`aggserve_requests_total{endpoint="point"}`:     st.Points,
		`aggserve_requests_total{endpoint="batch"}`:     st.Batches,
		`aggserve_requests_total{endpoint="enumerate"}`: st.Enumerations,
		`aggserve_requests_total{endpoint="analyze"}`:   st.Analyzes,
		`aggserve_requests_total{endpoint="session"}`:   st.Sessions,
		`aggserve_cache_hits_total`:                     st.CacheHits,
		`aggserve_cache_misses_total`:                   st.CacheMisses,
		`aggserve_compiles_total`:                       st.Compiles,
		`aggserve_busy_total`:                           st.Busy,
	} {
		if got, ok := samples[line]; !ok || int64(got) != want {
			t.Errorf("%s = %v (present=%v), want %d", line, got, ok, want)
		}
	}

	// Quantiles are derivable: the per-endpoint histogram snapshot exposes
	// p50/p95/p99 through the obs API the exposition is generated from.
	snap := srv.reqHist["query"].Snapshot()
	if snap.Count < 2 {
		t.Fatalf("query histogram count %d, want ≥ 2", snap.Count)
	}
	p50, p99 := snap.Quantile(0.50), snap.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("implausible quantiles: p50=%v p99=%v", p50, p99)
	}

	// Gauges and build info present.
	for _, want := range []string{
		"aggserve_cache_bytes", "aggserve_sessions_active", "aggserve_uptime_seconds",
		"go_goroutines", "aggserve_build_info",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if v := samples["aggserve_sessions_active"]; v != 1 {
		t.Errorf("aggserve_sessions_active = %v, want 1", v)
	}
}

// TestBusyCounter asserts the fail-fast 409 path increments the dedicated
// busy counter (satellite: contention must not vanish into errors).
func TestBusyCounter(t *testing.T) {
	srv, ts, _ := newTestServer(t, 4)
	if got := srv.StatsSnapshot().Busy; got != 0 {
		t.Fatalf("busy = %d before any traffic", got)
	}
	// The HTTP surface serialises sessions behind SessionHandle locks, so
	// drive writeError directly with a session-busy error shaped like the
	// facade's: the counter, status mapping and /stats plumbing are what the
	// server owns.
	rec := httptest.NewRecorder()
	srv.writeError(rec, errBusy{})
	if rec.Code != http.StatusConflict {
		t.Fatalf("busy error mapped to %d, want 409", rec.Code)
	}
	if got := srv.StatsSnapshot().Busy; got != 1 {
		t.Errorf("busy = %d after one 409, want 1", got)
	}
	if got := srv.StatsSnapshot().Errors; got != 1 {
		t.Errorf("errors = %d after one 409, want 1", got)
	}
	// /stats surfaces it.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Busy != 1 {
		t.Errorf("/stats busy = %d, want 1", snap.Busy)
	}
	if snap.GoVersion == "" {
		t.Error("/stats goVersion empty")
	}
	if snap.StartTime == "" {
		t.Error("/stats startTime empty")
	}
}

// errBusy is an error wrapping agg.ErrSessionBusy without going through a
// real contended session.
type errBusy struct{}

func (errBusy) Error() string { return "session is processing another operation" }
func (errBusy) Unwrap() error { return agg.ErrSessionBusy }

// fill gives every StatsSnapshot field a distinct non-zero value derived
// from seed, so a merge result identifies the rule that produced it.
func fill(t *testing.T, seed int) StatsSnapshot {
	t.Helper()
	var snap StatsSnapshot
	v := reflect.ValueOf(&snap).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f, n := v.Field(i), seed*100+i; {
		case f.CanInt():
			f.SetInt(int64(n))
		case f.CanFloat():
			f.SetFloat(float64(n) + 0.5)
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("v%04d", n))
		case f.Kind() == reflect.Slice:
			f.Set(reflect.ValueOf(make([]int64, seed)))
		case f.Kind() == reflect.Map:
			f.Set(reflect.ValueOf(map[string]uint64{fmt.Sprint("session", seed): uint64(n)}))
		default:
			t.Fatalf("StatsSnapshot.%s: no rule for filling a %s", v.Type().Field(i).Name, f.Type())
		}
	}
	return snap
}

// TestEveryDeclaredMetricIsExposedAndMerged is the "declare once" property:
// statsMetrics covers every field of StatsSnapshot exactly once, each live
// counter lands in the field its row names, each row shows up on /stats
// under its field's JSON key and on /metrics under its family and labels,
// and Merge follows its declared rule.  Adding a scalar is therefore a
// struct field, a table row and (for a live counter) its increment.
func TestEveryDeclaredMetricIsExposedAndMerged(t *testing.T) {
	srv, ts, _ := newTestServer(t, 4)
	if out, code := postJSON(t, ts.URL+"/session", map[string]any{"name": "s", "expr": edgeSum}); code != http.StatusOK {
		t.Fatalf("/session failed: %v", out)
	}
	for c := range srv.ctr {
		srv.ctr[c].Store(int64(1000 * (c + 1))) // in nanoseconds, 1000 is 0.001 ms
	}

	live := reflect.ValueOf(srv.StatsSnapshot())
	var stats map[string]any
	get(t, ts.URL+"/stats", &stats)
	_, replica := fetchMetrics(t, ts.URL)
	a, b := fill(t, 1), fill(t, 2)
	merged := MetricsSnapshot{Stats: a}
	merged.Merge(&MetricsSnapshot{Stats: b})
	var buf bytes.Buffer
	merged.WritePrometheus(obs.NewWriter(&buf), obs.FleetWide)
	fleet := buf.String()

	typ := reflect.TypeOf(StatsSnapshot{})
	declared := map[string]int{}
	for i, m := range statsMetrics {
		declared[m.Field]++
		sf, ok := typ.FieldByName(m.Field)
		if !ok {
			t.Errorf("row %d names field %q, which StatsSnapshot does not have", i, m.Field)
			continue
		}

		key, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if _, present := stats[key]; !present && !(opts == "omitempty" && key == "revision") { // empty in a test binary
			t.Errorf("%s: /stats has no key %q", m.Field, key)
		}
		if i < int(numCounters) {
			want := float64(1000 * (i + 1))
			if sf.Type.Kind() == reflect.Float64 {
				want /= 1e6
			}
			if got := live.FieldByName(m.Field); got.Convert(reflect.TypeOf(want)).Float() != want {
				t.Errorf("%s: the snapshot reports %v for live counter %d, want %v", m.Field, got, i, want)
			}
		}

		if m.Family != "" {
			sample := m.Family + labelString(m.Labels)
			if _, ok := replica[sample]; ok != (m.Scope != obs.FleetWide) {
				t.Errorf("%s: sample %s present on a replica's /metrics = %v, want %v", m.Field, sample, ok, !ok)
			}
			if ok := strings.Contains(fleet, "\n"+sample+" "); ok != (m.Scope != obs.PerProcess) {
				t.Errorf("%s: sample %s present in a merged exposition = %v, want %v", m.Field, sample, ok, !ok)
			}
		}

		av, bv := reflect.ValueOf(a).FieldByName(m.Field), reflect.ValueOf(b).FieldByName(m.Field)
		mv := reflect.ValueOf(merged.Stats).FieldByName(m.Field)
		var want any
		switch {
		case m.Merge == obs.Sum && av.CanInt():
			want = reflect.ValueOf(av.Int() + bv.Int()).Convert(av.Type()).Interface()
		case m.Merge == obs.Sum && av.CanFloat():
			want = av.Float() + bv.Float()
		case m.Merge == obs.Sum && av.Kind() == reflect.Slice:
			want = make([]int64, 3)
		case m.Merge == obs.Sum && av.Kind() == reflect.Map:
			want = map[string]uint64{"session1": uint64(av.MapIndex(reflect.ValueOf("session1")).Uint()), "session2": uint64(bv.MapIndex(reflect.ValueOf("session2")).Uint())}
		case m.Merge == obs.Max:
			want = bv.Interface() // fill(2) is larger in every field
		case m.Merge == obs.Min, m.Merge == obs.First:
			want = av.Interface()
		}
		if !reflect.DeepEqual(mv.Interface(), want) {
			t.Errorf("%s: merge rule %d of %v and %v gave %v, want %v", m.Field, m.Merge, av, bv, mv, want)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if n := declared[typ.Field(i).Name]; n != 1 {
			t.Errorf("StatsSnapshot.%s is declared by %d statsMetrics rows, want exactly 1", typ.Field(i).Name, n)
		}
	}

	// First and Min differ from "whatever came first" only when the first
	// snapshot has nothing to offer.
	empty := MetricsSnapshot{}
	empty.Merge(&MetricsSnapshot{Stats: b})
	if empty.Stats.GoVersion != b.GoVersion || empty.Stats.StartTime != b.StartTime {
		t.Errorf("merging into an empty snapshot kept goVersion %q startTime %q, want the source's", empty.Stats.GoVersion, empty.Stats.StartTime)
	}
}

// labelString renders a label set the way the exposition does.
func labelString(l obs.Labels) string {
	var buf bytes.Buffer
	pw := obs.NewWriter(&buf)
	pw.Gauge("", l, 0)
	return strings.TrimSuffix(buf.String(), " 0\n")
}

// TestReadmeNamesEveryDeclaredFamily keeps the README's metrics catalogue
// checked against the declaration table it documents.
func TestReadmeNamesEveryDeclaredFamily(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range statsMetrics {
		if m.Family != "" && !bytes.Contains(readme, []byte("`"+m.Family)) {
			t.Errorf("README.md does not name the %s family", m.Family)
		}
	}
}
