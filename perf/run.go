package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// chunk is the number of calls of a fast op (< 20 µs) timed with one clock
// pair: a clock read costs tens of nanoseconds and would otherwise be a
// visible share of the sample.
const chunk = 64

// rec collects the samples of one round.  Every op of a round runs inside
// timed, so busy is the round's wall time with the oracle checks — which
// run between timed calls — left out.
type rec struct {
	tr      *tracer // nil in untraced rounds
	round   int
	op, aux []float64 // per-call latencies in µs of the headline and companion op
	ops     int       // completed ops of every kind
	failed  int
	busy    time.Duration
}

// timed runs f, which makes calls invocations of one op, under one clock
// pair and returns the time per call in µs.
func (r *rec) timed(name string, calls int, f func() error) (us float64, err error) {
	start := time.Now()
	err = f()
	end := time.Now()
	r.tr.add(name, 0, r.round, calls, start, end)
	r.busy += end.Sub(start)
	return float64(end.Sub(start).Nanoseconds()) / 1e3 / float64(calls), err
}

// done books calls ops as completed, with one latency sample in dst (nil for
// ops that are neither headline nor companion), or as failed: an error
// return, a non-200 or a value that differs from the oracle.  A failed op
// contributes no sample.
func (r *rec) done(dst *[]float64, us float64, calls int, good bool) {
	if !good {
		r.failed += calls
		return
	}
	r.ops += calls
	if dst != nil {
		*dst = append(*dst, us)
	}
}

// fingerprint is what must repeat exactly for one seed and round count.
type fingerprint struct {
	Input   string   `json:"input"`   // digest of the serialised database
	Ops     string   `json:"ops"`     // digest of the op sequence issued
	Count   int      `json:"count"`   // ops completed in measured rounds
	Answers int      `json:"answers"` // answers enumerated in measured rounds
	Final   []string `json:"final"`   // final values read back (session workloads)
}

// instance is one set-up of a workload.
type instance interface {
	// round performs the workload's fixed op sequence once.
	round(r *rec)
	// finish runs the end-of-run oracle checks, booking them in r.
	finish(r *rec) fingerprint
	// probe records spans and counts around the layers this workload
	// crosses, called directly.
	probe(tr *tracer) error
	close()
}

type workload struct {
	name  string
	why   string
	input func(sz sizes, seed int64) (*inputs, error)
	setup func(sz sizes, in *inputs) (instance, error)
}

// config is one run of one workload.
type config struct {
	seed    int64
	seconds float64 // budget of the measured phase
	rounds  int     // > 0: exactly this many measured rounds, ignoring seconds
	sz      sizes
	out     string // existing directory for trace and run records
}

const warmupRounds = 2

// setUp builds an instance and runs the discarded warm-up rounds; the time
// it takes is one set-up sample.
func setUp(w workload, cfg config, in *inputs) (instance, float64, error) {
	start := time.Now()
	inst, err := w.setup(cfg.sz, in)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < warmupRounds; i++ {
		r := rec{round: -1}
		inst.round(&r)
		if r.failed > 0 {
			inst.close()
			return nil, 0, fmt.Errorf("%s: %d ops failed in warm-up round %d", w.name, r.failed, i)
		}
	}
	return inst, time.Since(start).Seconds(), nil
}

// roundStats are the per-round figures the reported values are taken over.
type roundStats struct {
	opP50, auxP50, opsPerS []float64
	op, aux                []float64 // pooled samples, for the tails
	ops, failed            int
}

func (s *roundStats) add(r *rec) {
	s.opP50 = append(s.opP50, median(r.op))
	s.auxP50 = append(s.auxP50, median(r.aux))
	s.opsPerS = append(s.opsPerS, float64(r.ops)/r.busy.Seconds())
	s.op = append(s.op, r.op...)
	s.aux = append(s.aux, r.aux...)
	s.ops += r.ops
	s.failed += r.failed
}

// result is what one run of one workload reports.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Traced      bool               `json:"traced"`
	Rounds      int                `json:"rounds"`
	MeasuredS   float64            `json:"measured_s"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]metricV `json:"metrics"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Env         environment        `json:"env"`
	// PerRound keeps the per-round figures behind the reported medians, so a
	// disturbed stretch of a run can be seen after the fact.
	PerRound map[string][]float64 `json:"per_round"`
}

// moreRounds decides whether round r (0-based) is still to run.
func (c config) moreRounds(r int, start time.Time) bool {
	if c.rounds > 0 {
		return r < c.rounds
	}
	return time.Since(start).Seconds() < c.seconds
}

// measure is the untraced run: set up (several times, reporting the fastest),
// collect, then measure rounds until the budget is spent.  Every reported
// latency is the quiet decile of the per-round medians.
func measure(w workload, cfg config) (*result, error) {
	env := newEnvironment()
	in, err := w.input(cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	var inst instance
	var setups []float64
	for k := 0; k < cfg.sz.setups; k++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		var s float64
		if inst, s, err = setUp(w, cfg, in); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer inst.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var st roundStats
	start := time.Now()
	rounds := 0
	for ; cfg.moreRounds(rounds, start); rounds++ {
		r := rec{round: rounds}
		inst.round(&r)
		st.add(&r)
	}
	measured := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)

	completed := st.ops
	end := rec{round: rounds}
	fp := inst.finish(&end)
	fp.Count = completed
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	env.finish()
	return &result{
		Workload: w.name, Seed: cfg.seed, Rounds: rounds, MeasuredS: measured,
		Attempted: st.ops + st.failed + end.ops + end.failed, Failed: st.failed + end.failed,
		Fingerprint: fp, Env: env,
		PerRound: map[string][]float64{"op_p50_us": st.opP50, "aux_p50_us": st.auxP50, "ops_per_s": st.opsPerS, "setup_s": setups},
		Metrics: map[string]metricV{
			"op_p50_us":     {quietLow(st.opP50), "us"},
			"aux_p50_us":    {quietLow(st.auxP50), "us"},
			"ops_per_s":     {quietHigh(st.opsPerS), "1/s"},
			"allocs_per_op": {float64(m1.Mallocs-m0.Mallocs) / float64(completed), "count"},
			"peak_rss_mb":   {rss, "MB"},
			"setup_s":       {quantile(setups, 0), "s"},
		},
	}, nil
}

// measureTraced is the traced run.  It alternates untraced and traced rounds
// of the workload, so the overhead of recording spans is measured inside one
// process, then calls every workload's layer probes and reduces the spans to
// the per-layer metrics.
func measureTraced(w workload, cfg config) (*result, error) {
	env := newEnvironment()
	tr := newTracer()
	in, err := w.input(cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	inst, _, err := setUp(w, cfg, in)
	if err != nil {
		return nil, err
	}
	defer func() { inst.close() }()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var plain, traced roundStats
	start := time.Now()
	rounds := 0
	for ; cfg.moreRounds(rounds/2, start) || rounds%2 == 1; rounds++ {
		r, st := rec{round: rounds}, &plain
		if rounds%2 == 1 {
			r.tr, st = tr, &traced
		}
		inst.round(&r)
		st.add(&r)
	}
	measured := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	end := rec{round: rounds}
	fp := inst.finish(&end)
	fp.Count = plain.ops + traced.ops

	if err := probeLoad(tr, in, cfg.sz.probeReps); err != nil {
		return nil, err
	}
	for _, v := range workloads {
		pi := inst
		if v.name != w.name {
			vin, err := v.input(cfg.sz, cfg.seed)
			if err != nil {
				return nil, err
			}
			if pi, err = v.setup(cfg.sz, vin); err != nil {
				return nil, fmt.Errorf("%s: set-up for probes: %w", v.name, err)
			}
		}
		err := pi.probe(tr)
		if pi != inst {
			pi.close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", v.name, err)
		}
		runtime.GC()
	}

	m := layerMetrics(tr)
	opTail, opPct := tail(plain.op)
	auxTail, auxPct := tail(plain.aux)
	m["tail.op_p99_us"] = metricV{opTail, "us"}
	m["tail.op_pct"] = metricV{opPct, "%"}
	m["tail.op_samples"] = metricV{float64(len(plain.op)), "count"}
	m["tail.aux_p99_us"] = metricV{auxTail, "us"}
	m["tail.aux_pct"] = metricV{auxPct, "%"}
	m["tail.aux_samples"] = metricV{float64(len(plain.aux)), "count"}
	m["obs.trace_overhead_frac"] = metricV{1 - quietHigh(traced.opsPerS)/quietHigh(plain.opsPerS), "frac"}
	m["go.gc_cycles"] = metricV{float64(m1.NumGC - m0.NumGC), "count"}
	m["go.gc_pause_ms"] = metricV{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}
	// HeapSys never shrinks, so its last value is the peak.
	m["go.heap_peak_mb"] = metricV{float64(m1.HeapSys) / 1e6, "MB"}

	env.finish()
	res := &result{
		Workload: w.name, Seed: cfg.seed, Traced: true, Rounds: rounds, MeasuredS: measured,
		Attempted: plain.ops + plain.failed + traced.ops + traced.failed + end.ops + end.failed,
		Failed:    plain.failed + traced.failed + end.failed,
		Metrics:   m, Fingerprint: fp, Env: env,
	}
	err = writeJSON(cfg.out+"/"+w.name+".trace.json", traceFile{
		Workload: w.name, Seed: cfg.seed, Spans: tr.spans, Counts: tr.counts,
	})
	return res, err
}

// check reports why a result must not be trusted, or nil.
func (res *result) check() error {
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed or disagreed with the oracle", res.Workload, res.Failed, res.Attempted)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s has no samples", res.Workload, name)
		}
	}
	return nil
}

// peakRSSMB reads VmHWM, the high-water mark of this process's resident set.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
