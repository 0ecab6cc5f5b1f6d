package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/agg"
	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dbio"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/expr"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/qe"
	"repro/internal/semiring"
	"repro/internal/server"
	"repro/internal/structure"
)

// The layer probes call each module's public functions directly, from
// outside, on the inputs the workloads use, and record a span per call.  No
// package outside perf/ carries a span or a counter of this benchmark.
//
// Every traced run calls the probes of all four workloads, so every traced
// run reports every per-layer metric.

// calls times n invocations of a fast function with one clock pair.
func (t *tracer) calls(name string, parent, n int, f func(i int)) {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	t.add(name, parent, -1, n, start, time.Now())
}

// mallocs runs f and returns the heap objects and bytes it allocated.
func mallocs(f func()) (objects, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// probeLoad times agg.ReadDatabase on the workload's serialised database.
func probeLoad(tr *tracer, in *inputs, reps int) error {
	for i := 0; i < reps; i++ {
		var err error
		tr.span("dbio.load", 0, func() { _, err = agg.ReadDatabase(bytes.NewReader(in.raw)) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probe replays the compile pipeline stage by stage on the inputs
// Engine.Prepare receives: from outside, the facade call is one opaque span.
// compile.Compile runs normalize, Gaifman, colouring and freeze inside
// itself, so those stages are run again on the same inputs and recorded as
// children of the compile span; its self time is the span minus them.
func (c *coldPrepare) probe(tr *tracer) error {
	a := c.in.a
	big, err := newInputs(c.in.kind, 2*c.in.n, c.in.seed)
	if err != nil {
		return err
	}
	phi := parser.MustParseFormula(queryPath)
	inner := parser.MustParseFormula("exists y . E(x,y) & S(y)")
	for rep := 0; rep < c.sz.probeReps; rep++ {
		runtime.GC()
		tr.span("agg.prepare", 0, func() { _, err = c.eng.Prepare(ctx, queryTriangle) })
		if err != nil {
			return err
		}
		var ex expr.Expr
		tr.calls("parser.parse", 0, chunk, func(int) {
			ex, err = parser.ParseExpr(queryTriangle)
			_ = parser.FormatExpr(ex)
		})
		if err != nil {
			return err
		}

		runtime.GC()
		var res *compile.Result
		var id int
		objects, bytes := mallocs(func() {
			id = tr.span("compile.total", 0, func() { res, err = compile.Compile(a, ex, compile.Options{}) })
		})
		if err != nil {
			return err
		}
		tr.count("compile.allocs", -1, objects)
		tr.count("compile.bytes", -1, bytes)
		tr.count("compile.gates", -1, float64(res.Program.NumGates()))
		tr.count("compile.shapes", -1, float64(res.Stats.Shapes))
		tr.count("compile.forests", -1, float64(res.Stats.Forests))
		tr.count("compile.color_assignments", -1, float64(res.Stats.ColorAssignments))
		tr.span("expr.normalize", id, func() { _, err = expr.Normalize(ex, expr.NormalizeOptions{}) })
		if err != nil {
			return err
		}
		fresh := a.Clone() // Gaifman is cached on the structure
		var g *graph.Graph
		tr.span("structure.gaifman", id, func() { g = fresh.Gaifman() })
		var col *graph.Coloring
		tr.span("graph.coloring", id, func() { col = graph.LowTreedepthColoring(g, 3) })
		tr.count("graph.colors", -1, float64(col.NumColors))
		tr.span("circuit.freeze", id, func() { circuit.Freeze(res.Circuit) })

		runtime.GC()
		tr.span("compile.total_2n", 0, func() { _, err = compile.Compile(big.a, ex, compile.Options{}) })
		if err != nil {
			return err
		}

		tr.span("qe.eliminate", 0, func() { _, err = qe.Eliminate(a, inner, nil) })
		if err != nil {
			return err
		}
		runtime.GC()
		var ans *enumerate.Answers
		tr.span("enumerate.preprocess", 0, func() {
			ans, err = enumerate.EnumerateAnswers(a, phi, logic.FreeVars(phi), compile.Options{})
		})
		if err != nil {
			return err
		}
		tr.span("enumerate.count", 0, func() { ans.Count() })
	}
	return nil
}

// probe times evaluation and enumeration below the facade.  The Prepared
// hides its program, so the probe compiles its own: the gate counts of the
// two differ by the compiler's map-order noise.
func (w *warmRead) probe(tr *tracer) error {
	a, weights := w.in.a, w.in.w
	res, err := compile.Compile(a, parser.MustParseExpr(queryTriangle), compile.Options{})
	if err != nil {
		return err
	}
	prog := res.Program
	tr.count("circuit.gates", -1, float64(prog.NumGates()))
	tr.count("circuit.program_bytes", -1, float64(prog.Footprint()))
	nat := compile.NewValuation(res, semiring.Nat, weights)
	minplus := compile.NewValuation(res, semiring.MinPlus, dbio.ConvertWeights(weights, semiring.Fin))
	for i := 0; i < chunk*w.sz.probeReps; i++ {
		tr.span("circuit.eval", 0, func() { circuit.EvaluateProgram(prog, semiring.Nat, nat) })
		tr.span("circuit.eval_minplus", 0, func() { circuit.EvaluateProgram(prog, semiring.MinPlus, minplus) })
		tr.span("agg.eval", 0, func() { _, err = w.tri.Eval(ctx) })
		if err != nil {
			return err
		}
	}

	phi := parser.MustParseFormula(queryPath)
	ans, err := enumerate.EnumerateAnswers(a, phi, logic.FreeVars(phi), compile.Options{})
	if err != nil {
		return err
	}
	for rep := 0; rep < w.sz.probeReps; rep++ {
		var cur *enumerate.TupleCursor
		tr.span("enumerate.first_answer", 0, func() {
			cur = ans.Cursor()
			cur.Next()
		})
		for more := true; more; {
			n := 0
			start := time.Now()
			for ; n < chunk && more; n++ {
				_, more = cur.Next()
			}
			tr.add("enumerate.delay", 0, -1, n, start, time.Now())
		}
		answers := 0
		objects, _ := mallocs(func() {
			cur := ans.Cursor()
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				answers++
			}
		})
		tr.count("enumerate.allocs_per_answer", -1, objects/float64(max(answers, 1)))
	}
	return nil
}

// probe times the dynamic circuit, the dynamicq query and the MVCC log
// below the facade, a live subscription beside it, and a few rounds of the
// workload itself for the spans of its pinned segment.
func (s *sessionRW) probe(tr *tracer) error {
	a, weights := s.in.a, s.in.w
	ex := parser.MustParseExpr(queryPoint)
	ks := newKeyStream(s.in, s.in.seed+7, s.sz.batch)
	var sh *dynamicq.Shared
	var err error
	for rep := 0; rep < s.sz.probeReps; rep++ {
		runtime.GC()
		tr.span("dynamicq.compile_shared", 0, func() { sh, err = dynamicq.CompileShared(a, ex, compile.Options{}) })
		if err != nil {
			return err
		}
	}
	res := sh.Result()

	var q *dynamicq.Query[int64]
	for rep := 0; rep < s.sz.probeReps; rep++ {
		fresh := weights.Clone()
		tr.span("dynamicq.new_query", 0, func() { q = dynamicq.NewQuery(semiring.Nat, sh, fresh) })
		keys := ks.nextKeys(chunk)
		tr.calls("dynamicq.point", 0, chunk, func(i int) { _, err = q.Value(keys[i]) })
		if err != nil {
			return err
		}
		var sess *agg.Session
		tr.span("agg.session_open", 0, func() { sess, err = s.p.Session() })
		if err != nil {
			return err
		}
		sess.Close()
	}

	dyn := circuit.NewDynamicProgram(res.Program, semiring.Nat, compile.NewValuation(res, semiring.Nat, weights))
	inputs := func(n int) []circuit.InputChange[int64] {
		out := make([]circuit.InputChange[int64], n)
		for i, ch := range ks.nextChanges(n) {
			out[i] = circuit.InputChange[int64]{Key: structure.MakeWeightKey("u", ch.Tuple), Value: ch.Value}
		}
		return out
	}
	for rep := 0; rep < 4*s.sz.probeReps; rep++ {
		set := inputs(chunk)
		tr.calls("circuit.dyn_set", 0, chunk, func(i int) { dyn.SetInput(set[i].Key, set[i].Value) })
		batch := inputs(s.sz.batch)
		start := time.Now()
		dyn.ApplyBatch(batch)
		tr.add("circuit.dyn_batch", 0, -1, len(batch), start, time.Now())

		// Resolve 64 dirtied gates through a snapshot that is 64 epochs stale.
		snap := dyn.Snapshot()
		stale := inputs(chunk)
		for _, ch := range stale {
			dyn.SetInput(ch.Key, ch.Value)
		}
		gates := make([]int, chunk)
		for i, ch := range stale {
			if gates[i] = res.Program.InputGate(ch.Key); gates[i] < 0 { // a weight the circuit does not read
				gates[i] = res.Program.OutputGate()
			}
		}
		tr.calls("circuit.snapshot_value", 0, chunk, func(i int) { snap.GateValue(gates[i]) })
		snap.Release()
	}

	for rep := 0; rep < s.sz.probeReps; rep++ {
		r := rec{tr: tr, round: -1}
		s.round(&r)
		if r.failed > 0 {
			return fmt.Errorf("%d ops failed in a probe round", r.failed)
		}
	}
	return s.probeLive(tr)
}

// probeLive measures one in-process subscriber: the time from the return of
// the last Set of a small burst to the update of that epoch being yielded,
// and the share of evaluations the mailbox folded together.
func (s *sessionRW) probeLive(tr *tracer) error {
	sess, err := s.p.Session()
	if err != nil {
		return err
	}
	defer sess.Close()
	type stamped struct {
		u  agg.Update
		at time.Time
	}
	cctx, cancel := context.WithCancel(ctx)
	updates := make(chan stamped)
	var subErr error // written before updates is closed
	go func() {
		defer close(updates)
		for u, err := range sess.Subscribe(cctx, agg.SubscribePoint(s.ks.hot[0])) {
			if err != nil {
				subErr = err
				return
			}
			select {
			case updates <- stamped{u, time.Now()}:
			case <-cctx.Done():
				return
			}
		}
	}()
	// stop ends the subscription and waits for its goroutine.
	stop := func() error {
		cancel()
		for range updates {
		}
		if subErr != nil && !errors.Is(subErr, context.Canceled) {
			return subErr
		}
		return nil
	}
	defer stop()
	if _, ok := <-updates; !ok { // the initial state
		return fmt.Errorf("subscription ended before its first update: %v", subErr)
	}
	const burst = 4
	ks := newKeyStream(s.in, s.in.seed+11, burst)
	var delivered, coalesced float64
	for i := 0; i < chunk*s.sz.probeReps; i++ {
		for _, ch := range ks.nextChanges(burst) {
			if err := sess.Set(ch); err != nil {
				return err
			}
		}
		sent, epoch := time.Now(), sess.Epoch()
		for {
			got, ok := <-updates
			if !ok {
				return fmt.Errorf("subscription ended early: %v", subErr)
			}
			delivered++
			coalesced += float64(got.u.Coalesced)
			if got.u.Epoch >= epoch {
				if got.at.Before(sent) { // evaluated and yielded before this goroutine ran again
					got.at = sent
				}
				tr.add("live.push", 0, -1, 1, sent, got.at)
				break
			}
		}
	}
	tr.count("live.coalesced_frac", -1, coalesced/(coalesced+delivered))
	return stop()
}

// probe measures one /point three ways — the handler without a socket,
// the replica over HTTP, the replica through the router — and reads the
// server's and router's own counters.
func (f *fleetMix) probe(tr *tracer) error {
	for rep := 0; rep < 2; rep++ { // fills the compiled-query cache and the stage histograms
		r := rec{tr: tr, round: -1}
		f.round(&r)
		if r.failed > 0 {
			return fmt.Errorf("%d ops failed in a probe round", r.failed)
		}
	}
	s := f.sessions[0]
	handler := f.fl.Replica(0).Handler()
	direct, routed := f.fl.ReplicaURL(0), f.fl.URL()
	defer func() { f.base = routed }()
	for i := 0; i < chunk*f.sz.probeReps; i++ {
		body := fmt.Appendf(nil, `{"session":%q,"args":[%d]}`, s.name, s.ks.nextKeys(1)[0])
		req := httptest.NewRequest(http.MethodPost, "/point", bytes.NewReader(body))
		w := httptest.NewRecorder()
		tr.span("server.handler_point", 0, func() { handler.ServeHTTP(w, req) })
		if w.Code != http.StatusOK {
			return fmt.Errorf("handler /point: %d: %s", w.Code, w.Body.String())
		}
		var err error
		f.base = direct
		tr.span("server.http_point", 0, func() { err = f.post("/point", body) })
		if err != nil {
			return err
		}
		f.base = routed
		tr.span("fleet.point", 0, func() { err = f.post("/point", body) })
		if err != nil {
			return err
		}
	}

	var stats fleet.FleetStats
	if err := f.get(routed+"/stats", &stats); err != nil {
		return err
	}
	tr.count("server.cache_hit_frac", -1, float64(stats.Fleet.CacheHits)/float64(max(stats.Fleet.CacheHits+stats.Fleet.CacheMisses, 1)))
	tr.count("fleet.reroutes", -1, float64(stats.Router.Reroutes))
	var ms server.MetricsSnapshot
	if err := f.get(direct+"/metrics.json", &ms); err != nil {
		return err
	}
	for _, stage := range []string{"eval", "wave"} {
		h := ms.Stages[stage]
		tr.count("server.stage_"+stage+"_us", -1, float64(h.Quantile(0.5).Nanoseconds())/1e3)
	}
	return nil
}

func (f *fleetMix) get(url string, v any) error {
	resp, err := f.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// layerMetrics reduces the spans and counts of a traced run to the
// per-layer metrics.  A timing is the median of its spans.
func layerMetrics(tr *tracer) map[string]metricV {
	m := map[string]metricV{}
	us := func(metric, spanName string) float64 {
		v := median(tr.perCallUS(spanName))
		m[metric] = metricV{v, "us"}
		return v
	}
	ns := func(metric, spanName string) {
		m[metric] = metricV{median(tr.perCallUS(spanName)) * 1e3, "ns"}
	}
	counted := func(metric, unit string) float64 {
		v := median(tr.values(metric))
		m[metric] = metricV{v, unit}
		return v
	}

	us("dbio.load_us", "dbio.load")
	parse := us("parser.parse_us", "parser.parse")
	us("expr.normalize_us", "expr.normalize")
	us("qe.eliminate_us", "qe.eliminate")
	us("structure.gaifman_us", "structure.gaifman")
	us("graph.coloring_us", "graph.coloring")
	counted("graph.colors", "count")
	total := us("compile.total_us", "compile.total")
	m["compile.self_us"] = metricV{median(tr.selfUS("compile.total")), "us"}
	counted("compile.allocs", "count")
	counted("compile.bytes", "B")
	gates := tr.values("compile.gates")
	m["compile.gates_min"] = metricV{quantile(gates, 0), "count"}
	m["compile.gates_max"] = metricV{quantile(gates, 1), "count"}
	counted("compile.shapes", "count")
	counted("compile.forests", "count")
	counted("compile.color_assignments", "count")
	m["compile.scale_exp"] = metricV{math.Log2(median(tr.perCallUS("compile.total_2n")) / total), "ratio"}
	us("circuit.freeze_us", "circuit.freeze")
	counted("circuit.program_bytes", "B")
	eval := us("circuit.eval_us", "circuit.eval")
	m["circuit.eval_ns_per_gate"] = metricV{eval * 1e3 / median(tr.values("circuit.gates")), "ns"}
	us("circuit.eval_minplus_us", "circuit.eval_minplus")
	us("circuit.dyn_set_us", "circuit.dyn_set")
	ns("circuit.dyn_batch_ns_per_change", "circuit.dyn_batch")
	us("circuit.snapshot_value_us", "circuit.snapshot_value")
	us("dynamicq.compile_shared_us", "dynamicq.compile_shared")
	us("dynamicq.new_query_us", "dynamicq.new_query")
	us("dynamicq.point_us", "dynamicq.point")
	us("enumerate.preprocess_us", "enumerate.preprocess")
	us("enumerate.count_us", "enumerate.count")
	us("enumerate.first_answer_us", "enumerate.first_answer")
	ns("enumerate.delay_ns", "enumerate.delay")
	counted("enumerate.allocs_per_answer", "count")
	us("mvcc.pinned_set_us", "mvcc.pinned_set")
	us("mvcc.stale_read_us", "mvcc.stale_read")
	counted("mvcc.retained_undo_bytes", "B")
	// For a closed query dynamicq.CompileShared is compile.Compile plus
	// bookkeeping, so the facade's overhead is taken over compile.total.
	m["agg.prepare_overhead_us"] = metricV{median(tr.perCallUS("agg.prepare")) - parse - total, "us"}
	m["agg.eval_overhead_us"] = metricV{median(tr.perCallUS("agg.eval")) - eval, "us"}
	us("agg.session_open_us", "agg.session_open")
	ns("agg.batch_ns_per_change", "agg.batch")
	us("live.push_us", "live.push")
	counted("live.coalesced_frac", "frac")
	us("server.handler_point_us", "server.handler_point")
	direct := us("server.http_point_us", "server.http_point")
	counted("server.cache_hit_frac", "frac")
	counted("server.stage_eval_us", "us")
	counted("server.stage_wave_us", "us")
	m["fleet.hop_us"] = metricV{median(tr.perCallUS("fleet.point")) - direct, "us"}
	counted("fleet.reroutes", "count")
	return m
}
