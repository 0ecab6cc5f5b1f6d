package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/semiring"
	"repro/internal/structure"
)

func tinyConfig(t *testing.T, seed int64) config {
	return config{seed: seed, rounds: 3, sz: tinySizes, out: t.TempDir()}
}

// Same seed, same work: the op sequence, the op and answer counts and the
// final session values repeat exactly.  Another seed, other inputs.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var fps []fingerprint
			for _, seed := range []int64{1, 1, 2} {
				res, err := measure(w, tinyConfig(t, seed))
				if err != nil {
					t.Fatal(err)
				}
				if err := res.check(); err != nil {
					t.Fatal(err)
				}
				if res.Rounds != 3 || res.Fingerprint.Count == 0 {
					t.Fatalf("rounds=%d count=%d", res.Rounds, res.Fingerprint.Count)
				}
				fps = append(fps, res.Fingerprint)
			}
			if !reflect.DeepEqual(fps[0], fps[1]) {
				t.Errorf("seed 1 twice:\n%+v\n%+v", fps[0], fps[1])
			}
			if fps[0].Input == fps[2].Input {
				t.Errorf("seeds 1 and 2 generated the same database %s", fps[0].Input)
			}
		})
	}
}

// The benchmark's references are direct adjacency walks because the
// baseline's are cubic; at the tiny size the two must agree.
func TestReferencesAgreeWithBaseline(t *testing.T) {
	for _, kind := range []string{"bounded-degree", "pref-attach"} {
		in, err := newInputs(kind, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		nat := func(query string, env map[string]structure.Element) string {
			return strconv.FormatInt(expr.Eval(semiring.Nat, in.a, in.w, parser.MustParseExpr(query), env), 10)
		}
		for query, got := range map[string]string{queryTriangle: in.triRef, queryExists: in.exRef, queryEdges: in.edgeRef} {
			if want := nat(query, map[string]structure.Element{}); got != want {
				t.Errorf("%s: %s: reference %s, baseline %s", kind, query, got, want)
			}
		}
		u := in.vertexWeights()
		for x := 0; x < in.n; x++ {
			if got, want := in.pointAt(u, x), nat(queryPoint, map[string]structure.Element{"x": x}); got != want {
				t.Errorf("%s: point %d: %s, baseline %s", kind, x, got, want)
			}
		}
		phi := parser.MustParseFormula(queryPath)
		var want [][3]int
		for _, tup := range baseline.MaterializeAnswers(phi, in.a, logic.FreeVars(phi)) {
			want = append(want, [3]int{tup[0], tup[1], tup[2]})
		}
		if got := in.pathRef; !slices.Equal(got, want) {
			t.Errorf("%s: %d path answers, baseline %d", kind, len(got), len(want))
		}
	}
}

// A traced run reports exactly the per-layer metrics BENCHMARK.json names,
// with their units, and its trace file parses; the end-to-end table and the
// workload list agree with the file too.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef                   `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: file %+v, code %+v", decl.EndToEnd, endToEnd)
	}
	for i, w := range workloads {
		if i >= len(decl.Workloads) || decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: code has %q", i, w.name)
		}
	}

	w, _ := findWorkload("session_rw")
	cfg := tinyConfig(t, 1)
	res, err := measureTraced(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.check(); err != nil {
		t.Error(err)
	}
	if len(res.Metrics) != len(decl.PerLayer) {
		t.Errorf("traced run has %d metrics, file %d", len(res.Metrics), len(decl.PerLayer))
	}
	for _, d := range decl.PerLayer {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("per_layer %s [%s]: traced run has %+v (present=%v)", d.Name, d.Unit, m, ok)
		}
	}
	traceRaw, err := os.ReadFile(cfg.out + "/session_rw.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(traceRaw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Counts) == 0 {
		t.Errorf("trace has %d spans and %d counts", len(tf.Spans), len(tf.Counts))
	}
}

func TestStats(t *testing.T) {
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a fast sample")
	}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); pct != 99 || math.Abs(v-1979.01) > 0.01 {
		t.Errorf("tail of 2000 = %v at p%v", v, pct)
	}
	// 100 samples: p99 has one sample beyond it, p90 has ten.
	if _, pct := tail(xs[:100]); pct != 90 {
		t.Errorf("tail of 100 settled on p%v", pct)
	}
	if _, pct := tail(xs[:7]); pct != 50 {
		t.Errorf("tail of 7 settled on p%v", pct)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	parent := tr.add("compile.total", 0, -1, 1, at(0), at(100))
	tr.add("expr.normalize", parent, -1, 1, at(200), at(210)) // replayed after, not nested in time
	tr.add("circuit.freeze", parent, -1, 1, at(210), at(240))
	tr.add("other", 0, -1, 64, at(300), at(364))
	if got := tr.selfUS("compile.total"); !slices.Equal(got, []float64{60}) {
		t.Errorf("self = %v", got)
	}
	if got := tr.perCallUS("other"); !slices.Equal(got, []float64{1}) {
		t.Errorf("per call = %v", got)
	}
}
