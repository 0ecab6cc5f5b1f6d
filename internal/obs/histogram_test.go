package obs

import (
	"context"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Buckets must tile the uint64 value space with no gaps or overlaps, and
// bucketOf must land every value inside its reported bounds.
func TestBucketBoundsTile(t *testing.T) {
	for b := 0; b < NumBuckets-1; b++ {
		_, hi := BucketBounds(b)
		lo, _ := BucketBounds(b + 1)
		if hi != lo {
			t.Fatalf("bucket %d hi=%d but bucket %d lo=%d", b, hi, b+1, lo)
		}
	}
	lo0, _ := BucketBounds(0)
	if lo0 != 0 {
		t.Fatalf("bucket 0 lo=%d, want 0", lo0)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		// Spread samples over all magnitudes, not uniformly over uint64.
		v := rng.Uint64() >> (rng.UintN(64))
		b := bucketOf(v)
		if b < 0 || b >= NumBuckets {
			t.Fatalf("bucketOf(%d)=%d out of range", v, b)
		}
		lo, hi := BucketBounds(b)
		if v < lo || (v >= hi && b != NumBuckets-1) {
			t.Fatalf("bucketOf(%d)=%d but bounds [%d,%d)", v, b, lo, hi)
		}
	}
	// Max value must still bucket in range.
	if b := bucketOf(^uint64(0)); b != NumBuckets-1 {
		t.Fatalf("bucketOf(max)=%d, want %d", b, NumBuckets-1)
	}

	// Relative bucket width stays under 1/subCount beyond the linear range.
	for b := 2 * subCount; b < NumBuckets-1; b++ {
		lo, hi := BucketBounds(b)
		if float64(hi-lo)/float64(lo) > 1.0/subCount+1e-12 {
			t.Fatalf("bucket %d [%d,%d) wider than %.3f relative", b, lo, hi, 1.0/subCount)
		}
	}
}

// Quantile estimates must stay within one bucket width (≤12.5% relative,
// plus slack for interpolation at tiny counts) of the exact order statistic.
func TestQuantileVsExactSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	h := NewHistogram()
	const n = 20000
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Log-normal-ish latencies: microseconds to tens of millis.
		v := time.Duration(1000 * (1 << rng.UintN(15)) * (1 + rng.UintN(8)) / 8)
		h.Observe(v)
		samples = append(samples, float64(v))
	}
	sort.Float64s(samples)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(q*float64(n-1))]
		got := float64(s.Quantile(q))
		rel := (got - exact) / exact
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.15 {
			t.Errorf("q=%.2f: got %.0f exact %.0f (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func TestSnapshotMergeAndMean(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Microsecond)
	}
	for i := 1; i <= 50; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(&sb)
	if merged.Count != sa.Count+sb.Count {
		t.Fatalf("merged count %d, want %d", merged.Count, sa.Count+sb.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merged sum %v, want %v", merged.Sum, sa.Sum+sb.Sum)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != sa.Counts[i]+sb.Counts[i] {
			t.Fatalf("bucket %d: merged %d, want %d", i, merged.Counts[i], sa.Counts[i]+sb.Counts[i])
		}
	}
	var empty Snapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot should report zeros")
	}
}

// Hammer one histogram from 16 goroutines; the final snapshot must account
// for every observation exactly (counts and sum are atomic per shard).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const (
		goroutines = 16
		perG       = 5000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := uint64(goroutines * perG); s.Count != want {
		t.Fatalf("count %d, want %d", s.Count, want)
	}
	total := time.Duration(0)
	n := int64(goroutines * perG)
	total = time.Duration(n * (n - 1) / 2)
	if s.Sum != total {
		t.Fatalf("sum %d, want %d", s.Sum, total)
	}
}

func TestNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var tr *Tracer
	tr.Observe(StageEval, time.Second)
	tr.StartSpan(StageParse).End()
	if tr.Stage(StageWave) != nil {
		t.Fatal("nil tracer stage not nil")
	}
	if tr.WaveHook() != nil {
		t.Fatal("nil tracer wave hook not nil")
	}
	Span{}.End() // zero span is inert
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no tracer")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatal("nil context should carry no tracer")
	}
}

func TestTracerSpansAndContext(t *testing.T) {
	tr := NewTracer()
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("context round-trip lost the tracer")
	}
	sp := FromContext(ctx).StartSpan(StageCompile)
	time.Sleep(time.Millisecond)
	sp.End()
	s := tr.Stage(StageCompile).Snapshot()
	if s.Count != 1 {
		t.Fatalf("compile stage count %d, want 1", s.Count)
	}
	if s.Sum < 500*time.Microsecond {
		t.Fatalf("compile stage sum %v implausibly small", s.Sum)
	}
	hook := tr.WaveHook()
	hook(3 * time.Microsecond)
	if got := tr.Stage(StageWave).Snapshot().Count; got != 1 {
		t.Fatalf("wave count %d, want 1", got)
	}
	if StageParse.String() != "parse" || StageWave.String() != "wave" {
		t.Fatal("stage names wrong")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Fatal("nil tracer should leave ctx unchanged")
	}
}

// The exposition writer must emit monotone cumulative buckets ending at the
// exact count, and a parsable minimal line shape.
func TestPrometheusHistogramLines(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	var b strings.Builder
	pw := NewWriter(&b)
	pw.Header("x_seconds", "test", "histogram")
	pw.Histogram("x_seconds", Labels{"endpoint": "query"}, &s)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var prev int64 = -1
	lines := strings.Split(strings.TrimSpace(out), "\n")
	sawInf, sawCount := false, false
	for _, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "x_seconds_bucket"):
			if !strings.Contains(ln, `endpoint="query"`) || !strings.Contains(ln, `le="`) {
				t.Fatalf("bucket line missing labels: %q", ln)
			}
			v, err := strconv.ParseInt(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("unparsable bucket line %q: %v", ln, err)
			}
			if v < prev {
				t.Fatalf("cumulative buckets not monotone: %q after %d", ln, prev)
			}
			prev = v
			if strings.Contains(ln, `le="+Inf"`) {
				sawInf = true
				if uint64(v) != s.Count {
					t.Fatalf("+Inf bucket %d != count %d", v, s.Count)
				}
			}
		case strings.HasPrefix(ln, "x_seconds_count"):
			sawCount = true
		}
	}
	if !sawInf || !sawCount {
		t.Fatalf("missing +Inf bucket or _count in:\n%s", out)
	}
}
