// Package obs is the observability layer of the serving stack: lock-free
// latency histograms, a stage tracer carried on context.Context, and
// Prometheus text-format exposition helpers.  It is deliberately dependency
// free (standard library only) so every layer — the agg facade, the circuit
// engines and the HTTP server — can record into it without import cycles.
//
// The design constraint is the paper's O(log n)-per-update guarantee: the
// hot paths being observed run in microseconds, so recording must cost a
// handful of nanoseconds (one bucket computation plus one atomic add) and
// must never allocate, and the *un*instrumented paths must not even read a
// clock (engines guard their hooks with a nil check).
package obs

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Log-linear bucketing, HDR-histogram style: each power-of-two octave of
// nanoseconds is split into subCount linear sub-buckets, so the relative
// width of any bucket is at most 1/subCount (12.5%) while the whole range of
// a time.Duration still fits in a few hundred buckets.
const (
	subBits  = 3
	subCount = 1 << subBits // linear sub-buckets per octave

	// NumBuckets covers every uint64 nanosecond value: values below
	// subCount get exact unit buckets, and each of the remaining octaves
	// contributes subCount buckets.
	NumBuckets = (64-subBits)*subCount + subCount
)

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // 2^exp <= v < 2^(exp+1), exp >= subBits
	return (exp-subBits)*subCount + int(v>>uint(exp-subBits))
}

// BucketBounds returns the half-open nanosecond range [lo, hi) of bucket b.
// Buckets tile the value space: hi of bucket b equals lo of bucket b+1.  The
// final bucket is closed at the top of the uint64 range (hi = MaxUint64,
// inclusive), since its true upper bound 2^64 is not representable.
func BucketBounds(b int) (lo, hi uint64) {
	if b < 2*subCount {
		return uint64(b), uint64(b) + 1
	}
	exp := b/subCount + subBits - 1
	shift := uint(exp - subBits)
	m := uint64(b) - uint64(exp-subBits)*subCount // in [subCount, 2*subCount)
	if b == NumBuckets-1 {
		return m << shift, ^uint64(0)
	}
	return m << shift, (m + 1) << shift
}

// numShards spreads concurrent writers over independent counter arrays so
// goroutines observing similar latencies do not serialise on one cache line.
// Must be a power of two.
const numShards = 8

type histShard struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64 // total nanoseconds observed by this shard
}

// Histogram is a lock-free, sharded latency histogram.  Observe may be
// called from any number of goroutines concurrently and never allocates; a
// nil *Histogram discards observations, so call sites need no guards.
type Histogram struct {
	shards [numShards]histShard
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration.  Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	// rand/v2 reads the runtime's per-thread generator: no locks, no
	// allocation, and unlike a shared round-robin counter it introduces no
	// cross-goroutine contention of its own.
	sh := &h.shards[rand.Uint32()&(numShards-1)]
	sh.counts[bucketOf(v)].Add(1)
	sh.sum.Add(int64(v))
}

// Snapshot is a point-in-time, mergeable copy of a histogram's counters.
type Snapshot struct {
	Count  uint64
	Sum    time.Duration
	Counts [NumBuckets]uint64
}

// Snapshot merges the shards into one consistent-enough view (each counter
// is read atomically; the set of counters is read without a global lock, as
// usual for monitoring counters).  A nil histogram yields an empty snapshot.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			if c := sh.counts[b].Load(); c != 0 {
				s.Counts[b] += c
				s.Count += c
			}
		}
		s.Sum += time.Duration(sh.sum.Load())
	}
	return s
}

// Merge adds another snapshot into s, so per-replica (or per-endpoint)
// histograms can be aggregated fleet-wide.
func (s *Snapshot) Merge(o *Snapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for b := range s.Counts {
		s.Counts[b] += o.Counts[b]
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) with linear interpolation
// inside the containing bucket; the estimate is within one bucket width
// (≤ 12.5% relative) of the exact order statistic.  Returns 0 when empty.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// 0-based fractional rank over the sorted observations.
	pos := q * float64(s.Count-1)
	cum := uint64(0)
	for b := range s.Counts {
		c := s.Counts[b]
		if c == 0 {
			continue
		}
		if pos < float64(cum+c) {
			lo, hi := BucketBounds(b)
			frac := (pos - float64(cum)) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	// Numerical fall-through: return the upper bound of the last non-empty
	// bucket.
	for b := NumBuckets - 1; b >= 0; b-- {
		if s.Counts[b] != 0 {
			_, hi := BucketBounds(b)
			return time.Duration(hi)
		}
	}
	return 0
}

// Seconds converts a duration to the float seconds Prometheus expects.
func Seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
