package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); NaN for no samples, so a missing measurement is never mistaken for
// a fast one.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quietLow and quietHigh reduce a per-round series of latencies, or of rates,
// to the figure that is reported: its best decile.  On a shared box other
// tenants only ever add time, in stretches of milliseconds to minutes; over
// runs of identical code the median of the rounds spread about twice as far
// as their best decile, while the single best round is an extreme value and
// spread further again.
func quietLow(xs []float64) float64  { return quantile(xs, 0.10) }
func quietHigh(xs []float64) float64 { return quantile(xs, 0.90) }

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, capped at p99, with the percentile it settled on.  With
// fewer than 20 samples nothing above the median qualifies and the median is
// returned.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	pct = 99
	if beyond := float64(n) * 0.01; beyond < 10 {
		pct = math.Max(50, 100*(1-10/float64(n)))
	}
	return quantile(xs, pct/100), pct
}
