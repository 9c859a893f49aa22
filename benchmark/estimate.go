package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples.
// Failed operations enter as +Inf, so a failure rate above 1-p pushes the
// percentile to +Inf instead of hiding it. It returns NaN for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// windowPercentile is the gated latency estimator: the p-quantile over
// corpus windows of each window's median latency across passes. Every pass
// replays the same work per window, so the per-window median filters out a
// stall that hits one pass (VM steal, a GC cycle) while the quantile across
// windows keeps the spread of work between operating points. A window whose
// op failed in most passes has a +Inf median.
func windowPercentile(byWin [][]float64, p float64) float64 {
	var meds []float64
	for _, s := range byWin {
		if len(s) > 0 {
			meds = append(meds, median(s))
		}
	}
	return percentile(meds, p)
}

// median is percentile(samples, 0.5).
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// tailLadder lists the percentiles reported as diagnostics, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestSupported returns the highest percentile on tailLadder that has
// at least ten of n samples beyond it, or 0 when even the median has not.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-6 { // tolerate 1-p rounding
			best = p
		}
	}
	return best
}

// binMedian is the throughput estimator: the median over one-second bins of
// operations completed in each. A stall from a noisy neighbour costs one
// bin instead of dragging a whole-run mean.
func binMedian(bins []int64) float64 {
	if len(bins) == 0 {
		return math.NaN()
	}
	v := make([]float64, len(bins))
	for i, b := range bins {
		v[i] = float64(b)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// mean returns the arithmetic mean, NaN for no samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
