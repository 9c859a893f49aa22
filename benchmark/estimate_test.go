package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 6, 8, 7, 10, 9}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: %v, want NaN", got)
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// A failed op enters as +Inf: it must push the percentiles it reaches to
// +Inf instead of disappearing.
func TestPercentileCountsFailuresAsInf(t *testing.T) {
	inf := math.Inf(1)
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, inf}
	if got := percentile(s, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(s, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(s, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 = %v, want +Inf", got)
	}
	s[0] = inf
	if got := percentile(s, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 2 of 10 failed = %v, want +Inf", got)
	}
}

func TestWindowPercentile(t *testing.T) {
	inf := math.Inf(1)
	byWin := [][]float64{
		{1, 1, 100}, // one stalled pass: the window's median stays 1
		{2, 2, 2},
		{3, 50, 3},
		nil,           // window never replayed
		{inf, inf, 4}, // failed in most passes
	}
	if got := windowPercentile(byWin, 0.5); got != 2 {
		t.Errorf("median over windows = %v, want 2", got)
	}
	if got := windowPercentile(byWin, 0.75); got != 3 {
		t.Errorf("p75 over windows = %v, want 3", got)
	}
	if got := windowPercentile(byWin, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 over windows = %v, want +Inf from the failing window", got)
	}
}

func TestBinMedian(t *testing.T) {
	if got := binMedian([]int64{900, 10, 1000, 1100, 950}); got != 950 {
		t.Errorf("odd bins: %v, want 950 (the stalled 10 ops/s bin is ignored)", got)
	}
	if got := binMedian([]int64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even bins: %v, want 2.5", got)
	}
	if got := binMedian(nil); !math.IsNaN(got) {
		t.Errorf("no bins: %v, want NaN", got)
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {100000, 0.9999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("n=%d: %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	s := []span{{0, 10}, {5, 15}, {20, 30}, {21, 22}}
	if got := covered(s); got != 25 {
		t.Errorf("covered = %v, want 25", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %v", got)
	}
}
