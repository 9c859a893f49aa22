package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
)

// gridSystem builds a one-device system whose frontend runs procs
// processes of the given parse distribution at per-process utilization rho.
func gridSystem(t *testing.T, parse dist.Distribution, procs int, rho float64, opts Options) *SystemModel {
	t.Helper()
	fe, err := NewFrontendModel(rho*float64(procs)/parse.Mean(), procs, parse)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeviceModel(testProps(), testMetrics(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{d}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// referenceGrid discretizes the frontend sojourn point by point from the
// closed-form q.SojournLST() through the unguarded Euler inversion, with
// every point below the parse floor set to 0.
func referenceGrid(fe *FrontendModel) (pts, masses []float64) {
	sq := fe.q.SojournLST()
	span := 12 * sq.Mean
	inv := numeric.NewEuler()
	pts = make([]float64, codedFrontendGridPoints)
	masses = make([]float64, codedFrontendGridPoints)
	prev := 0.0
	for i := range pts {
		x := span * float64(i+1) / codedFrontendGridPoints
		pts[i] = x
		v := 0.0
		if fe.Parse.CDF(x) != 0 {
			v = numeric.InvertCDF(inv, sq.F, x)
		}
		if v < prev {
			v = prev
		}
		masses[i] = v - prev
		prev = v
	}
	masses[len(masses)-1] += 1 - prev
	return pts, masses
}

// TestFrontendGridMatchesReference pins the skipping grid (parse floor,
// saturation stop, guarded inversion) bit for bit against the per-point
// reference across parse shapes, process counts and loads.
func TestFrontendGridMatchesReference(t *testing.T) {
	const mean = 0.3e-3
	parses := []dist.Distribution{
		dist.Degenerate{Value: mean},
		dist.NewGammaMeanSCV(mean, 0.5),
		dist.NewGammaMeanSCV(mean, 2),
		dist.NewExponentialMean(mean),
	}
	for _, parse := range parses {
		for _, procs := range []int{1, 4, 12} {
			for _, rho := range []float64{0.004, 0.1, 0.5, 0.9, 0.98} {
				name := fmt.Sprintf("%T/scv=%.2g/procs=%d/rho=%g", parse, parse.Variance()/(mean*mean), procs, rho)
				t.Run(name, func(t *testing.T) {
					sys := gridSystem(t, parse, procs, rho, Options{})
					pts, masses, err := sys.frontendGrid()
					if err != nil {
						t.Fatal(err)
					}
					wantPts, wantMasses := referenceGrid(sys.frontend)
					for i := range pts {
						if pts[i] != wantPts[i] || masses[i] != wantMasses[i] {
							t.Fatalf("point %d: (%v, %v), reference (%v, %v)",
								i, pts[i], masses[i], wantPts[i], wantMasses[i])
						}
					}
				})
			}
		}
	}
}

// countingInverter counts primary inversions. It deliberately hides the
// wrapped inverter's quadrature, so every inversion goes through Invert.
type countingInverter struct {
	inv   numeric.Inverter
	calls *atomic.Int64
}

func (c countingInverter) Invert(f numeric.TransformFunc, t float64) float64 {
	c.calls.Add(1)
	return c.inv.Invert(f, t)
}
func (c countingInverter) Name() string { return c.inv.Name() }

// TestFrontendGridInvertsOnlyMassPoints: a deterministic 0.3 ms parse on
// 12 processes at 150 req/s puts all of Sq's mass within a few grid
// points of the parse time. The points below it are exactly 0 and those
// past saturation exactly 0 increments, so only 3 of the 48 are inverted.
func TestFrontendGridInvertsOnlyMassPoints(t *testing.T) {
	calls := &atomic.Int64{}
	sys := gridSystem(t, dist.Degenerate{Value: 0.3e-3}, 12, 150*0.3e-3/12,
		Options{Inverter: countingInverter{inv: numeric.NewEuler(), calls: calls}})
	_, masses, err := sys.frontendGrid()
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("grid made %d primary inversions, want 3", n)
	}
	total := 0.0
	for _, m := range masses {
		total += m
	}
	if math.Abs(total-1) > 1e-15 {
		t.Errorf("grid masses sum to %v", total)
	}
}

// gridNaNInverter poisons every inversion below cutoff — the whole
// frontend grid — and inverts with Euler above it, where the backend
// order-statistic probes of SLAs well above the grid span lie.
type gridNaNInverter struct{ cutoff float64 }

var gridNaNEuler = numeric.NewEuler()

func (g gridNaNInverter) Invert(f numeric.TransformFunc, t float64) float64 {
	if t < g.cutoff {
		return math.NaN()
	}
	return gridNaNEuler.Invert(f, t)
}
func (gridNaNInverter) Name() string { return "grid-nan" }

// TestFrontendGridSurfacesPoisonedInversion: a NaN grid inversion is
// validated before any clamp, so with the fallback chain disabled the
// coded and write batches fail with ErrNumerical instead of piling the
// whole frontend mass on the last grid point; with the default chain the
// grid recovers, reports the fallback and matches a healthy model.
func TestFrontendGridSurfacesPoisonedInversion(t *testing.T) {
	ctx := context.Background()
	slas := []float64{0.05, 0.1, 0.2}
	poisoned := Options{Inverter: gridNaNInverter{cutoff: 0.01}, Fallbacks: []numeric.Inverter{}}
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, numeric.ErrNumerical) {
			t.Fatalf("%s: err = %v, want ErrNumerical", name, err)
		}
		var ie *numeric.InversionError
		if !errors.As(err, &ie) || !strings.HasPrefix(ie.Reason, "frontend sojourn grid") {
			t.Errorf("%s: err = %v, want a frontend-grid InversionError", name, err)
		}
	}
	_, err := buildCodedTestSystem(t, 3, poisoned).CodedCDFBatchContext(ctx, CodedSpec{N: 6, K: 4}, slas)
	check("coded", err)
	_, err = buildWriteTestSystem(t, 3, poisoned).WriteCDFBatchContext(ctx, WriteSpec{N: 3, W: 2}, slas)
	check("write", err)

	var fired atomic.Int64
	recovered := Options{
		Inverter:   gridNaNInverter{cutoff: 0.01},
		OnFallback: func(string, string) { fired.Add(1) },
	}
	got, err := buildCodedTestSystem(t, 3, recovered).CodedCDFBatchContext(ctx, CodedSpec{N: 6, K: 4}, slas)
	if err != nil {
		t.Fatalf("default fallback chain should recover the grid: %v", err)
	}
	if fired.Load() == 0 {
		t.Error("grid recovery never fired OnFallback")
	}
	want, err := buildCodedTestSystem(t, 3, Options{}).CodedCDFBatchContext(ctx, CodedSpec{N: 6, K: 4}, slas)
	if err != nil {
		t.Fatal(err)
	}
	for i := range slas {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("sla %v: recovered %v, healthy %v", slas[i], got[i], want[i])
		}
	}
}
