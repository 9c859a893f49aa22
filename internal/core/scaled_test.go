package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
)

// scaledFactors spans an admission search's range: its first probe (1/64),
// a light and a heavy point, the identity and a factor past saturation.
var scaledFactors = []float64{1.0 / 64, 0.37, 1, 2.5, 11}

// scaledMetrics is a four-device operating point with mixed traffic.
// Devices 0 and 3 report identical metrics, so a build deduplicates them
// into one mixture group.
func scaledMetrics(procs int, writes bool) []OnlineMetrics {
	ms := make([]OnlineMetrics, 4)
	for i := range ms {
		m := testMetrics()
		m.Rate = 20 + 5*float64(i%3)
		m.DataRate = m.Rate * 1.2
		m.MissData = 0.35 + 0.03*float64(i%3)
		m.Procs = procs
		if writes {
			m.WriteRate = 3 + float64(i%3)
			m.WriteChunks = 2.5
		}
		ms[i] = m
	}
	return ms
}

// buildScaledFresh builds the model of ms with every rate multiplied by
// factor from scratch, the way a serving layer builds a probe: identical
// scaled metrics share one device model, and the frontend carries the
// scaled total.
func buildScaledFresh(ms []OnlineMetrics, factor float64, opts Options) (*SystemModel, error) {
	props := testProps()
	built := make(map[OnlineMetrics]*DeviceModel, len(ms))
	devs := make([]*DeviceModel, 0, len(ms))
	total := 0.0
	for _, m := range ms {
		m.Rate *= factor
		m.DataRate *= factor
		m.WriteRate *= factor
		d := built[m]
		if d == nil {
			var err error
			if d, err = NewDeviceModel(props, m, opts); err != nil {
				return nil, err
			}
			built[m] = d
		}
		devs = append(devs, d)
		total += m.Rate + m.WriteRate
	}
	fe, err := NewFrontendModel(total, 4, props.ParseFE)
	if err != nil {
		return nil, err
	}
	return NewSystemModel(fe, devs, opts)
}

// scaledEval evaluates every entry point the scaled-model contract covers
// over one threshold grid and returns the values in a fixed order.
func scaledEval(t *testing.T, sys *SystemModel, writes bool) []float64 {
	t.Helper()
	ctx := context.Background()
	ts := []float64{0.005, 0.02, 0.06, 0.2}
	var out []float64
	for _, x := range ts {
		v, err := sys.CDFContext(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.BackendCDFContext(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v, b)
	}
	batch, err := sys.CDFBatchContext(ctx, ts)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := sys.CodedCDFBatchContext(ctx, CodedSpec{N: 3, K: 2}, ts[1:])
	if err != nil {
		t.Fatal(err)
	}
	out = append(append(out, batch...), coded...)
	if writes {
		w, err := sys.WriteCDFBatchContext(ctx, WriteSpec{N: 3, W: 2}, ts[1:])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w...)
	}
	return out
}

// TestScaledMatchesFreshBuild pins SystemModel.Scaled against a model
// built from the scaled metrics: every entry point agrees within 1e-12,
// overload is reported at the same factors, Scaled(1) evaluates bit for bit
// like its parent, and the leaves (with their value table) are shared with
// one process per disk but rebuilt with several, whose disk sojourn depends
// on the disk arrival rate.
func TestScaledMatchesFreshBuild(t *testing.T) {
	wtas := []struct {
		name string
		mode WTAMode
	}{{"approx", WTAApprox}, {"exact", WTAExact}, {"none", WTANone}}
	for _, procs := range []int{1, 4} {
		for _, w := range wtas {
			for _, odopr := range []bool{false, true} {
				for _, writes := range []bool{false, true} {
					name := fmt.Sprintf("procs%d/%s/odopr=%v/writes=%v", procs, w.name, odopr, writes)
					t.Run(name, func(t *testing.T) {
						checkScaled(t, procs, Options{WTA: w.mode, ODOPR: odopr}, writes)
					})
				}
			}
		}
	}
}

func checkScaled(t *testing.T, procs int, opts Options, writes bool) {
	ms := scaledMetrics(procs, writes)
	base, err := buildScaledFresh(ms, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := scaledEval(t, base, writes)
	overloaded := 0
	for _, f := range scaledFactors {
		fresh, errF := buildScaledFresh(ms, f, opts)
		scaled, errS := base.Scaled(f)
		if errors.Is(errF, ErrOverload) != errors.Is(errS, ErrOverload) || (errF == nil) != (errS == nil) {
			t.Fatalf("factor %v: fresh build error %v, Scaled error %v", f, errF, errS)
		}
		if errF != nil {
			overloaded++
			continue
		}
		if len(scaled.groups) != len(base.groups) {
			t.Fatalf("factor %v: %d groups, parent has %d", f, len(scaled.groups), len(base.groups))
		}
		for i, g := range scaled.groups {
			if shared := g.dev.lv == base.groups[i].dev.lv; shared != (procs == 1) {
				t.Errorf("factor %v group %d: leaves shared = %v with %d procs", f, i, shared, procs)
			}
		}
		got, exp := scaledEval(t, scaled, writes), scaledEval(t, fresh, writes)
		for k := range got {
			if d := math.Abs(got[k] - exp[k]); d > 1e-12 {
				t.Errorf("factor %v value %d: Scaled %v, fresh %v (|Δ| = %g)", f, k, got[k], exp[k], d)
			}
		}
		if f == 1 {
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("Scaled(1) value %d: %v, parent %v", k, got[k], want[k])
				}
			}
		}
	}
	if procs == 1 && overloaded == 0 {
		t.Error("no factor overloaded one process per disk; the overload pin is vacuous")
	}
}

// TestScaledRejectsBadFactor: a factor that is not positive and finite is
// a parameter error, not a model.
func TestScaledRejectsBadFactor(t *testing.T) {
	base, err := buildScaledFresh(scaledMetrics(1, false), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := base.Scaled(f); !errors.Is(err, ErrBadParams) {
			t.Errorf("Scaled(%v): %v, want ErrBadParams", f, err)
		}
	}
}

// TestScaledConcurrentShareLeafTable runs sibling Scaled models on a pooled
// engine concurrently, all reading one threshold's row of the shared leaf
// table (meaningful under -race): every value must equal the sequential
// evaluation of the same factor on an independently built parent.
func TestScaledConcurrentShareLeafTable(t *testing.T) {
	opts := Options{Workers: 4}
	ms := scaledMetrics(1, true)
	const sla = 0.05
	factors := []float64{0.2, 0.4, 0.6, 0.8, 1, 1.2, 1.4, 1.6}
	ref, err := buildScaledFresh(ms, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(factors))
	for i, f := range factors {
		sys, err := ref.Scaled(f)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = sys.CDFContext(context.Background(), sla); err != nil {
			t.Fatal(err)
		}
	}
	base, err := buildScaledFresh(ms, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(factors))
	errs := make([]error, len(factors))
	var wg sync.WaitGroup
	for i, f := range factors {
		wg.Add(1)
		go func(i int, f float64) {
			defer wg.Done()
			sys, err := base.Scaled(f)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = sys.CDFContext(context.Background(), sla)
		}(i, f)
	}
	wg.Wait()
	for i := range factors {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("factor %v: concurrent %v, sequential %v", factors[i], got[i], want[i])
		}
	}
	if rows := len(base.groups[0].dev.lv.table.rows); rows != 1 {
		t.Errorf("one threshold filled %d leaf-table rows", rows)
	}
}

// TestScaledProbeAllocs bounds the cost of one admission probe once its
// threshold's leaf row exists: scaling the model and evaluating the CDF.
// A scaled model rebuilds only queueing state; an eager rebuild of leaf
// transforms or composed closures would show up here.
func TestScaledProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	base, err := buildScaledFresh(scaledMetrics(1, false), 1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const sla = 0.05
	if _, err := base.CDFContext(ctx, sla); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sys, err := base.Scaled(0.8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.CDFContext(ctx, sla); err != nil {
			t.Fatal(err)
		}
	})
	// Measured at 16 on amd64/go1.24: the scaled device models and
	// frontend, the system shell with its group slice and dedupe map, and
	// the evaluation's span and fan-out closures. A fresh build of the same
	// probe costs over 100.
	if allocs > 16 {
		t.Errorf("one scaled probe allocates %v objects, want <= 16", allocs)
	}
}

// TestLeafTableKeepsQuadrature: device and frontend models shared by two
// system models whose inverters differ (Euler's 27 nodes, Talbot's 32)
// must not serve one quadrature's leaf row to the other.
func TestLeafTableKeepsQuadrature(t *testing.T) {
	talbot := Options{Inverter: numeric.NewTalbot()}
	devs := engineDevices(t, 3, 1, Options{})
	rate := 0.0
	for _, d := range devs {
		rate += d.Rate()
	}
	fe, err := NewFrontendModel(rate, 4, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	viaEuler, err := NewSystemModel(fe, devs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaTalbot, err := NewSystemModel(fe, devs, talbot)
	if err != nil {
		t.Fatal(err)
	}
	ref := engineSystem(t, 3, 1, talbot)
	ctx := context.Background()
	for _, x := range []float64{0.01, 0.05, 0.1} {
		if _, err := viaEuler.CDFContext(ctx, x); err != nil {
			t.Fatal(err)
		}
		got, err := viaTalbot.CDFContext(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.CDFContext(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("t=%v: Talbot over shared models %v, over its own %v", x, got, want)
		}
	}
}

// TestScaledHeterogeneousFrontend: a tier of frontend sets scales by
// scaling every set's rate, and the engine evaluates the tier's mixed
// sojourn like the opaque-inverter closure path does.
func TestScaledHeterogeneousFrontend(t *testing.T) {
	build := func(f float64, opts Options) *SystemModel {
		t.Helper()
		fe, err := NewHeterogeneousFrontend([]FrontendSet{
			{Rate: 70 * f, Procs: 2, Parse: dist.Degenerate{Value: 0.2e-3}},
			{Rate: 30 * f, Procs: 2, Parse: dist.Degenerate{Value: 0.6e-3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var devs []*DeviceModel
		for _, m := range scaledMetrics(1, false) {
			m.Rate *= f
			m.DataRate *= f
			d, err := NewDeviceModel(testProps(), m, opts)
			if err != nil {
				t.Fatal(err)
			}
			devs = append(devs, d)
		}
		sys, err := NewSystemModel(fe, devs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	scaled, err := build(1, Options{}).Scaled(2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := build(2, Options{})
	legacy := build(2, Options{Inverter: opaqueInverter{numeric.NewEuler()}})
	for _, x := range []float64{0.01, 0.05, 0.1} {
		got, want, ref := scaled.CDF(x), fresh.CDF(x), legacy.CDF(x)
		if math.Abs(got-want) > 1e-12 || math.Abs(want-ref) > 1e-12 {
			t.Errorf("t=%v: Scaled %v, fresh %v, closure path %v", x, got, want, ref)
		}
	}
}
