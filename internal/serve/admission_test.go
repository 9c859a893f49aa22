package serve

import (
	"context"
	"testing"

	"cosmodel/internal/core"
)

// evaluate answers one plain admission probe over a snapshot, outside any
// search: the same memoized evaluation an advise call performs at factor.
func (e *Engine) evaluate(ctx context.Context, ms []core.OnlineMetrics, key string, sla, factor float64) (cachedValue, bool, error) {
	return e.plainAdmission(ms, key).probe(ctx, sla, factor)
}

// heteroEngine returns an engine whose four devices run at distinct rates,
// so every probe model has four mixture groups.
func heteroEngine(t testing.TB) *Engine {
	t.Helper()
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Observation, eng.Config().Devices)
	for d := range batch {
		batch[d] = obsAtRate(d, 40+10*float64(d))
	}
	if err := eng.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestAdviseIndependentOfProbeHistory pins that an admission answer is a
// function of the engine state and the query alone. Probe cache keys round
// the load factor to 3 significant digits; a probe built at the exact
// factor would hand its margin to every later probe in the same bucket, so
// an engine pre-warmed by a search at another target would answer
// differently from a cold one. The targets sit close together so the
// searches converge on neighbouring rates and share probe buckets.
func TestAdviseIndependentOfProbeHistory(t *testing.T) {
	const sla = 0.05
	targets := []float64{0.9, 0.9002, 0.9005, 0.901, 0.902, 0.905}
	for _, target := range targets {
		for _, warm := range targets {
			if warm == target {
				continue
			}
			cold := heteroEngine(t)
			want, err := cold.Advise(sla, target)
			if err != nil {
				t.Fatal(err)
			}
			warmed := heteroEngine(t)
			if _, err := warmed.Advise(sla, warm); err != nil {
				t.Fatal(err)
			}
			got, err := warmed.Advise(sla, target)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("target %v after a search at %v: %+v, cold engine %+v", target, warm, got, want)
			}
		}
	}
}

// TestCachedAdviseBuildsNoModel: a cold advise builds the current point's
// model once and scales every other probe from it; a repeat of the same
// advise is answered from the cache without building anything.
func TestCachedAdviseBuildsNoModel(t *testing.T) {
	eng := heteroEngine(t)
	if _, err := eng.Advise(0.05, 0.9); err != nil {
		t.Fatal(err)
	}
	full, scaled, misses := eng.builds.Value(), eng.scaled.Value(), eng.cache.stats().Misses
	if full != 1 {
		t.Errorf("cold advise made %d full builds, want 1", full)
	}
	if scaled != misses-1 {
		t.Errorf("cold advise scaled %d probe models for %d cache misses, want misses-1", scaled, misses)
	}
	if _, err := eng.Advise(0.05, 0.9); err != nil {
		t.Fatal(err)
	}
	if f, s := eng.builds.Value(), eng.scaled.Value(); f != full || s != scaled {
		t.Errorf("cached advise built models: full %d→%d, scaled %d→%d", full, f, scaled, s)
	}
	if m := eng.cache.stats().Misses; m != misses {
		t.Errorf("cached advise missed the cache %d times", m-misses)
	}
}

// TestAdviseOverloadedCurrentPoint: with the current point past
// saturation there is no base model to scale, and each probe is built from
// the snapshot instead; the search still finds the admissible rate below.
func TestAdviseOverloadedCurrentPoint(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, eng, 800)
	adv, err := eng.Advise(0.05, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Saturated || adv.Admit {
		t.Fatalf("overloaded point advised as %+v", adv)
	}
	if adv.MaxAdmissibleRate <= 0 || adv.MaxAdmissibleRate >= adv.CurrentRate {
		t.Errorf("max admissible rate %v for current %v", adv.MaxAdmissibleRate, adv.CurrentRate)
	}
	if s := eng.scaled.Value(); s != 0 {
		t.Errorf("%d probe models scaled from an overloaded base", s)
	}
}

// BenchmarkAdviseCold measures one admission search with every probe
// missing the cache: the current point's build, the scaled probe models
// and their inversions.
func BenchmarkAdviseCold(b *testing.B) {
	eng := heteroEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.InvalidateCache()
		if _, err := eng.AdviseContext(ctx, 0.05, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictMixedCold measures one cold /predict grid per query shape
// on a mixed read/write operating point: the plain mixture, a W-of-N write
// quorum and a k-of-n coded read, each missing the cache. The write and
// coded shapes add the frontend sojourn grid and the order-statistic batch.
func BenchmarkPredictMixedCold(b *testing.B) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	ingestMixed(b, eng, 40, 8)
	ctx := context.Background()
	for _, bc := range []struct {
		name    string
		predict func() ([]Prediction, error)
	}{
		{"plain", func() ([]Prediction, error) { return eng.PredictContext(ctx, nil) }},
		{"write_3_2", func() ([]Prediction, error) { return eng.PredictWriteContext(ctx, WriteSpec{N: 3, W: 2}, nil) }},
		{"coded_6_4", func() ([]Prediction, error) { return eng.PredictCodedContext(ctx, CodedReadSpec{N: 6, K: 4}, nil) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.InvalidateCache()
				if _, err := bc.predict(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
