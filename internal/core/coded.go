package core

import (
	"context"
	"errors"
	"math"

	"cosmodel/internal/coscode"
	"cosmodel/internal/numeric"
)

// CodedSpec describes a k-of-n coded read, optionally hedged; see
// coscode.Spec for the field semantics.
type CodedSpec = coscode.Spec

// codedFrontendGridPoints is the resolution of the discretized frontend
// sojourn used to convolve Sq with the order-statistic CDF. The sojourn is
// sub-millisecond next to the tens-of-milliseconds backend response, so a
// modest grid keeps the discretization error far below inversion noise.
const codedFrontendGridPoints = 48

// frontendGrid tabulates the frontend sojourn CDF on a fixed grid and
// converts it to point masses (interval increments, residual tail mass on
// the last point — the same discretization gridTransform uses). Only the
// points that can carry mass are inverted: below the parse floor (every
// parse time exceeds the point) the CDF is exactly 0, and once the clamped
// CDF reaches 1 every later increment is exactly 0. Each remaining point is
// inverted through the guarded fallback chain; a recovered value fires
// Options.OnFallback and exhaustion returns a *numeric.InversionError.
// Built once per model; concurrency-safe.
func (s *SystemModel) frontendGrid() ([]float64, []float64, error) {
	s.feGridOnce.Do(func() {
		s.fePoints, s.feMasses, s.feGridErr = s.buildFrontendGrid()
	})
	return s.fePoints, s.feMasses, s.feGridErr
}

func (s *SystemModel) buildFrontendGrid() ([]float64, []float64, error) {
	sq := s.frontend.Sojourn()
	mean := sq.Mean
	if !(mean > 0) {
		mean = 1e-4
	}
	span := 12 * mean
	inv := s.opts.inverter()
	pts := make([]float64, codedFrontendGridPoints)
	masses := make([]float64, codedFrontendGridPoints)
	prev := 0.0
	for i := range pts {
		x := span * float64(i+1) / codedFrontendGridPoints
		pts[i] = x
		if prev == 1 || s.frontend.belowParse(x) {
			continue
		}
		v, by, err := numeric.InvertCDFGuarded(inv, s.opts.fallbacks(), sq.F, x)
		if err != nil {
			var ie *numeric.InversionError
			if errors.As(err, &ie) {
				ie.Reason = "frontend sojourn grid: " + ie.Reason
			}
			return nil, nil, err
		}
		if cb := s.opts.OnFallback; cb != nil && by != inv.Name() {
			cb(inv.Name(), by)
		}
		if v < prev {
			v = prev
		}
		masses[i] = v - prev
		prev = v
	}
	masses[len(masses)-1] += 1 - prev
	return pts, masses, nil
}

// orderCDF evaluates the frontend-observed order-statistic CDF at t without
// span bookkeeping: the spec's order statistic of the per-request response
// (mode response, rate-weighted over the device mixture) convolved with the
// frontend sojourn Sq. N=1 short-circuits to the plain response CDF (mode
// full), which is exact (no grid). Coded reads and replicated writes differ
// only in the mode pair. probes counts base-CDF inversions for the
// observer.
func (s *SystemModel) orderCDF(ctx context.Context, spec coscode.Spec, full, response evalMode, t float64, probes *int) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	if spec.N == 1 {
		*probes++
		return s.mixtureCDF(ctx, t, full)
	}
	pts, masses, err := s.frontendGrid()
	if err != nil {
		return 0, err
	}
	base := func(x float64) (float64, error) {
		*probes++
		return s.mixtureCDF(ctx, x, response)
	}
	total := 0.0
	for i, x := range pts {
		if masses[i] == 0 || t-x <= 0 {
			continue
		}
		h, err := coscode.CDF(spec, base, t-x)
		if err != nil {
			return 0, err
		}
		total += masses[i] * h
	}
	return numeric.Clamp01(total), nil
}

// CodedCDF predicts the fraction of (n,k) coded reads responding within t
// seconds; see CodedCDFContext. A numerical or spec error reports 0.
func (s *SystemModel) CodedCDF(spec CodedSpec, t float64) float64 {
	v, _ := s.CodedCDFContext(context.Background(), spec, t)
	return v
}

// CodedCDFContext evaluates the frontend-observed response-latency CDF of
// a k-of-n coded read at t under ctx. Each stripe sub-read independently
// experiences the per-read response Wa ∗ Sbe of the device mixture; the
// request completes at the k-th-fastest sub-read (Poisson-binomial order
// statistic, hedged reserves delayed by the spec's HedgeDelay) and the
// shared frontend sojourn Sq is added by discretized convolution. The
// degenerate N=1 spec evaluates identically to CDFContext. Cancellation,
// EvalTimeout and the fallback chain apply as in CDFContext.
func (s *SystemModel) CodedCDFContext(ctx context.Context, spec CodedSpec, t float64) (v float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("coded_cdf")
	defer func() { done(probes, err) }()
	return s.orderCDF(ctx, spec, modeFull, modeResponse, t, &probes)
}

// orderCDFBatch evaluates orderCDF at every threshold in ts through one
// batched traversal of the device mixture. coscode.CDF's base probe
// sequence depends only on the spec and its threshold argument, never on
// probed values, so a recording pass enumerates every backend threshold
// the scalar loop would probe, one mixtureCDFBatch answers them all, and a
// replay pass reassembles each order-statistic evaluation from the
// recorded answers — bit-identical to per-threshold orderCDF.
func (s *SystemModel) orderCDFBatch(ctx context.Context, spec coscode.Spec, full, response evalMode, ts []float64, probes *int) ([]float64, error) {
	out := make([]float64, len(ts))
	if spec.N == 1 {
		*probes += len(ts)
		if err := s.mixtureCDFBatch(ctx, []evalMode{full}, ts, [][]float64{out}); err != nil {
			return nil, err
		}
		return out, nil
	}
	pts, masses, err := s.frontendGrid()
	if err != nil {
		return nil, err
	}
	var xs []float64
	record := func(x float64) (float64, error) {
		xs = append(xs, x)
		return 0, nil
	}
	for _, t := range ts {
		if t <= 0 {
			continue
		}
		for i, x := range pts {
			if masses[i] == 0 || t-x <= 0 {
				continue
			}
			if _, err := coscode.CDF(spec, record, t-x); err != nil {
				return nil, err
			}
		}
	}
	*probes += len(xs)
	vals := make([]float64, len(xs))
	if err := s.mixtureCDFBatch(ctx, []evalMode{response}, xs, [][]float64{vals}); err != nil {
		return nil, err
	}
	idx := 0
	replay := func(float64) (float64, error) {
		v := vals[idx]
		idx++
		return v, nil
	}
	for j, t := range ts {
		if t <= 0 {
			continue
		}
		total := 0.0
		for i, x := range pts {
			if masses[i] == 0 || t-x <= 0 {
				continue
			}
			h, err := coscode.CDF(spec, replay, t-x)
			if err != nil {
				return nil, err
			}
			total += masses[i] * h
		}
		out[j] = numeric.Clamp01(total)
	}
	return out, nil
}

// CodedCDFBatchContext evaluates the coded-read CDF at every threshold in
// ts under ctx; out[i] equals CodedCDFContext(ctx, spec, ts[i]) exactly,
// but the whole grid shares one traversal of the device mixture — the
// batched engine answers every order-statistic probe of every threshold in
// a single pass. Cancellation, EvalTimeout and the fallback chain apply as
// in CodedCDFContext.
func (s *SystemModel) CodedCDFBatchContext(ctx context.Context, spec CodedSpec, ts []float64) (out []float64, err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("coded_cdf_batch")
	defer func() { done(probes, err) }()
	return s.orderCDFBatch(ctx, spec, modeFull, modeResponse, ts, &probes)
}

// CodedBackendCDF is the backend-tier form of CodedCDF; a numerical or
// spec error reports 0.
func (s *SystemModel) CodedBackendCDF(spec CodedSpec, t float64) float64 {
	v, _ := s.CodedBackendCDFContext(context.Background(), spec, t)
	return v
}

// CodedBackendCDFContext evaluates the backend-tier coded-read CDF at t:
// the k-of-n order statistic over the rate-weighted Sbe mixture, without
// frontend queueing or WTA. The degenerate N=1 spec evaluates through the
// identical mixture path as BackendCDFContext, so the two agree exactly.
func (s *SystemModel) CodedBackendCDFContext(ctx context.Context, spec CodedSpec, t float64) (v float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("coded_backend_cdf")
	defer func() { done(probes, err) }()
	base := func(x float64) (float64, error) {
		probes++
		return s.mixtureCDF(ctx, x, modeBackend)
	}
	return coscode.CDF(spec, base, t)
}

// CodedQuantile returns the latency below which a fraction p of coded
// reads complete; see CodedQuantileContext. A numerical failure reports
// NaN.
func (s *SystemModel) CodedQuantile(spec CodedSpec, p float64) float64 {
	v, err := s.CodedQuantileContext(context.Background(), spec, p)
	if err != nil {
		return math.NaN()
	}
	return v
}

// CodedQuantileContext inverts the coded-read CDF with the same guarded
// bracketed root finder as QuantileContext (numeric.BrentGuarded):
// cancellation and the EvalTimeout budget are observed at every probe, and
// a grossly non-monotone CDF surfaces as numeric.ErrNumerical instead of a
// garbage quantile. It returns +Inf when the quantile exceeds the search
// ceiling or when p >= 1.
func (s *SystemModel) CodedQuantileContext(ctx context.Context, spec CodedSpec, p float64) (q float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("coded_quantile")
	defer func() { done(probes, err) }()
	// The per-read mean bounds the k=1 case; a fork-join barrier can sit
	// well above it, which the doubling loop absorbs.
	hi := s.MeanResponse()
	if hi <= 0 {
		hi = 1e-3
	}
	if spec.Hedge && !math.IsInf(spec.HedgeDelay, 1) {
		hi += spec.HedgeDelay
	}
	return s.orderQuantile(ctx, spec, modeFull, modeResponse, p, hi, &probes, "coded")
}

// orderQuantile inverts orderCDF at p with the guarded bracketed root
// finder, doubling the bracket from hi (1 ms when hi <= 0) until it holds
// p. what names the CDF in the non-monotone error.
func (s *SystemModel) orderQuantile(ctx context.Context, spec coscode.Spec, full, response evalMode, p, hi float64, probes *int, what string) (float64, error) {
	if p <= 0 {
		return 0, nil
	}
	if p >= 1 {
		return math.Inf(1), nil
	}
	if hi <= 0 {
		hi = 1e-3
	}
	vHi, err := s.orderCDF(ctx, spec, full, response, hi, probes)
	if err != nil {
		return 0, err
	}
	for vHi < p {
		hi *= 2
		if hi > 1e6 {
			return math.Inf(1), nil
		}
		if vHi, err = s.orderCDF(ctx, spec, full, response, hi, probes); err != nil {
			return 0, err
		}
	}
	f := func(t float64) (float64, error) {
		v, err := s.orderCDF(ctx, spec, full, response, t, probes)
		if err != nil {
			return 0, err
		}
		return v - p, nil
	}
	q, err := numeric.BrentGuarded(f, 0, -p, hi, vHi-p, 0, numeric.CDFSlack)
	return q, s.quantileRootErr(err, p, "grossly non-monotone "+what+" CDF in quantile bisection")
}
