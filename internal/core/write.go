package core

import (
	"context"
	"fmt"
	"math"

	"cosmodel/internal/coscode"
)

// WriteSpec describes a replicated PUT: the object is written to N replica
// devices in parallel and the client is acknowledged when the W-th replica
// ack arrives (Swift's write quorum). The quorum latency is the W-th order
// statistic of the per-replica responses, the same mathematics the coded
// read path points at the k-th-fastest sub-read.
type WriteSpec struct {
	// N is the number of replica devices written.
	N int
	// W is the number of replica acknowledgements required.
	W int
}

// Validate checks the spec.
func (sp WriteSpec) Validate() error {
	if sp.N < 1 {
		return fmt.Errorf("%w: write replicas n=%d must be >= 1", ErrBadParams, sp.N)
	}
	if sp.W < 1 || sp.W > sp.N {
		return fmt.Errorf("%w: write quorum w=%d outside [1,%d]", ErrBadParams, sp.W, sp.N)
	}
	return nil
}

// spec maps the write quorum onto the k-of-n order-statistic combinator:
// waiting for the W-th of N replica acks is the K-th order statistic with
// K = W. No hedging — every replica is written on arrival.
func (sp WriteSpec) spec() coscode.Spec { return coscode.Spec{N: sp.N, K: sp.W} }

// WriteCDF predicts the fraction of W-of-N replicated PUTs acknowledged
// within t seconds; see WriteCDFContext. A numerical or spec error reports
// 0.
func (s *SystemModel) WriteCDF(spec WriteSpec, t float64) float64 {
	v, _ := s.WriteCDFContext(context.Background(), spec, t)
	return v
}

// WriteCDFContext evaluates the frontend-observed quorum-ack latency CDF of
// a W-of-N replicated PUT at t under ctx. Each replica sub-write
// independently experiences the per-replica write response Wa ∗ Swr of the
// device mixture (only devices carrying write traffic participate,
// write-rate-weighted); the client is acknowledged at the W-th-fastest
// replica (Poisson-binomial order statistic) and the shared frontend
// sojourn Sq is added by discretized convolution. The degenerate
// {N:1, W:1} spec evaluates the plain single-replica write CDF through the
// identical mixture path, with no discretization. Cancellation, EvalTimeout
// and the fallback chain apply as in CDFContext. A mixture with no write
// traffic reports ErrBadParams.
func (s *SystemModel) WriteCDFContext(ctx context.Context, spec WriteSpec, t float64) (v float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("write_cdf")
	defer func() { done(probes, err) }()
	return s.orderCDF(ctx, spec.spec(), modeWriteFull, modeWriteResponse, t, &probes)
}

// WriteCDFBatchContext evaluates the PUT quorum CDF at every threshold in
// ts under ctx; out[i] equals WriteCDFContext(ctx, spec, ts[i]) exactly,
// but the whole grid shares one traversal of the device mixture.
// Cancellation, EvalTimeout and the fallback chain apply as in
// WriteCDFContext.
func (s *SystemModel) WriteCDFBatchContext(ctx context.Context, spec WriteSpec, ts []float64) (out []float64, err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("write_cdf_batch")
	defer func() { done(probes, err) }()
	return s.orderCDFBatch(ctx, spec.spec(), modeWriteFull, modeWriteResponse, ts, &probes)
}

// WriteBackendCDF is the backend-tier form of WriteCDF; a numerical or
// spec error reports 0.
func (s *SystemModel) WriteBackendCDF(spec WriteSpec, t float64) float64 {
	v, _ := s.WriteBackendCDFContext(context.Background(), spec, t)
	return v
}

// WriteBackendCDFContext evaluates the backend-tier PUT quorum CDF at t:
// the W-of-N order statistic over the write-rate-weighted Swr mixture,
// without frontend queueing or WTA.
func (s *SystemModel) WriteBackendCDFContext(ctx context.Context, spec WriteSpec, t float64) (v float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("write_backend_cdf")
	defer func() { done(probes, err) }()
	base := func(x float64) (float64, error) {
		probes++
		return s.mixtureCDF(ctx, x, modeWriteBackend)
	}
	return coscode.CDF(spec.spec(), base, t)
}

// WriteQuantile returns the latency below which a fraction p of W-of-N
// replicated PUTs are acknowledged; see WriteQuantileContext. A numerical
// failure reports NaN.
func (s *SystemModel) WriteQuantile(spec WriteSpec, p float64) float64 {
	v, err := s.WriteQuantileContext(context.Background(), spec, p)
	if err != nil {
		return math.NaN()
	}
	return v
}

// WriteQuantileContext inverts the PUT quorum CDF with the same guarded
// bracketed root finder as QuantileContext: cancellation and the
// EvalTimeout budget are observed at every probe, and a grossly
// non-monotone CDF surfaces as numeric.ErrNumerical instead of a garbage
// quantile. It returns +Inf when the quantile exceeds the search ceiling or
// when p >= 1.
func (s *SystemModel) WriteQuantileContext(ctx context.Context, spec WriteSpec, p float64) (q float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("write_quantile")
	defer func() { done(probes, err) }()
	// The per-replica write mean bounds the W=1 case; a full W=N barrier
	// can sit above it, which the doubling loop absorbs.
	return s.orderQuantile(ctx, spec.spec(), modeWriteFull, modeWriteResponse, p, s.MeanWriteResponse(), &probes, "write")
}
