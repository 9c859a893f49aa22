package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
	"cosmodel/internal/parallel"
)

// minDevicesParallel is the mixture width below which the evaluation engine
// stays sequential: fanning out two inversions costs more in goroutine
// hand-off than it saves.
const minDevicesParallel = 3

// mixGroup is one distinct device model in the system mixture with its
// summed arrival-rate weight. Duplicate *DeviceModel entries (homogeneous
// deployments pass the same model for every slot) collapse into one group,
// so the engine inverts each distinct backend transform once.
type mixGroup struct {
	dev    *DeviceModel
	weight float64
	// writeWeight is the group's write-class mixture weight: 0 for a
	// read-only device, which then contributes nothing to write-mode
	// mixtures and is skipped without evaluation.
	writeWeight float64
}

// evalMode selects which composition of the per-device factors the
// shared-subexpression engine inverts.
type evalMode int

const (
	// modeFull is the frontend-observed response Sq ∗ Wa ∗ Sbe (Eq. 2).
	modeFull evalMode = iota
	// modeBackend is the backend-tier response Sbe alone.
	modeBackend
	// modeResponse is the per-read response Wa ∗ Sbe: what one stripe
	// sub-read of a coded GET experiences after the (shared) frontend
	// parse, the base CDF of the k-of-n order statistic.
	modeResponse
	// modeNoWTA is the frontend-observed response with the accept-waiting
	// factor dropped, Sq ∗ Sbe — the paper's "noWTA" ablation. Evaluating
	// it from the full model's per-node factors is exact: a device built
	// with WTANone computes the identical Sbe pipeline and a unit Wa, and
	// multiplying by the exact complex 1 changes nothing.
	modeNoWTA
	// modeWriteFull is the frontend-observed PUT replica response
	// Sq ∗ Wa ∗ Swr: what a single-replica write experiences end to end.
	modeWriteFull
	// modeWriteResponse is the per-replica PUT response Wa ∗ Swr — what
	// one replica sub-write experiences after the shared frontend
	// sojourn, the base CDF of the W-of-N quorum order statistic.
	modeWriteResponse
	// modeWriteBackend is the backend-tier PUT replica response Swr.
	modeWriteBackend
)

// write reports whether the mode draws on the write-class device factor Swr
// (see DeviceModel.node) instead of the read-class Sbe; write modes also
// mix with write-rate weights rather than request-rate weights.
func (m evalMode) write() bool { return m >= modeWriteFull }

// shape maps a mode onto the composition shape shared with the read
// family: the write modes compose Sq/Wa/Swr exactly as the corresponding
// read modes compose Sq/Wa/Sbe.
func (m evalMode) shape() evalMode {
	switch m {
	case modeWriteFull:
		return modeFull
	case modeWriteResponse:
		return modeResponse
	case modeWriteBackend:
		return modeBackend
	}
	return m
}

// SystemModel combines the frontend model with per-device backend models
// into the system-level response-latency distribution (Eqs. 2 and 3):
//
//	Sj  = Sq ∗ Wa_j ∗ Sbe_j        per device j
//	S(t) = Σ_j r_j·Sj(t) / Σ_j r_j
//
// CDF and BackendCDF are evaluated by a shared-subexpression engine: when
// the configured inverter exposes its quadrature (numeric.NodeInverter, as
// all built-in inverters do), the frontend factor Sq(s_k) is computed once
// per inversion node and shared across the whole device mixture, each
// device's leaf transforms are evaluated once per node and composed by one
// node kernel (DeviceModel.node), and distinct devices are fanned across a
// bounded worker pool (Options.Workers) when the mixture is at least
// minDevicesParallel wide. Results are reduced in device order, so they are
// deterministic and agree with the sequential path exactly.
type SystemModel struct {
	frontend *FrontendModel
	devices  []*DeviceModel
	opts     Options
	pool     *parallel.Pool

	groups         []mixGroup
	totalRate      float64
	totalWriteRate float64
	nodeCount      int // quadrature nodes of the configured inverter, for spans

	// Discretized frontend-sojourn distribution for coded-read
	// evaluation, built lazily by frontendGrid.
	feGridOnce sync.Once
	fePoints   []float64
	feMasses   []float64
	feGridErr  error
}

// NewSystemModel assembles the system model. The frontend and at least one
// device model are required.
func NewSystemModel(fe *FrontendModel, devices []*DeviceModel, opts Options) (*SystemModel, error) {
	if fe == nil {
		return nil, fmt.Errorf("%w: frontend model required", ErrBadParams)
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("%w: at least one device model required", ErrBadParams)
	}
	for _, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("%w: nil device model", ErrBadParams)
		}
	}
	nodeCount := 0
	if opts.Observer != nil {
		if ni, ok := opts.inverter().(numeric.NodeInverter); ok {
			nodes, _ := ni.AppendNodes(nil, nil, 1)
			nodeCount = len(nodes)
		}
	}
	return newSystemModel(fe, devices, opts, opts.pool(), nodeCount)
}

// newSystemModel groups the validated devices into the mixture.
func newSystemModel(fe *FrontendModel, devices []*DeviceModel, opts Options, pool *parallel.Pool, nodeCount int) (*SystemModel, error) {
	s := &SystemModel{frontend: fe, devices: devices, opts: opts, pool: pool, nodeCount: nodeCount}
	s.groups = make([]mixGroup, 0, len(devices))
	seen := make(map[*DeviceModel]int, len(devices))
	for _, d := range devices {
		s.totalRate += d.Rate()
		s.totalWriteRate += d.WriteRate()
		if g, ok := seen[d]; ok {
			s.groups[g].weight += d.Rate()
			s.groups[g].writeWeight += d.WriteRate()
			continue
		}
		seen[d] = len(s.groups)
		s.groups = append(s.groups, mixGroup{dev: d, weight: d.Rate(), writeWeight: d.WriteRate()})
	}
	if s.totalRate <= 0 {
		return nil, fmt.Errorf("%w: zero total device rate", ErrBadParams)
	}
	return s, nil
}

// Scaled returns the model of the same deployment with every device's read,
// data and write rates and the frontend rate multiplied by factor — the
// operating point an admission search probes. Load enters the model only
// through its queueing terms, so only those are rebuilt: each device's
// union queue (λ, ρ, and through them Wbe, Wa, Sbe and Swr), the WTAExact
// grid, the frontend M/G/1 and, with Nbe > 1, the M/M/1/K disk sojourn.
// With Nbe = 1 every device's leaf transforms and their per-threshold value
// table are shared with the receiver, so a scaled model evaluated at a
// threshold the receiver (or a sibling) already evaluated reads its leaf
// values instead of recomputing them. The result matches a model built
// from the scaled metrics to floating-point rounding (such a build derives
// its rate ratios from the scaled rates), it reports ErrOverload where
// that build does, and Scaled(1) evaluates bit-for-bit like the receiver.
// The worker pool is shared.
func (s *SystemModel) Scaled(factor float64) (*SystemModel, error) {
	if !(factor > 0) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("%w: scale factor %v must be positive and finite", ErrBadParams, factor)
	}
	children := make(map[*DeviceModel]*DeviceModel, len(s.groups))
	devs := make([]*DeviceModel, len(s.devices))
	for j, d := range s.devices {
		c := children[d]
		if c == nil {
			var err error
			if c, err = d.scaled(factor); err != nil {
				return nil, err
			}
			children[d] = c
		}
		devs[j] = c
	}
	fe, err := s.frontend.scaled(factor)
	if err != nil {
		return nil, err
	}
	return newSystemModel(fe, devs, s.opts, s.pool, s.nodeCount)
}

// beginSpan opens an observer span for one top-level evaluation of this
// model; see Options.Observer.
func (s *SystemModel) beginSpan(op string) func(probes int, err error) {
	return s.opts.span(op, len(s.groups), s.nodeCount)
}

// Frontend returns the frontend model.
func (s *SystemModel) Frontend() *FrontendModel { return s.frontend }

// Devices returns the device models.
func (s *SystemModel) Devices() []*DeviceModel { return s.devices }

// DeviceResponseCDF evaluates device j's frontend-observed response CDF.
func (s *SystemModel) DeviceResponseCDF(j int, t float64) float64 {
	d := s.devices[j]
	return lst.CDF(s.opts.inverter(), lst.Convolve(s.frontend.Sojourn(), d.WTA(), d.Backend()), t)
}

// CDF evaluates the system response-latency CDF at t: the rate-weighted
// mixture over devices (Eq. 3). It delegates to CDFContext with a
// background context; an evaluation that fails numerically even after the
// fallback chain reports 0 (the pre-guard behaviour was an arbitrary
// clamped value; 0 is the conservative end of the clamp).
func (s *SystemModel) CDF(t float64) float64 {
	v, _ := s.CDFContext(context.Background(), t)
	return v
}

// CDFContext evaluates the system CDF at t under ctx: cancellation is
// observed between mixture groups, Options.EvalTimeout bounds the call, and
// every per-group inversion is validated — an invalid value (NaN, Inf, far
// outside [0,1]) retries through Options.Fallbacks before surfacing as
// numeric.ErrNumerical. On error the returned value is 0.
func (s *SystemModel) CDFContext(ctx context.Context, t float64) (float64, error) {
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	done := s.beginSpan("cdf")
	v, err := s.mixtureCDF(ctx, t, modeFull)
	done(0, err)
	return v, err
}

// PercentileMeetingSLA predicts the fraction of requests whose response
// latency is at most sla seconds — the paper's headline output.
func (s *SystemModel) PercentileMeetingSLA(sla float64) float64 {
	return s.CDF(sla)
}

// BackendCDF evaluates the backend-tier response-latency CDF at t: the
// rate-weighted mixture of per-device Sbe distributions, without frontend
// queueing or WTA. The paper's testbed counts SLA compliance at both tiers;
// this is the backend-tier prediction.
func (s *SystemModel) BackendCDF(t float64) float64 {
	v, _ := s.BackendCDFContext(context.Background(), t)
	return v
}

// BackendCDFContext is the context-aware, guarded form of BackendCDF; see
// CDFContext for the cancellation and fallback semantics.
func (s *SystemModel) BackendCDFContext(ctx context.Context, t float64) (float64, error) {
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	done := s.beginSpan("backend_cdf")
	v, err := s.mixtureCDF(ctx, t, modeBackend)
	done(0, err)
	return v, err
}

// groupEvaluator builds the raw (unclamped) per-group CDF evaluator at t
// for one inverter, composing the per-device factors selected by mode. a is
// the pooled scratch of the model's own (primary) inverter, whose nodes for
// t are those of the devices' leaf tables; a fallback inverter passes nil,
// allocating its scratch and evaluating its leaves per node.
func (s *SystemModel) groupEvaluator(inv numeric.Inverter, t float64, mode evalMode, a *batchArena) func(i int) float64 {
	if ni, ok := inv.(numeric.NodeInverter); ok {
		primary := a != nil
		if !primary {
			a = new(batchArena)
		}
		// 32 covers every built-in quadrature (Euler 27, Talbot 32,
		// Gaver-Stehfest 14) without append regrowth.
		if cap(a.nodes) < 32 {
			a.nodes, a.ws = make([]complex128, 0, 32), make([]complex128, 0, 32)
		}
		nodes, ws := ni.AppendNodes(a.nodes[:0], a.ws[:0], t)
		a.nodes, a.ws = nodes, ws
		shape, write := mode.shape(), mode.write()
		var fe []complex128
		if shape == modeFull || shape == modeNoWTA {
			// The frontend sojourn factor is identical across the
			// mixture: evaluate it once per inversion node.
			fe = s.frontend.sojournAt(a.fe[:0], t, nodes, primary)
			a.fe = fe
		}
		return func(i int) float64 {
			dev := s.groups[i].dev
			var row []leafRec
			if primary {
				row = dev.lv.table.row(t, nodes, dev.lv.leaves)
			}
			var sum float64
			for k, sk := range nodes {
				var l leafRec
				if row != nil {
					l = row[k]
				} else {
					l = dev.lv.leaves(sk)
				}
				wa, resp, swr := dev.node(sk, &l, write)
				if write {
					resp = swr
				}
				sum += real(ws[k] * (nodeValue(shape, fe, k, wa, resp) / sk))
			}
			return sum
		}
	}
	// Opaque custom inverter: invert each group's composed transform
	// closure independently.
	return func(i int) float64 {
		tr := s.groupTransform(i, mode)
		return inv.Invert(func(sc complex128) complex128 { return tr.F(sc) / sc }, t)
	}
}

// nodeValue composes the per-device node factors (wa, sbe — or the write
// pair wa, swr, which shares the same shapes) and the shared frontend
// factor fe[k] into the transform value mode selects. Callers pass the
// mode's shape() so the write family reuses the read compositions.
func nodeValue(mode evalMode, fe []complex128, k int, wa, sbe complex128) complex128 {
	switch mode {
	case modeFull:
		return fe[k] * wa * sbe
	case modeNoWTA:
		return fe[k] * sbe
	case modeResponse:
		return wa * sbe
	default:
		return sbe
	}
}

// groupTransform composes group i's transform for mode — the opaque
// (non-node) inverter path.
func (s *SystemModel) groupTransform(i int, mode evalMode) lst.Transform {
	d := s.groups[i].dev
	sq := s.frontend.Sojourn()
	switch mode {
	case modeFull:
		return lst.Convolve(sq, d.WTA(), d.Backend())
	case modeNoWTA:
		return lst.Convolve(sq, d.Backend())
	case modeResponse:
		return lst.Convolve(d.WTA(), d.Backend())
	case modeWriteFull:
		return lst.Convolve(sq, d.WTA(), d.WriteResponse())
	case modeWriteResponse:
		return lst.Convolve(d.WTA(), d.WriteResponse())
	case modeWriteBackend:
		return d.WriteResponse()
	default:
		return d.Backend()
	}
}

// groupCDF evaluates one mixture group with the primary evaluator and
// validates the result, walking the fallback inverter chain on an invalid
// value. A recovered value fires Options.OnFallback; exhaustion returns a
// *numeric.InversionError.
func (s *SystemModel) groupCDF(eval func(int) float64, i int, t float64, mode evalMode) (float64, error) {
	return s.groupCDFFrom(eval(i), i, t, mode)
}

// groupCDFFrom validates a raw per-group inversion value computed elsewhere
// (the scalar evaluator or the batched traversal) and walks the fallback
// chain on an invalid one — the shared tail of groupCDF.
func (s *SystemModel) groupCDFFrom(v float64, i int, t float64, mode evalMode) (float64, error) {
	reason := numeric.CheckCDF(v)
	if reason == "" {
		return numeric.Clamp01(v), nil
	}
	primary := s.opts.inverter().Name()
	tried := []string{primary}
	for _, fb := range s.opts.fallbacks() {
		if fb == nil || fb.Name() == primary {
			continue
		}
		tried = append(tried, fb.Name())
		fv := s.groupEvaluator(fb, t, mode, nil)(i)
		if numeric.CheckCDF(fv) == "" {
			if cb := s.opts.OnFallback; cb != nil {
				cb(primary, fb.Name())
			}
			return numeric.Clamp01(fv), nil
		}
		v = fv
	}
	return 0, &numeric.InversionError{T: t, Value: v, Reason: reason, Tried: tried}
}

// mixtureCDF evaluates the rate-weighted mixture CDF at t under ctx.
// Narrow mixtures run inline through a nil pool — same panic capture and
// cancellation checks, no goroutine hand-off.
func (s *SystemModel) mixtureCDF(ctx context.Context, t float64, mode evalMode) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if t <= 0 {
		return 0, nil
	}
	write := mode.write()
	denom := s.totalRate
	if write {
		if s.totalWriteRate <= 0 {
			return 0, fmt.Errorf("%w: no write traffic in the device mixture", ErrBadParams)
		}
		denom = s.totalWriteRate
	}
	a := batchArenaPool.Get().(*batchArena)
	defer batchArenaPool.Put(a)
	eval := s.groupEvaluator(s.opts.inverter(), t, mode, a)
	res := floats(a.sums, len(s.groups))
	a.sums = res
	run := func(i int) error {
		weight := s.groups[i].weight
		if write {
			// Read-only devices carry no write traffic: zero weight,
			// nothing to evaluate.
			if weight = s.groups[i].writeWeight; weight == 0 {
				return nil
			}
		}
		v, err := s.groupCDF(eval, i, t, mode)
		if err != nil {
			return err
		}
		res[i] = weight * v
		return nil
	}
	pool := s.pool
	if len(s.groups) < minDevicesParallel {
		pool = nil
	}
	if err := pool.ForEachContext(ctx, len(s.groups), run); err != nil {
		return 0, err
	}
	total := 0.0
	for _, r := range res {
		total += r
	}
	return numeric.Clamp01(total / denom), nil
}

// BackendPercentileMeetingSLA predicts the backend-tier fraction of
// requests meeting the SLA.
func (s *SystemModel) BackendPercentileMeetingSLA(sla float64) float64 {
	return s.BackendCDF(sla)
}

// Quantile returns the latency below which a fraction p of requests
// complete (numeric inversion of the mixture CDF). It returns +Inf when the
// quantile exceeds the search ceiling (an effectively saturated model) or
// when p >= 1, matching lst.Quantile. It delegates to QuantileContext; a
// numerical failure reports NaN.
func (s *SystemModel) Quantile(p float64) float64 {
	v, err := s.QuantileContext(context.Background(), p)
	if err != nil {
		return math.NaN()
	}
	return v
}

// QuantileContext is the context-aware quantile: cancellation and the
// Options.EvalTimeout budget are observed at every probe, each probe runs
// the guarded mixture evaluation, and the bracketed root finder
// (numeric.BrentGuarded — false position with a bisection safeguard,
// replacing the fixed 60-step bisection) additionally detects a grossly
// non-monotone CDF (a probe at a larger t reporting a value more than
// numeric.CDFSlack below a probe at a smaller t, or vice versa), returning
// numeric.ErrNumerical instead of a garbage quantile.
func (s *SystemModel) QuantileContext(ctx context.Context, p float64) (q float64, err error) {
	return s.QuantileSeededContext(ctx, p, 0)
}

// QuantileSeededContext is QuantileContext warm-started from a prior
// estimate: a positive seed replaces the mean-based initial upper bracket,
// so a caller sweeping nearby operating points (experiments.QuantileSweep)
// pays a couple of refinement probes per step instead of a fresh bracket
// growth. seed <= 0 is identical to QuantileContext.
func (s *SystemModel) QuantileSeededContext(ctx context.Context, p, seed float64) (q float64, err error) {
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan("quantile")
	defer func() { done(probes, err) }()
	if p <= 0 {
		return 0, nil
	}
	if p >= 1 {
		return math.Inf(1), nil
	}
	hi := seed
	if !(hi > 0) {
		hi = s.MeanResponse()
		if hi <= 0 {
			hi = 1e-3
		}
	}
	probes++
	vHi, err := s.mixtureCDF(ctx, hi, modeFull)
	if err != nil {
		return 0, err
	}
	for vHi < p {
		hi *= 2
		if hi > 1e6 {
			return math.Inf(1), nil
		}
		probes++
		if vHi, err = s.mixtureCDF(ctx, hi, modeFull); err != nil {
			return 0, err
		}
	}
	f := func(t float64) (float64, error) {
		probes++
		v, err := s.mixtureCDF(ctx, t, modeFull)
		if err != nil {
			return 0, err
		}
		return v - p, nil
	}
	q, err = numeric.BrentGuarded(f, 0, -p, hi, vHi-p, 0, numeric.CDFSlack)
	return q, s.quantileRootErr(err, p, "grossly non-monotone CDF in quantile bisection")
}

// quantileRootErr maps a root-finder non-monotone abort onto the engine's
// InversionError shape (preserving the pinned reason strings callers match
// on); every other error passes through.
func (s *SystemModel) quantileRootErr(err error, p float64, reason string) error {
	var nm *numeric.NonMonotoneError
	if errors.As(err, &nm) {
		return &numeric.InversionError{
			T:      nm.X,
			Value:  nm.F + p,
			Reason: reason,
			Tried:  []string{s.opts.inverter().Name()},
		}
	}
	return err
}

// MeanResponse returns the rate-weighted mean response latency.
func (s *SystemModel) MeanResponse() float64 {
	sq := s.frontend.Sojourn()
	total := 0.0
	for _, d := range s.devices {
		total += d.Rate() * lst.Convolve(sq, d.WTA(), d.Backend()).Mean
	}
	return total / s.totalRate
}

// MeanWriteResponse returns the write-rate-weighted mean frontend-observed
// PUT replica response latency (Sq ∗ Wa ∗ Swr), or 0 when the mixture
// carries no write traffic. Quantile searches use it to seed their bracket.
func (s *SystemModel) MeanWriteResponse() float64 {
	if s.totalWriteRate <= 0 {
		return 0
	}
	total := 0.0
	for i, g := range s.groups {
		if g.writeWeight > 0 {
			total += g.writeWeight * s.groupTransform(i, modeWriteFull).Mean
		}
	}
	return total / s.totalWriteRate
}
