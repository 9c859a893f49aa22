package serve

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"cosmodel/internal/core"
)

// CodedReadSpec is the wire form of a coded-read configuration: the
// object is striped over n backends and the response completes at the
// k-th-fastest sub-read. With hedging only the k primaries are issued up
// front; the n-k reserves follow hedgeDelaySeconds later. The delay must
// be finite on the wire (JSON cannot carry infinity; a reserve that is
// never issued is the same as striping with n == k).
type CodedReadSpec struct {
	N                 int     `json:"n"`
	K                 int     `json:"k"`
	Hedge             bool    `json:"hedge,omitempty"`
	HedgeDelaySeconds float64 `json:"hedgeDelaySeconds,omitempty"`
}

func (c CodedReadSpec) spec() core.CodedSpec {
	return core.CodedSpec{N: c.N, K: c.K, Hedge: c.Hedge, HedgeDelay: c.HedgeDelaySeconds}
}

func (c CodedReadSpec) validate() error {
	if math.IsInf(c.HedgeDelaySeconds, 0) {
		return fmt.Errorf("%w: coded hedge delay must be finite on the wire (use n == k for never-issued reserves)", ErrBadQuery)
	}
	if err := c.spec().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return nil
}

// cacheKey is the memo-cache suffix distinguishing coded evaluations of
// the same operating point.
func (c CodedReadSpec) cacheKey() string {
	h := "0"
	if c.Hedge {
		h = "1"
	}
	return "|coded=" + strconv.Itoa(c.N) + "," + strconv.Itoa(c.K) + "," + h + "," + quantStr(c.HedgeDelaySeconds)
}

// PredictCoded evaluates the coded-read SLA-meeting fractions at the
// current operating point; see PredictCodedContext.
func (e *Engine) PredictCoded(spec CodedReadSpec, slas []float64) ([]Prediction, error) {
	return e.PredictCodedContext(context.Background(), spec, slas)
}

// PredictCodedContext is the coded-read counterpart of PredictContext: the
// same memoizing, cancellable evaluation, but through the order-statistic
// combinator (core.CodedCDF) instead of the plain response CDF.
func (e *Engine) PredictCodedContext(ctx context.Context, spec CodedReadSpec, slas []float64) ([]Prediction, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if len(slas) == 0 {
		slas = e.cfg.SLAs
	}
	for _, s := range slas {
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("%w: SLA %v must be positive and finite", ErrBadQuery, s)
		}
	}
	ms, key, err := e.state.snapshotKeyed()
	if err != nil {
		return nil, err
	}
	ctx, cancel := e.cfg.Opts.EvalContext(ctx)
	defer cancel()
	v, cached, err := e.evaluateBatch(ctx, ms, gridKey(key, spec.cacheKey(), slas), slas, &spec)
	if err != nil {
		return nil, err
	}
	out := make([]Prediction, len(slas))
	for i, sla := range slas {
		out[i] = Prediction{SLA: sla, MeetRatio: v.ps[i], Saturated: v.saturated, Cached: cached}
	}
	return out, nil
}

// codedFrontendRate is the frontend arrival rate of a coded query at
// factor: the proxy parses each coded GET once before fanning it into n
// sub-reads, so its M/G/1 rate is the reported per-device (sub-read) total
// divided by the stripe width (the sub-millisecond frontend term makes this
// approximation harmless even when hedging issues fewer than n). The
// per-device inputs are the reported sub-read metrics unchanged.
func codedFrontendRate(ms []core.OnlineMetrics, spec CodedReadSpec, factor float64) float64 {
	total := 0.0
	for _, m := range ms {
		total += m.Rate * factor
	}
	return total / float64(spec.N)
}

// AdviseCoded is the coded-read admission query; see AdviseCodedContext.
func (e *Engine) AdviseCoded(spec CodedReadSpec, sla, target float64) (Advice, error) {
	return e.AdviseCodedContext(context.Background(), spec, sla, target)
}

// AdviseCodedContext answers the admission question for coded reads: the
// same search over a proportional scaling of the current per-device
// operating point as AdviseContext, with every probe evaluated through the
// order-statistic model. Rates are sub-read rates — the same unit the
// devices report.
func (e *Engine) AdviseCodedContext(ctx context.Context, spec CodedReadSpec, sla, target float64) (Advice, error) {
	if err := spec.validate(); err != nil {
		return Advice{}, err
	}
	if err := checkAdviseQuery(sla, target); err != nil {
		return Advice{}, err
	}
	ms, key, err := e.state.snapshotKeyed()
	if err != nil {
		return Advice{}, err
	}
	a := &admission{e: e, ms: ms, key: key + spec.cacheKey(),
		build: func(ms []core.OnlineMetrics, factor float64) (*core.SystemModel, error) {
			return e.buildModelFE(ms, factor, codedFrontendRate(ms, spec, factor))
		},
		cdf: func(ctx context.Context, sys *core.SystemModel, sla float64) (float64, error) {
			return sys.CodedCDFContext(ctx, spec.spec(), sla)
		}}
	adv, err := a.advise(ctx, sla, target)
	if err != nil {
		return Advice{}, err
	}
	adv.CodedRead = &spec
	return adv, nil
}
