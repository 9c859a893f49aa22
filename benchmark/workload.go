package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"cosmodel/internal/cluster"
	"cosmodel/internal/serve"
)

// opKind labels the operations of a replay cycle.
type opKind int

const (
	opIngest opKind = iota
	opCold          // first /predict after an ingest: every answer computed
	opHit           // the same query repeated: every answer from the cache
	opAdvise
	nOps
)

var opNames = [nOps]string{"ingest", "predict_cold", "predict_hit", "advise"}

// hitRepeats is how many times a cycle repeats its cold query.
const hitRepeats = 4

// shardCount is the routed tier's shard-engine count.
const shardCount = 3

// workload is one benchmark input set: a corpus, the tier it is replayed
// against and the queries of its cycle. README.md records why each exists.
type workload struct {
	name   string
	corpus func(seed int64) (*corpus, error)
	// deploy returns the corpus's deployment (properties, simulator
	// configuration, window span) without generating windows: the
	// fresh-process set-up needs only that and the first window's body.
	deploy func(seed int64) (*corpus, error)
	// router replays through shard engines behind a cosrouter.
	router bool
	// routed is the same corpus through the routed tier, replayed in this
	// workload's traced run for the cluster layer's metrics.
	routed  *workload
	mixed   bool
	predict string // /predict path and query
	advise  string // /advise path and query
}

// routerRead replays replay-read's corpus through 3 shards behind a
// cosrouter. It is not a workload of its own: its wall-clock figures did
// not hold steady across runs (README.md), so it runs only inside
// replay-read's traced run, for the cluster layer's metrics and checks.
var routerRead = &workload{
	name:    "router-read",
	router:  true,
	predict: "/predict",
	advise:  "/advise?sla=0.1&target=0.9",
}

var workloads = []*workload{
	{
		name:    "replay-read",
		corpus:  readCorpus,
		deploy:  readDeployment,
		routed:  routerRead,
		predict: "/predict",
		advise:  "/advise?sla=0.1&target=0.9",
	},
	{
		name:    "replay-mixed",
		corpus:  mixedCorpus,
		deploy:  mixedDeployment,
		mixed:   true,
		predict: "/predict?writeN=3&writeW=2&codedN=6&codedK=4&tenant=gold",
		advise:  "/advise?sla=0.1&target=0.9&tenants=gold:3,bronze:1",
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// strictAdvise is an unmeetable target (2 ms at 99.9%) that forces the
// tenant waterfill to shed.
const strictAdvise = "/advise?sla=0.002&target=0.999&tenants=gold:3,bronze:1"

// predictAnswer is what the checks need from a /predict answer.
type predictAnswer struct {
	reads, writes []float64
	// cached holds every cached flag of the answer; nil for the router,
	// whose answer carries none.
	cached []bool
}

func (w *workload) parsePredict(body []byte) (predictAnswer, error) {
	var a predictAnswer
	// A router answer flagged degraded is still checked by value: a hedge
	// to a standby (after a stall past the hedge delay) flags the answer
	// but the standby holds the same windows. cluster.degraded counts them.
	if w.router {
		var pr cluster.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return a, fmt.Errorf("decode router /predict: %w", err)
		}
		for _, p := range pr.Predictions {
			a.reads = append(a.reads, p.MeetRatio)
		}
		return a, nil
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return a, fmt.Errorf("decode /predict: %w", err)
	}
	for _, p := range pr.Predictions {
		a.reads = append(a.reads, p.MeetRatio)
		a.cached = append(a.cached, p.Cached)
	}
	if !w.mixed {
		return a, nil
	}
	if pr.Write == nil || pr.CodedRead == nil || pr.Tenant == nil || pr.Tenant.Class != "gold" {
		return a, fmt.Errorf("mixed /predict lacks its write, coded or tenant block: %s", body)
	}
	for _, p := range pr.Write.Predictions {
		a.writes = append(a.writes, p.MeetRatio)
		a.cached = append(a.cached, p.Cached)
	}
	for _, p := range pr.CodedRead.Predictions {
		a.cached = append(a.cached, p.Cached)
	}
	return a, nil
}

// checkAdvise validates an /advise answer: the headroom must be the
// admissible rate minus the current rate, and a tenant waterfill must empty
// bronze (weight 1) before it sheds any gold (weight 3).
func (w *workload) checkAdvise(body []byte) (serve.TenantAdvice, error) {
	var adv serve.TenantAdvice
	if w.router {
		var ar cluster.AdviceResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			return adv, fmt.Errorf("decode router /advise: %w", err)
		}
		adv.Advice = ar.Advice
	} else if err := json.Unmarshal(body, &adv); err != nil {
		return adv, fmt.Errorf("decode /advise: %w", err)
	}
	if d := adv.Headroom - (adv.MaxAdmissibleRate - adv.CurrentRate); math.Abs(d) > 1e-9 {
		return adv, fmt.Errorf("headroom %v is not maxAdmissibleRate %v - currentRate %v",
			adv.Headroom, adv.MaxAdmissibleRate, adv.CurrentRate)
	}
	if !w.mixed {
		return adv, nil
	}
	if len(adv.Tenants) != 2 || adv.Tenants[0].Class != "bronze" || adv.Tenants[1].Class != "gold" {
		return adv, fmt.Errorf("tenant allocation order %+v, want [bronze gold]", adv.Tenants)
	}
	if bronze, gold := adv.Tenants[0], adv.Tenants[1]; gold.ShedRate > 0 && bronze.AdmittedRate > 1e-9 {
		return adv, fmt.Errorf("gold shed %v before bronze was empty (bronze kept %v)", gold.ShedRate, bronze.AdmittedRate)
	}
	return adv, nil
}

// inProcess runs the op the cycle just sent over HTTP on an engine
// directly, with the same input: the traced run's engine-layer timing and
// the serve.http_us baseline.
func (w *workload) inProcess(ctx context.Context, e *serve.Engine, k opKind, win window) error {
	switch k {
	case opIngest:
		return e.Ingest(win.obs)
	case opCold, opHit:
		if _, err := e.PredictContext(ctx, nil); err != nil {
			return err
		}
		if !w.mixed {
			return nil
		}
		if _, err := e.PredictWriteContext(ctx, serve.WriteSpec{N: 3, W: 2}, nil); err != nil {
			return err
		}
		if _, err := e.PredictCodedContext(ctx, serve.CodedReadSpec{N: 6, K: 4}, nil); err != nil {
			return err
		}
		_, err := e.TenantStats("gold")
		return err
	case opAdvise:
		if w.mixed {
			_, err := e.AdviseTenantsContext(ctx, 0.1, 0.9, map[string]float64{"gold": 3, "bronze": 1}, nil)
			return err
		}
		_, err := e.AdviseContext(ctx, 0.1, 0.9)
		return err
	}
	return fmt.Errorf("unknown op %d", k)
}
