package main

import (
	"bytes"
	"fmt"
	"math"

	"cosmodel/internal/core"
	"cosmodel/internal/experiments"
	"cosmodel/internal/ingest"
	"cosmodel/internal/serve"
	"cosmodel/internal/simstore"
	"cosmodel/internal/trace"
)

// window is one replayed measurement window: the NDJSON body the servers
// ingest, the same observations decoded (for the in-process reference
// engines), and the simulator's measured SLA-meeting fractions.
type window struct {
	rate  float64
	body  []byte
	obs   []serve.Observation
	read  []float64 // measured read meet fraction per SLA
	write []float64 // measured PUT meet fraction per SLA; nil for read-only corpora
}

// corpus is a seeded sequence of measurement windows plus the deployment
// they were measured on.
type corpus struct {
	props   core.DeviceProperties
	sim     simstore.Config
	span    float64 // measured seconds per window: the servers' sliding window
	windows []window
}

// Corpus shapes. Read steps are short (7 measured seconds) so the
// 101-window read corpus is generated in about two seconds. Mixed steps are
// longer (25 measured seconds): write accuracy on shorter windows comes
// too close to the paper's 0.10 bar.
const (
	stepDur          = 10.0
	stepDiscard      = 3.0
	catalogSize      = 60000
	calibOps         = 1500
	writeFrac        = 0.2
	mixedStepDur     = 30.0
	mixedStepDiscard = 5.0
)

// readScenario is S1 (one process per disk) swept from 40 to 240 req/s.
func readScenario(seed int64) experiments.ScenarioConfig {
	sc := experiments.DefaultS1()
	sc.CatalogObjects = catalogSize
	sc.WarmRate, sc.WarmDur = 100, 20
	sc.RateStart, sc.RateEnd, sc.RateStep = 40, 240, 2
	sc.StepDur, sc.StepDiscard = stepDur, stepDiscard
	sc.CalibrationOps = calibOps
	sc.Seed = seed
	return sc
}

// readDeployment is readCorpus without its windows. RunSweep calibrates
// with the same arguments, so the properties are identical.
func readDeployment(seed int64) (*corpus, error) {
	sc := readScenario(seed)
	props, err := experiments.Calibrate(sc.Sim, sc.CalibrationOps, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("read deployment: %w", err)
	}
	return &corpus{props: props, sim: sc.Sim, span: stepDur - stepDiscard}, nil
}

// readCorpus replays a read-only S1 sweep.
func readCorpus(seed int64) (*corpus, error) {
	sc := readScenario(seed)
	data, err := experiments.RunSweep(sc)
	if err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	c := &corpus{props: data.Props, sim: sc.Sim, span: stepDur - stepDiscard}
	for i, win := range data.Windows {
		if err := c.add(data.Rates[i], win, false); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// mixedDeployment is mixedCorpus without its windows.
func mixedDeployment(seed int64) (*corpus, error) {
	simCfg := simstore.DefaultConfig()
	props, err := experiments.Calibrate(simCfg, calibOps, seed)
	if err != nil {
		return nil, fmt.Errorf("mixed deployment: %w", err)
	}
	return &corpus{props: props, sim: simCfg, span: mixedStepDur - mixedStepDiscard}, nil
}

// mixedCorpus replays the default deployment (3 replicas, W=2) under 20%
// PUTs from 60 to 150 req/s, reported as two tenant classes: gold on the
// lower half of the devices, bronze on the rest.
func mixedCorpus(seed int64) (*corpus, error) {
	c, err := mixedDeployment(seed)
	if err != nil {
		return nil, err
	}
	catalog, err := trace.NewCatalog(catalogSize, trace.WikipediaLikeSizes(), 1.05, 1, seed+10)
	if err != nil {
		return nil, fmt.Errorf("mixed corpus: %w", err)
	}
	cl, err := simstore.New(c.sim)
	if err != nil {
		return nil, fmt.Errorf("mixed corpus: %w", err)
	}
	if err := cl.PrewarmCaches(catalog, 0.95); err != nil {
		return nil, fmt.Errorf("mixed corpus: %w", err)
	}
	now := 0.0
	phase := func(rate, dur float64, phaseSeed int64) error {
		recs, err := trace.GenerateMixed(catalog,
			trace.Schedule{{Rate: rate, Duration: dur, Label: "phase"}}, writeFrac, phaseSeed)
		if err != nil {
			return fmt.Errorf("mixed corpus: %w", err)
		}
		for i := range recs {
			recs[i].At += now
		}
		cl.Inject(recs)
		now += dur
		return nil
	}
	if err := phase(100, 20, seed+100); err != nil {
		return nil, err
	}
	cl.RunUntil(now)
	step := int64(0)
	for rate := 60.0; rate <= 150+1e-9; rate += 3 {
		step++
		if err := phase(rate, mixedStepDur, seed+200+step); err != nil {
			return nil, err
		}
		cl.RunUntil(now - mixedStepDur + mixedStepDiscard)
		before := cl.Snapshot()
		cl.RunUntil(now)
		if err := c.add(rate, cl.Window(before, cl.Snapshot()), true); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// add converts one simulator window into wire observations. Windows the
// paper's analysis excludes (timeouts, retries, nothing measured) are
// skipped, as are mixed windows in which no PUT completed.
func (c *corpus) add(rate float64, win simstore.Window, mixed bool) error {
	if win.Timeouts > 0 || win.Retries > 0 || win.Responses == 0 {
		return nil
	}
	if mixed && len(win.WriteMeetFraction) == 0 {
		return nil
	}
	obs := windowObservations(win, c.sim.Devices(), mixed)
	if len(obs) == 0 {
		return nil
	}
	var body bytes.Buffer
	if err := ingest.EncodeNDJSON(&body, obs); err != nil {
		return fmt.Errorf("encode window at %.0f req/s: %w", rate, err)
	}
	w := window{rate: rate, body: body.Bytes(), obs: obs, read: win.MeetFraction}
	if mixed {
		w.write = win.WriteMeetFraction
	}
	c.windows = append(c.windows, w)
	return nil
}

// windowObservations is what a monitoring agent would report for the
// window. Ratios travel as synthetic hit/miss counts over a fixed number of
// accesses. With classes set, the lower half of the devices reports as
// tenant "gold" and the upper half as "bronze".
func windowObservations(win simstore.Window, devices int, classes bool) []serve.Observation {
	const accesses = 1_000_000
	hits := func(miss float64) (uint64, uint64) {
		m := uint64(math.Round(miss * accesses))
		return accesses - m, m
	}
	var out []serve.Observation
	for d := range win.DeviceRate {
		if win.DeviceRate[d] <= 0 {
			continue
		}
		o := serve.Observation{
			Device:    d,
			Interval:  win.Duration,
			Requests:  uint64(math.Round(win.DeviceRate[d] * win.Duration)),
			DataReads: uint64(math.Round(win.DeviceChunkRate[d] * win.Duration)),
			DiskBusy:  win.DiskMeanSvc[d] * accesses,
			DiskOps:   accesses,
		}
		if classes {
			o.Class = "gold"
			if d >= devices/2 {
				o.Class = "bronze"
			}
			if d < len(win.DeviceWriteRate) {
				o.Writes = uint64(math.Round(win.DeviceWriteRate[d] * win.Duration))
				o.WriteChunks = uint64(math.Round(win.DeviceWriteChunkRate[d] * win.Duration))
			}
		}
		o.IndexHits, o.IndexMisses = hits(win.MissIndex[d])
		o.MetaHits, o.MetaMisses = hits(win.MissMeta[d])
		o.DataHits, o.DataMisses = hits(win.MissData[d])
		out = append(out, o)
	}
	return out
}
