package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
	"cosmodel/internal/obs"
	"cosmodel/internal/serve"
)

// Traced-run shape: an untraced sequential phase (the baseline for the
// tracing overhead), an untraced concurrent phase (runtime and cache
// counters), a traced sequential phase (the layer spans) and, for a
// workload with a routed tier, a traced sequential phase through it.
const (
	untracedSeqShare = 0.2
	concShare        = 0.2
	routedShare      = 0.25
)

// tracedRun replays the same inputs in the same order as untracedRun with
// the program's public hooks instrumented, and reports per-layer metrics.
func tracedRun(ctx context.Context, w *workload, seed int64, d time.Duration, stdout io.Writer) (result, error) {
	fp := newFingerprint(w.name, seed)
	steal0 := stealMS()
	c, err := generate(w, seed)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	r, stop, err := start(ctx, w, c, tr, stdout)
	if err != nil {
		return result{}, err
	}
	defer stop()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.sequential(time.Duration(untracedSeqShare * float64(d)))
	var untraced [nOps]float64
	for k := range untraced {
		untraced[k] = median(r.samples(opKind(k)))
	}
	h0, m0 := r.st.cacheCounts()
	r.throughput(time.Duration(concShare * float64(d)))
	h1, m1 := r.st.cacheCounts()
	runtime.ReadMemStats(&ms1)
	ops := float64(r.attempted)
	entries := 0
	for _, e := range r.st.engines() {
		entries += e.Stats().CacheEntries
	}

	shadow, err := serve.NewEngine(serveConfig(c))
	if err != nil {
		return result{}, err
	}
	defer shadow.Close()
	r.resetLatencies()
	r.tr, r.shadow = tr, shadow
	traced := 1 - untracedSeqShare - concShare
	if w.routed != nil {
		traced -= routedShare
	}
	tr.on.Store(true)
	r.sequential(time.Duration(traced * float64(d)))
	tr.on.Store(false)

	printLatencies(stdout, r)
	overhead := printOverhead(stdout, untraced, r)
	printReconciliation(stdout, reconcile(r.traces, false))
	v := layerMetrics(r.traces, false)
	v["cluster.hedges"], v["cluster.degraded"] = 0, 0 // no router unless routed
	if w.routed != nil {
		routed, err := routedPhase(ctx, w.routed, c, time.Duration(routedShare*float64(d)), stdout)
		if err != nil {
			return result{}, err
		}
		for k, x := range routed.metrics {
			v[k] = x
		}
		for _, p := range routed.problems {
			r.problem("%s: %s", w.routed.name, p)
		}
		r.attempted += routed.attempted
		r.failed += routed.failed
	}
	fp.StealMS = stealMS() - steal0
	printFingerprint(stdout, fp)
	printProblems(stdout, r)

	v["serve.cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	v["serve.cache_entries"] = float64(entries)
	v["numeric.fallbacks"] = float64(tr.fallbacks.Load())
	v["dist.gamma_lst_ns"] = gammaLSTns(c)
	v["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	v["runtime.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops
	v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["env.steal_ms"] = float64(fp.StealMS)
	v["trace.overhead_pct"] = overhead
	return r.result(perLayer, v), nil
}

// routedResult is what the routed phase contributes to a traced run.
type routedResult struct {
	metrics           map[string]float64 // the cluster.* metrics
	problems          []string
	attempted, failed int
}

// routedPhase replays the corpus through the routed tier, traced, for d
// (and at least one whole pass): the cluster layer's metrics, the router ≡
// single engine check on the first pass, and the router's reconciliation.
func routedPhase(ctx context.Context, w *workload, c *corpus, d time.Duration, stdout io.Writer) (routedResult, error) {
	tr := newTracer()
	r, stop, err := start(ctx, w, c, tr, stdout)
	if err != nil {
		return routedResult{}, err
	}
	defer stop()
	hedges0, degraded0 := routerCounters(r)
	r.tr = tr
	tr.on.Store(true)
	r.sequential(d)
	tr.on.Store(false)
	hedges1, degraded1 := routerCounters(r)

	printLatencies(stdout, r)
	printReconciliation(stdout, reconcile(r.traces, true))
	res := routedResult{metrics: map[string]float64{}, problems: r.problems, attempted: r.attempted, failed: r.failed}
	for k, x := range layerMetrics(r.traces, true) {
		if strings.HasPrefix(k, "cluster.") {
			res.metrics[k] = x
		}
	}
	res.metrics["cluster.hedges"] = float64(hedges1 - hedges0)
	res.metrics["cluster.degraded"] = float64(degraded1 - degraded0)
	return res, nil
}

// routerCounters reads the router's hedge and degraded-response counters.
func routerCounters(r *runner) (hedges, degraded uint64) {
	if r.st.router == nil {
		return 0, 0
	}
	reg := r.st.router.Registry()
	return counter(reg, "cosrouter_hedges_total"), counter(reg, "cosrouter_degraded_responses_total")
}

// counter reads a counter the program registered (the help text of an
// existing family is not consulted).
func counter(reg *obs.Registry, name string) uint64 { return reg.Counter(name, "", nil).Value() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printOverhead compares the traced phase's p50s with the untraced ones
// and returns the overhead on their sum, in percent.
func printOverhead(w io.Writer, untraced [nOps]float64, r *runner) float64 {
	var u, t float64
	line := "# tracing overhead (p50 ms, untraced → traced):"
	for k := opKind(0); k < nOps; k++ {
		tk := median(r.samples(k))
		line += fmt.Sprintf(" %s %.4f → %.4f;", opNames[k], untraced[k], tk)
		u += untraced[k]
		t += tk
	}
	pct := 100 * (t/u - 1)
	fmt.Fprintf(w, "%s total %+.1f%%\n", line, pct)
	return pct
}

// layerMetrics derives the span-based per-layer metrics.
func layerMetrics(traces []*opTrace, router bool) map[string]float64 {
	var (
		decode, ingestT, coldT, hitT, adviseT []float64
		probes, coldProbes, httpT             []float64
		byOp                                  = map[string][]float64{}
		groups, writeRatio, codedRatio        []float64
		rtT, shardT, routerSelf               []float64
		nodes                                 int
		fanCalls, fanBytes, queries           int64
	)
	for _, o := range traces {
		switch o.kind {
		case opIngest:
			decode = append(decode, us(o.decode))
			ingestT = append(ingestT, us(o.inproc))
		case opCold:
			coldT = append(coldT, us(o.inproc))
		case opHit:
			hitT = append(hitT, us(o.inproc))
			if !router {
				httpT = append(httpT, us(o.e2e-o.inproc))
			}
		case opAdvise:
			adviseT = append(adviseT, us(o.inproc))
			probes = append(probes, float64(o.probes))
			coldProbes = append(coldProbes, float64(o.coldProbes))
		}
		perOp := map[string]time.Duration{}
		for _, c := range o.core {
			byOp[c.op] = append(byOp[c.op], us(c.dur()))
			perOp[c.op] += c.dur()
			if c.op == "cdf_batch" {
				groups = append(groups, float64(c.groups))
			}
			nodes = max(nodes, c.nodes)
		}
		if plain := perOp["cdf_batch"]; plain > 0 {
			if wr := perOp["write_cdf_batch"]; wr > 0 {
				writeRatio = append(writeRatio, float64(wr)/float64(plain))
			}
			if cd := perOp["coded_cdf_batch"]; cd > 0 {
				codedRatio = append(codedRatio, float64(cd)/float64(plain))
			}
		}
		if !router || o.kind == opIngest {
			continue
		}
		queries++
		partials := rtSpans(o.rt, "/shard/partial")
		for _, rs := range o.rt {
			if rs.path == "/shard/partial" {
				fanCalls++
				fanBytes += rs.bytes
				rtT = append(rtT, us(rs.dur()))
			}
		}
		for _, s := range o.shard {
			shardT = append(shardT, us(s.dur()))
		}
		routerSelf = append(routerSelf, us(covered(o.outer)-covered(partials)))
	}
	medianOrZero := func(samples []float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		return median(samples)
	}
	return map[string]float64{
		"ingest.decode_us":         medianOrZero(decode),
		"serve.ingest_us":          medianOrZero(ingestT),
		"serve.predict_cold_us":    medianOrZero(coldT),
		"serve.predict_hit_us":     medianOrZero(hitT),
		"serve.advise_us":          medianOrZero(adviseT),
		"serve.advise_probes":      medianOrZero(probes),
		"serve.advise_cold_probes": medianOrZero(coldProbes),
		"serve.http_us":            medianOrZero(httpT),
		"core.cdf_batch_us":        medianOrZero(byOp["cdf_batch"]),
		"core.cdf_us":              medianOrZero(byOp["cdf"]),
		"core.groups":              medianOrZero(groups),
		"core.write_cdf_batch_us":  medianOrZero(byOp["write_cdf_batch"]),
		"core.coded_cdf_batch_us":  medianOrZero(byOp["coded_cdf_batch"]),
		"coscode.write_over_plain": medianOrZero(writeRatio),
		"coscode.coded_over_plain": medianOrZero(codedRatio),
		"numeric.nodes":            float64(nodes),
		"cluster.fanout_calls":     ratio(float64(fanCalls), float64(queries)),
		"cluster.fanout_bytes":     ratio(float64(fanBytes), float64(queries)),
		"cluster.roundtrip_us":     medianOrZero(rtT),
		"cluster.shard_partial_us": medianOrZero(shardT),
		"cluster.router_self_us":   medianOrZero(routerSelf),
	}
}

// lstSink keeps the LST loop from being optimised away.
var lstSink complex128

// gammaLSTns times the LSTs of the workload's fitted disk distributions at
// the Euler abscissae of its SLA grid: the median over repetitions of the
// mean ns per call.
func gammaLSTns(c *corpus) float64 {
	var s []complex128
	euler := numeric.NewEuler()
	for _, t := range c.sim.SLAs {
		s, _ = euler.AppendNodes(s, nil, t)
	}
	ds := []dist.Distribution{c.props.IndexDisk, c.props.MetaDisk, c.props.DataDisk}
	const reps, loops = 9, 200
	samples := make([]float64, reps)
	for i := range samples {
		start := time.Now()
		for j := 0; j < loops; j++ {
			for _, d := range ds {
				for _, x := range s {
					lstSink += d.LST(x)
				}
			}
		}
		samples[i] = float64(time.Since(start)) / float64(loops*len(ds)*len(s))
	}
	return median(samples)
}
