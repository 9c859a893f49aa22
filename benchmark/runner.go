package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/serve"
)

// maxProblems bounds the check failures kept for the report.
const maxProblems = 20

// runner replays a corpus against a stack and records what it sees.
type runner struct {
	ctx context.Context
	w   *workload
	c   *corpus
	st  *stack
	cl  *http.Client
	out io.Writer // diagnostics

	// tr is set for a traced phase. With shadow set too, every op is also
	// run on shadow, an uninstrumented engine fed the same inputs in
	// process.
	tr     *tracer
	shadow *serve.Engine
	// ref is router-read's single-engine reference for the first pass.
	ref *serve.Engine

	byWin               [nOps][][]float64 // latency ms by window index; +Inf for a failed op
	attempted, failed   int
	problems            []string
	firstDone           bool
	readErrs, writeErrs []float64
	traces              []*opTrace
	hits, misses        uint64 // engine cache counters after the last op
	hedges              uint64 // router hedges after the last op
}

func newRunner(ctx context.Context, w *workload, c *corpus, st *stack, cl *http.Client, out io.Writer) *runner {
	r := &runner{ctx: ctx, w: w, c: c, st: st, cl: cl, out: out}
	r.hits, r.misses = st.cacheCounts()
	return r
}

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// samples returns every recorded latency of op k.
func (r *runner) samples(k opKind) []float64 {
	var out []float64
	for _, s := range r.byWin[k] {
		out = append(out, s...)
	}
	return out
}

// resetLatencies drops the recorded latencies and traces; counts and
// check results stay.
func (r *runner) resetLatencies() {
	r.byWin = [nOps][][]float64{}
	r.traces = nil
}

// sequential replays the corpus in order with one client for d: passes of
// ingest → cold predict → repeated predicts → advise per window. Each pass
// starts with a cache invalidation, so every pass sees the same hits and
// misses. The first pass always completes: it carries the accuracy checks.
func (r *runner) sequential(d time.Duration) {
	deadline := time.Now().Add(d)
	for pass := 0; ; pass++ {
		r.st.invalidate()
		if r.shadow != nil {
			r.shadow.InvalidateCache()
		}
		for i, win := range r.c.windows {
			if r.firstDone && time.Now().After(deadline) {
				return
			}
			r.cycle(i, win)
		}
		if !r.firstDone {
			r.finishFirstPass()
		}
		if time.Now().After(deadline) {
			return
		}
	}
}

// cycle replays window i.
func (r *runner) cycle(i int, win window) {
	if _, ok := r.op(opIngest, i, win, http.MethodPost, "/ingest", win.body); ok && !r.firstDone && r.ref != nil {
		if err := r.ref.Ingest(win.obs); err != nil {
			r.problem("reference ingest: %v", err)
		}
	}
	if body, ok := r.op(opCold, i, win, http.MethodGet, r.w.predict, nil); ok {
		r.checkPredict(win, body, false)
	}
	for j := 0; j < hitRepeats; j++ {
		if body, ok := r.op(opHit, i, win, http.MethodGet, r.w.predict, nil); ok {
			r.checkPredict(win, body, true)
		}
	}
	if body, ok := r.op(opAdvise, i, win, http.MethodGet, r.w.advise, nil); ok {
		if _, err := r.w.checkAdvise(body); err != nil {
			r.problem("window %.0f req/s: %v", win.rate, err)
		}
	}
}

// op sends one request, records its latency (+Inf on failure) and, in the
// traced phase, its spans and the in-process run of the same op.
func (r *runner) op(k opKind, i int, win window, method, path string, body []byte) ([]byte, bool) {
	var ot *opTrace
	if r.tr != nil {
		ot = &opTrace{kind: k}
		r.tr.begin(ot)
	}
	status, out, d, err := r.st.do(r.ctx, r.cl, method, path, body)
	if ot != nil {
		r.tr.end()
		ot.e2e = d
		r.traces = append(r.traces, ot)
	}
	r.attempted++
	ok := err == nil && status == http.StatusOK
	ms := float64(d) / float64(time.Millisecond)
	if !ok {
		r.failed++
		ms = math.Inf(1)
		r.problem("%s %s at %.0f req/s: status %d err %v: %.200s", method, path, win.rate, status, err, out)
	}
	if r.byWin[k] == nil {
		r.byWin[k] = make([][]float64, len(r.c.windows))
	}
	r.byWin[k][i] = append(r.byWin[k][i], ms)
	if k != opIngest {
		hits, misses := r.st.cacheCounts()
		if ot != nil && k == opAdvise {
			ot.probes = hits - r.hits + misses - r.misses
			ot.coldProbes = misses - r.misses
		}
		if r.w.router {
			hedges, _ := routerCounters(r)
			if ok && hedges == r.hedges {
				r.checkCachedRouter(k, win, misses-r.misses)
			}
			r.hedges = hedges
		}
		r.hits, r.misses = hits, misses
	}
	if ot != nil && r.shadow != nil {
		if k == opIngest {
			ot.decode = timeDecode(win.body, r.c.sim.Devices())
		}
		start := time.Now()
		if err := r.w.inProcess(r.ctx, r.shadow, k, win); err != nil {
			r.problem("in-process %s: %v", opNames[k], err)
		}
		ot.inproc = time.Since(start)
	}
	return out, ok
}

// checkCachedRouter stands in for the cached flag the router's answer does
// not carry: a cold query must make the shards compute, a repeat must not.
// It is skipped for an op during which the router hedged, since the standby
// it raced may not have cached the point yet.
func (r *runner) checkCachedRouter(k opKind, win window, misses uint64) {
	switch {
	case k == opCold && misses == 0:
		r.problem("window %.0f req/s: cold router predict computed nothing", win.rate)
	case k == opHit && misses != 0:
		r.problem("window %.0f req/s: repeated router predict missed the cache %d times", win.rate, misses)
	}
}

// checkPredict checks the cached flags against the op's label and, on the
// first pass, accuracy against the simulator and the router against a
// single engine.
func (r *runner) checkPredict(win window, body []byte, wantCached bool) {
	a, err := r.w.parsePredict(body)
	if err != nil {
		r.problem("window %.0f req/s: %v", win.rate, err)
		return
	}
	for _, c := range a.cached {
		if c != wantCached {
			r.problem("window %.0f req/s: cached=%v on a %s query", win.rate, c, map[bool]string{false: "cold", true: "repeated"}[wantCached])
			break
		}
	}
	if wantCached || r.firstDone {
		return
	}
	if len(a.reads) != len(win.read) || len(a.writes) != len(win.write) {
		r.problem("window %.0f req/s: %d read and %d write answers, want %d and %d",
			win.rate, len(a.reads), len(a.writes), len(win.read), len(win.write))
		return
	}
	for i, p := range a.reads {
		r.readErrs = append(r.readErrs, math.Abs(p-win.read[i]))
	}
	for i, p := range a.writes {
		r.writeErrs = append(r.writeErrs, math.Abs(p-win.write[i]))
	}
	if r.ref == nil {
		return
	}
	want, err := r.ref.PredictContext(r.ctx, nil)
	if err != nil {
		r.problem("reference predict: %v", err)
		return
	}
	for i, p := range want {
		if math.Abs(a.reads[i]-p.MeetRatio) > 1e-9 {
			r.problem("window %.0f req/s sla %v: router %v, single engine %v",
				win.rate, p.SLA, a.reads[i], p.MeetRatio)
		}
	}
}

// maxMAE is the paper's accuracy bar.
const maxMAE = 0.10

// finishFirstPass applies the accuracy bar and, on the tenant workload,
// checks that an unmeetable target sheds bronze first.
func (r *runner) finishFirstPass() {
	r.firstDone = true
	if m := mean(r.readErrs); !(m <= maxMAE) {
		r.problem("read MAE %.4f over %d pairs exceeds %.2f", m, len(r.readErrs), maxMAE)
	}
	if r.w.mixed {
		if m := mean(r.writeErrs); !(m <= maxMAE) {
			r.problem("write MAE %.4f over %d pairs exceeds %.2f", m, len(r.writeErrs), maxMAE)
		}
		status, body, _, err := r.st.do(r.ctx, r.cl, http.MethodGet, strictAdvise, nil)
		if err != nil || status != http.StatusOK {
			r.problem("strict advise: status %d err %v", status, err)
			return
		}
		adv, err := r.w.checkAdvise(body)
		if err != nil {
			r.problem("strict advise: %v", err)
			return
		}
		if adv.CurrentRate <= adv.MaxAdmissibleRate || adv.Tenants[0].ShedRate <= 0 {
			r.problem("unmeetable target did not shed bronze: %s", body)
		}
	}
}

// mae is the mean absolute error over every first-pass (window, SLA) pair,
// reads and writes together.
func (r *runner) mae() float64 {
	return mean(append(append([]float64(nil), r.readErrs...), r.writeErrs...))
}

// concurrent runs that many closed-loop clients for d against one fixed
// window: each repeats a cycle of ingest, the cycle's query hitRepeats times
// and the advice, waiting for every answer. After one warm-up cycle every
// query is a cache hit, so the phase measures the hit path, HTTP and ingest
// under contention. It returns the duration of every cycle that ended
// inside the phase with all answers 200, the ops per cycle, and the
// successful completions per one-second bin (a diagnostic; phases shorter
// than two seconds use two bins).
func (r *runner) concurrent(win window, clients int, d time.Duration) (cycles []float64, perCycle int, bins []int64) {
	type req struct {
		method, path string
		body         []byte
	}
	loop := []req{{http.MethodPost, "/ingest", win.body}}
	for i := 0; i < hitRepeats; i++ {
		loop = append(loop, req{method: http.MethodGet, path: r.w.predict})
	}
	loop = append(loop, req{method: http.MethodGet, path: r.w.advise})
	for _, q := range loop {
		if status, _, _, err := r.st.do(r.ctx, r.cl, q.method, q.path, q.body); err != nil || status != http.StatusOK {
			r.problem("concurrent warm-up %s: status %d err %v", q.path, status, err)
		}
	}

	width := time.Second
	if d < 2*time.Second {
		width = d / 2
	}
	counts := make([]atomic.Int64, int(d/width))
	var att, fail atomic.Int64
	perClient := make([][]float64, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cycleStart, ok := time.Now(), true
				for _, q := range loop {
					status, _, _, err := r.st.do(r.ctx, r.cl, q.method, q.path, q.body)
					att.Add(1)
					if err != nil || status != http.StatusOK {
						fail.Add(1)
						ok = false
						continue
					}
					if b := int(time.Since(start) / width); b < len(counts) {
						counts[b].Add(1)
					}
				}
				if ok && time.Now().Before(deadline) {
					perClient[c] = append(perClient[c], time.Since(cycleStart).Seconds())
				}
			}
		}()
	}
	wg.Wait()
	r.attempted += int(att.Load())
	r.failed += int(fail.Load())
	if n := fail.Load(); n > 0 {
		r.problem("%d of %d concurrent operations failed", n, att.Load())
	}
	for _, c := range perClient {
		cycles = append(cycles, c...)
	}
	bins = make([]int64, len(counts))
	for i := range counts {
		bins[i] = counts[i].Load()
	}
	return cycles, len(loop), bins
}

// concurrentWindow is the window the concurrent phase replays: the middle
// of the sweep.
func concurrentWindow(c *corpus) window { return c.windows[len(c.windows)/2] }

// throughput runs the concurrent phase and returns the closed loop's
// throughput by Little's law at the median cycle time: clients × ops per
// cycle / median cycle. Like the latency estimator, the median drops cycles
// a stall (VM steal) stretched; completions counted per one-second bin
// follow the steal and are printed as a diagnostic only.
func (r *runner) throughput(d time.Duration) float64 {
	clients := runtime.NumCPU()
	cycles, perCycle, bins := r.concurrent(concurrentWindow(r.c), clients, d)
	fmt.Fprintf(r.out, "# concurrent phase: %d clients, %d cycles of %d ops; completions per %v bin: %v, median %.0f\n",
		clients, len(cycles), perCycle, d/time.Duration(len(bins)), bins, binMedian(bins))
	return float64(clients*perCycle) / median(cycles)
}
