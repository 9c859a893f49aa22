// Command benchmark is cosmodel's benchmark. It replays a seeded,
// simulator-generated corpus of measurement windows against in-process
// cosserve (and cosrouter) instances on loopback from one client process,
// checks the answers, and prints one JSON result line. See README.md.
//
//	go run . --workload replay-read --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cosmodel/internal/serve"
)

// metricSpec declares one reported metric.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a run with --trace 0 reports.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_p90_ms", "ms", "lower"},
	{"predict_cold_p50_ms", "ms", "lower"},
	{"predict_cold_p90_ms", "ms", "lower"},
	{"predict_hit_p50_ms", "ms", "lower"},
	{"advise_p50_ms", "ms", "lower"},
	{"advise_p90_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_live_mb", "MiB", "lower"},
	{"mae", "fraction", "lower"},
}

// perLayer are the metrics a run with --trace 1 reports. Metrics of a
// layer the workload does not run read 0.
var perLayer = []metricSpec{
	{"ingest.decode_us", "us", "lower"},
	{"serve.ingest_us", "us", "lower"},
	{"serve.predict_cold_us", "us", "lower"},
	{"serve.predict_hit_us", "us", "lower"},
	{"serve.advise_us", "us", "lower"},
	{"serve.advise_probes", "count", "lower"},
	{"serve.advise_cold_probes", "count", "lower"},
	{"serve.cache_hit_ratio", "fraction", "higher"},
	{"serve.cache_entries", "count", "lower"},
	{"serve.http_us", "us", "lower"},
	{"core.cdf_batch_us", "us", "lower"},
	{"core.cdf_us", "us", "lower"},
	{"core.groups", "count", "lower"},
	{"core.write_cdf_batch_us", "us", "lower"},
	{"core.coded_cdf_batch_us", "us", "lower"},
	{"coscode.write_over_plain", "ratio", "lower"},
	{"coscode.coded_over_plain", "ratio", "lower"},
	{"numeric.nodes", "count", "lower"},
	{"numeric.fallbacks", "count", "lower"},
	{"dist.gamma_lst_ns", "ns", "lower"},
	{"cluster.fanout_calls", "count", "lower"},
	{"cluster.fanout_bytes", "bytes", "lower"},
	{"cluster.roundtrip_us", "us", "lower"},
	{"cluster.shard_partial_us", "us", "lower"},
	{"cluster.router_self_us", "us", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.degraded", "count", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_kb_per_op", "KiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"env.steal_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// Run shape.
const (
	// seqShare of a run is the sequential phase, the rest concurrent.
	seqShare = 0.6
	// freshSetups is how many fresh processes time set-up; setup_s is
	// their median.
	freshSetups = 15
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay-read or replay-mixed")
	seed := fs.Int64("seed", 1, "corpus seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced run, printing per-layer metrics")
	setupChild := fs.Bool("setup-child", false, "time one set-up in this process, first window on stdin")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && !(*seconds > 0) {
		err = errors.New("--seconds must be positive")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	ctx := context.Background()
	if *setupChild {
		if err := timeOneSetup(ctx, w, *seed, stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark: set-up:", err)
			return 1
		}
		return 0
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res, err = tracedRun(ctx, w, *seed, d, stdout)
	} else {
		res, err = untracedRun(ctx, w, *seed, d, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// timeOneSetup is the fresh-process set-up: it reads the first window's
// body from stdin, recomputes the deployment, and prints the seconds from
// the first server constructor to the first successful /predict.
func timeOneSetup(ctx context.Context, w *workload, seed int64, stdin io.Reader, stdout io.Writer) error {
	body, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	c, err := w.deploy(seed)
	if err != nil {
		return err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	st, d, err := setUp(ctx, w, c, body, nil, cl)
	if err != nil {
		return err
	}
	st.close()
	_, err = fmt.Fprintln(stdout, d.Seconds())
	return err
}

// freshSetupSeconds times set-up in freshSetups fresh processes, one after
// the other, so one-time lazy initialisation counts, and returns them.
func freshSetupSeconds(w *workload, seed int64, first []byte) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < freshSetups; i++ {
		cmd := exec.Command(self, "--setup-child", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdin = bytes.NewReader(first)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process printed %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// generate makes a workload's corpus.
func generate(w *workload, seed int64) (*corpus, error) {
	c, err := w.corpus(seed)
	if err != nil {
		return nil, err
	}
	if len(c.windows) < 2 {
		return nil, fmt.Errorf("corpus has %d windows", len(c.windows))
	}
	return c, nil
}

// start sets the workload's tier up in this process.
func start(ctx context.Context, w *workload, c *corpus, tr *tracer, stdout io.Writer) (*runner, func(), error) {
	cl := newClient()
	st, d, err := setUp(ctx, w, c, c.windows[0].body, tr, cl)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "# %s: %d windows; in-process set-up %.4f s\n", w.name, len(c.windows), d.Seconds())
	st.startProber()
	r := newRunner(ctx, w, c, st, cl, stdout)
	if w.router {
		if r.ref, err = serve.NewEngine(serveConfig(c)); err != nil {
			st.close()
			return nil, nil, err
		}
	}
	stop := func() {
		st.close()
		cl.CloseIdleConnections()
		if r.ref != nil {
			r.ref.Close()
		}
	}
	return r, stop, nil
}

func untracedRun(ctx context.Context, w *workload, seed int64, d time.Duration, stdout io.Writer) (result, error) {
	fp := newFingerprint(w.name, seed)
	steal0 := stealMS()
	c, err := generate(w, seed)
	if err != nil {
		return result{}, err
	}
	r, stop, err := start(ctx, w, c, nil, stdout)
	if err != nil {
		return result{}, err
	}
	defer stop()
	setups, err := freshSetupSeconds(w, seed, r.c.windows[0].body)
	if err != nil {
		return result{}, err
	}

	cpu0 := cpuTime()
	seqD := time.Duration(seqShare * float64(d))
	r.sequential(seqD)
	cpu := cpuTime() - cpu0
	seqOps := r.attempted
	tput := r.throughput(d - seqD)

	fp.StealMS = stealMS() - steal0
	printFingerprint(stdout, fp)
	printLatencies(stdout, r)
	fmt.Fprintf(stdout, "# set-up per fresh process (s): %v\n", setups)
	printProblems(stdout, r)

	v := map[string]float64{
		"setup_s":             median(setups),
		"ingest_p50_ms":       windowPercentile(r.byWin[opIngest], 0.5),
		"ingest_p90_ms":       windowPercentile(r.byWin[opIngest], 0.9),
		"predict_cold_p50_ms": windowPercentile(r.byWin[opCold], 0.5),
		"predict_cold_p90_ms": windowPercentile(r.byWin[opCold], 0.9),
		"predict_hit_p50_ms":  windowPercentile(r.byWin[opHit], 0.5),
		"advise_p50_ms":       windowPercentile(r.byWin[opAdvise], 0.5),
		"advise_p90_ms":       windowPercentile(r.byWin[opAdvise], 0.9),
		"throughput_ops_s":    tput,
		"cpu_ms_per_op":       float64(cpu) / float64(time.Millisecond) / float64(seqOps),
		"mae":                 r.mae(),
	}
	// The recorded latencies grow with the run's speed; drop them so the
	// live heap is the tier's (cache, ingest tables) plus a fixed corpus.
	// Two collections also empty the sync.Pool victim caches.
	r.resetLatencies()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	return r.result(endToEnd, v), nil
}

// result assembles the output line. A non-finite value marks the run
// incorrect: it can only come from failed operations or an empty sample.
func (r *runner) result(specs []metricSpec, v map[string]float64) result {
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		x, ok := v[s.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			res.Correct = false
			x = math.MaxFloat64
		}
		res.Metrics[s.name] = metric{Value: x, Unit: s.unit}
	}
	return res
}

func printFingerprint(w io.Writer, fp fingerprint) {
	b, _ := json.Marshal(fp)
	fmt.Fprintf(w, "# fingerprint %s\n", b)
}

// printLatencies prints each op's percentiles with their sample counts,
// including p99 and the highest percentile with at least ten samples
// beyond it: diagnostics, not gated.
func printLatencies(w io.Writer, r *runner) {
	fmt.Fprintf(w, "# %s latencies:\n", r.w.name)
	for k := opKind(0); k < nOps; k++ {
		s := r.samples(k)
		line := fmt.Sprintf("#   %-12s n=%d p50=%.4f p90=%.4f p99=%.4f ms", opNames[k], len(s),
			percentile(s, 0.5), percentile(s, 0.9), percentile(s, 0.99))
		if p := highestSupported(len(s)); p > 0 {
			line += fmt.Sprintf("; highest supported p%g=%.4f ms (%d samples beyond)",
				100*p, percentile(s, p), int(math.Round(float64(len(s))*(1-p))))
		}
		fmt.Fprintln(w, line)
	}
}

func printProblems(w io.Writer, r *runner) {
	for _, p := range r.problems {
		fmt.Fprintln(w, "# CHECK FAILED:", p)
	}
}
