package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself for a fresh-process set-up.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-child" {
		os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runBenchmark runs the command in process and decodes its last line.
func runBenchmark(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

func checkMetrics(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		// The tracing overhead is a difference of two timings and may be
		// negative; every other metric is a time, count or ratio.
		if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || (m.Value < 0 && s.name != "trace.overhead_pct") {
			t.Errorf("metric %s = %+v, want a value in %s", s.name, m, s.unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: all checks
// pass (on replay-read's routed tier too, including router ≡ single
// engine), nothing fails, and every declared metric is printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replays simulator corpora")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runBenchmark(t, "--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", "0")
			checkMetrics(t, res, endToEnd)
			for _, name := range []string{"setup_s", "predict_cold_p50_ms", "throughput_ops_s", "mae"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			traced := runBenchmark(t, "--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", "1")
			checkMetrics(t, traced, perLayer)
			if traced.Metrics["core.cdf_batch_us"].Value <= 0 {
				t.Error("traced run recorded no core.cdf_batch spans")
			}
			if got := traced.Metrics["cluster.fanout_calls"].Value; (got > 0) != (w.routed != nil) {
				t.Errorf("cluster.fanout_calls = %v on %s", got, w.name)
			}
			if got := traced.Metrics["core.write_cdf_batch_us"].Value; (got > 0) != w.mixed {
				t.Errorf("core.write_cdf_batch_us = %v on %s", got, w.name)
			}
		})
	}
}

// TestCorpusDeterministic: a seed fixes every ingest body and the ground
// truth the accuracy is scored against; another seed changes them.
func TestCorpusDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replays simulator corpora")
	}
	for _, w := range []*workload{workloads[0], workloads[1]} {
		a, err := w.corpus(11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.corpus(11)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.corpus(12)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.windows) != len(b.windows) || len(a.windows) < 10 {
			t.Fatalf("%s: %d and %d windows", w.name, len(a.windows), len(b.windows))
		}
		for i := range a.windows {
			wa, wb := a.windows[i], b.windows[i]
			if !bytes.Equal(wa.body, wb.body) || !equal(wa.read, wb.read) || !equal(wa.write, wb.write) {
				t.Fatalf("%s: window %d differs between two generations", w.name, i)
			}
		}
		if bytes.Equal(a.windows[0].body, c.windows[0].body) {
			t.Errorf("%s: seeds 11 and 12 gave the same first window", w.name)
		}
		dep, err := w.deploy(11)
		if err != nil {
			t.Fatal(err)
		}
		if dep.props != a.props || dep.span != a.span {
			t.Errorf("%s: deployment %+v differs from the corpus's %+v", w.name, dep.props, a.props)
		}
	}
	first := runBenchmark(t, "--workload", "replay-read", "--seed", "11", "--seconds", "0.5", "--trace", "0")
	second := runBenchmark(t, "--workload", "replay-read", "--seed", "11", "--seconds", "0.5", "--trace", "0")
	if a, b := first.Metrics["mae"].Value, second.Metrics["mae"].Value; a != b {
		t.Errorf("mae %v then %v for one seed", a, b)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit, Better string }, specs []metricSpec) {
		if len(declared) != len(specs) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(specs))
			return
		}
		for i, d := range declared {
			if s := specs[i]; d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
				t.Errorf("%s %d: declared %+v, printed %+v", kind, i, d, s)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
