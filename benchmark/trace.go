package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/ingest"
)

// span is a time interval relative to the tracer's base.
type span struct{ start, end time.Duration }

func (s span) dur() time.Duration { return s.end - s.start }

// coreSpan is one core.EvalEvent.
type coreSpan struct {
	span
	op     string
	groups int
	nodes  int
}

// rtSpan is one router-to-shard round trip, from sending the request to
// closing the response body.
type rtSpan struct {
	span
	path  string
	bytes int64 // request plus response body bytes
}

// opTrace is everything recorded about one replayed operation.
type opTrace struct {
	kind   opKind
	e2e    time.Duration // client-side latency
	outer  []span        // Server.Handler, or Router.Handler on router-read
	shard  []span        // /shard/partial handlers (router-read)
	rt     []rtSpan      // router round trips (router-read)
	core   []coreSpan    // model evaluations
	inproc time.Duration // the same op on the in-process engine
	decode time.Duration // ingest.DecodeNDJSON of the body (ingest ops)
	// probes and coldProbes are the engines' cache hit+miss and miss
	// deltas across an advise.
	probes, coldProbes uint64
}

// tracer receives spans from the program's public hooks: core.Options'
// Observer and OnFallback, middleware around the handlers, and the
// router's shard client transport. While on, spans land in the op the
// sequential replay is running; hooks cost one atomic load while off.
type tracer struct {
	on        atomic.Bool
	base      time.Time
	fallbacks atomic.Int64

	mu  sync.Mutex
	cur *opTrace
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) begin(o *opTrace) {
	t.mu.Lock()
	t.cur = o
	t.mu.Unlock()
}

func (t *tracer) end() {
	t.mu.Lock()
	t.cur = nil
	t.mu.Unlock()
}

func (t *tracer) record(fn func(o *opTrace)) {
	t.mu.Lock()
	if t.cur != nil {
		fn(t.cur)
	}
	t.mu.Unlock()
}

// instrument installs the evaluation hooks into an engine's options.
func (t *tracer) instrument(opts *core.Options) {
	opts.Observer = func(ev core.EvalEvent) {
		if !t.on.Load() {
			return
		}
		end := t.now()
		cs := coreSpan{span: span{end - ev.Duration, end}, op: ev.Op, groups: ev.Groups, nodes: ev.Nodes}
		t.record(func(o *opTrace) { o.core = append(o.core, cs) })
	}
	opts.OnFallback = func(from, to string) { t.fallbacks.Add(1) }
}

// middleware times a handler: the outer tier's, or a shard's /shard/partial.
func (t *tracer) middleware(h http.Handler, shard bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.on.Load() || (shard && req.URL.Path != "/shard/partial") {
			h.ServeHTTP(w, req)
			return
		}
		start := t.now()
		h.ServeHTTP(w, req)
		s := span{start, t.now()}
		t.record(func(o *opTrace) {
			if shard {
				o.shard = append(o.shard, s)
			} else {
				o.outer = append(o.outer, s)
			}
		})
	})
}

// client is the router's shard client: the router's own default (a 30 s
// timeout over the default transport) with round trips recorded.
func (t *tracer) client() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &tracingTransport{t: t, next: http.DefaultTransport}}
}

type tracingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.next.RoundTrip(req)
	}
	start := tt.t.now()
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		tt.t.record(func(o *opTrace) {
			o.rt = append(o.rt, rtSpan{span: span{start, tt.t.now()}, path: req.URL.Path})
		})
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		rs := rtSpan{span: span{start, tt.t.now()}, path: req.URL.Path, bytes: n + max(req.ContentLength, 0)}
		tt.t.record(func(o *opTrace) { o.rt = append(o.rt, rs) })
	}}
	return resp, nil
}

// countingBody counts response bytes and reports them once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// timeDecode times the streaming NDJSON decode of one ingest body alone.
func timeDecode(body []byte, devices int) time.Duration {
	start := time.Now()
	if _, err := ingest.DecodeNDJSON(bytes.NewReader(body), devices, 0, func([]ingest.Observation) error { return nil }); err != nil {
		return -1
	}
	return time.Since(start)
}

// covered returns the length of the union of spans.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	total := time.Duration(0)
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.dur()
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.dur()
}

func coreSpans(cs []coreSpan) []span {
	out := make([]span, len(cs))
	for i, c := range cs {
		out[i] = c.span
	}
	return out
}

func rtSpans(rs []rtSpan, path string) []span {
	var out []span
	for _, r := range rs {
		if r.path == path {
			out = append(out, r.span)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerRow is one line of the layer-sum reconciliation: an op type's
// end-to-end p50 against the p50s of its layers' self times.
type layerRow struct {
	op     string
	e2e    float64 // µs
	layers []layerPart
}

type layerPart struct {
	name string
	us   float64
}

// reconcile splits each traced op into layer self times, each layer's span
// minus the part of it its child layer covers, and takes per-layer medians.
//
// Single server: core spans; engine self (the in-process op minus its core
// time); NDJSON decode (ingest only); HTTP handler self (handler minus the
// in-process op and the decode). Router: core
// spans; shard handler self; fan-out transport (round trips minus shard
// handlers); router self (router handler minus round trips).
func reconcile(traces []*opTrace, router bool) []layerRow {
	var rows []layerRow
	for k := opKind(0); k < nOps; k++ {
		var e2e []float64
		parts := map[string][]float64{}
		var names []string
		add := func(name string, v time.Duration) {
			if _, ok := parts[name]; !ok {
				names = append(names, name)
			}
			parts[name] = append(parts[name], us(v))
		}
		for _, o := range traces {
			if o.kind != k {
				continue
			}
			e2e = append(e2e, us(o.e2e))
			coreT := covered(coreSpans(o.core))
			outer := covered(o.outer)
			add("core", coreT)
			if router {
				shard := covered(o.shard)
				rt := covered(rtSpans(o.rt, "/shard/partial"))
				if k == opIngest {
					shard, rt = 0, covered(rtSpans(o.rt, "/ingest"))
				}
				add("shard self", shard-coreT)
				add("fan-out transport", rt-shard)
				add("router self", outer-rt)
			} else {
				add("engine self", o.inproc-coreT)
				add("ndjson decode", o.decode)
				add("http handler self", outer-o.inproc-o.decode)
			}
		}
		if len(e2e) == 0 {
			continue
		}
		row := layerRow{op: opNames[k], e2e: median(e2e)}
		for _, n := range names {
			row.layers = append(row.layers, layerPart{n, median(parts[n])})
		}
		rows = append(rows, row)
	}
	return rows
}

// printReconciliation writes the layer-sum table and names every gap above
// 20% of the end-to-end p50.
func printReconciliation(w io.Writer, rows []layerRow) {
	fmt.Fprintln(w, "# layer-sum reconciliation (p50, µs; self times)")
	for _, r := range rows {
		sum := 0.0
		line := ""
		for _, p := range r.layers {
			sum += p.us
			line += fmt.Sprintf(" %s=%.1f", p.name, p.us)
		}
		rem := r.e2e - sum
		fmt.Fprintf(w, "#   %-12s e2e=%.1f layers=%.1f remainder=%.1f (%.0f%%):%s\n",
			r.op, r.e2e, sum, rem, 100*rem/r.e2e, line)
		if rem > 0.2*r.e2e || rem < -0.2*r.e2e {
			fmt.Fprintf(w, "#     gap: %.0f%% of %s is outside the traced layers: the load generator's HTTP client, loopback TCP and request/response codec\n",
				100*rem/r.e2e, r.op)
		}
	}
}
