package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"cosmodel/internal/cluster"
	"cosmodel/internal/serve"
)

// stack is the system under test: one cosserve server, or shard-mode
// servers behind a cosrouter, each on its own loopback listener.
type stack struct {
	servers []*serve.Server
	router  *cluster.Router
	https   []*http.Server
	done    []chan struct{}
	base    string // URL the clients talk to
}

// serveConfig is the serving configuration for a corpus's deployment.
func serveConfig(c *corpus) serve.Config {
	cfg := serve.DefaultConfig(c.props, c.sim.Devices())
	cfg.ProcsPerDevice = c.sim.ProcsPerDisk
	cfg.FrontendProcs = c.sim.Frontends * c.sim.ProcsPerFrontend
	cfg.SLAs = c.sim.SLAs
	// Half the window span: every new window then replaces the previous
	// one outright, even when the simulator's float clock makes a window
	// a hair shorter than its nominal span.
	cfg.Window = c.span / 2
	return cfg
}

// startStack builds the servers (and the router) and binds their
// listeners. With a tracer the program's public hooks are instrumented.
func startStack(w *workload, c *corpus, tr *tracer) (*stack, error) {
	s := &stack{}
	n := 1
	if w.router {
		n = shardCount
	}
	urls := make([]string, n)
	for i := range urls {
		cfg := serveConfig(c)
		cfg.ShardMode = w.router
		if tr != nil {
			tr.instrument(&cfg.Opts)
		}
		srv, err := serve.NewServer(cfg)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("start server: %w", err)
		}
		s.servers = append(s.servers, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.middleware(h, w.router)
		}
		if urls[i], err = s.listen(h); err != nil {
			s.close()
			return nil, err
		}
	}
	if !w.router {
		s.base = urls[0]
		return s, nil
	}
	rc := cluster.DefaultConfig(urls, c.sim.Devices())
	rc.SLAs = c.sim.SLAs
	rc.Window = c.span / 2
	if tr != nil {
		rc.Client = tr.client()
	}
	r, err := cluster.NewRouter(rc)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("start router: %w", err)
	}
	s.router = r
	var h http.Handler = r.Handler()
	if tr != nil {
		h = tr.middleware(h, false)
	}
	if s.base, err = s.listen(h); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "benchmark: serve %s: %v\n", ln.Addr(), err)
		}
	}()
	s.https = append(s.https, hs)
	s.done = append(s.done, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, waits for their serve loops, then stops the
// router's prober and the engines' calibration feeders.
func (s *stack) close() {
	for i, hs := range s.https {
		hs.Close() //nolint:errcheck // closing listeners of a finished run
		<-s.done[i]
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// startProber starts the router's periodic health prober, as a deployed
// router runs it: without it a node struck down after a stall would never
// be probed back up.
func (s *stack) startProber() {
	if s.router != nil {
		s.router.Start()
	}
}

// engines are the prediction engines behind the stack.
func (s *stack) engines() []*serve.Engine {
	out := make([]*serve.Engine, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.Engine()
	}
	return out
}

// invalidate starts a new cache generation on every engine, the effect a
// recalibration has: the next pass over the corpus starts cold.
func (s *stack) invalidate() {
	for _, e := range s.engines() {
		e.InvalidateCache()
	}
}

// cacheCounts sums the engines' cache hits and misses.
func (s *stack) cacheCounts() (hits, misses uint64) {
	for _, e := range s.engines() {
		st := e.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	return hits, misses
}

// do sends one request and reads the whole answer. The duration covers
// sending the request through reading the last byte of the reply.
func (s *stack) do(ctx context.Context, cl *http.Client, method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // body fully read
	return resp.StatusCode, out, time.Since(start), err
}

// newClient is the load generator's HTTP client: keep-alive connections
// for up to 16 concurrent clients, no compression.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		},
	}
}

// setUp brings a workload's tier to its first successful /predict: build
// the servers (and router), bind the listeners, ingest the first window and
// ask. The router is made ready with direct ProbeOnce and WarmupOnce calls,
// so the time holds no sleeps, poll intervals or prober ticks; its prober
// is started afterwards (startProber), outside the timed set-up.
func setUp(ctx context.Context, w *workload, c *corpus, first []byte, tr *tracer, cl *http.Client) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := startStack(w, c, tr)
	if err != nil {
		return nil, 0, err
	}
	if st.router != nil {
		st.router.ProbeOnce(ctx)
	}
	status, body, _, err := st.do(ctx, cl, http.MethodPost, "/ingest", first)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("set-up ingest: %w", err)
	}
	if st.router != nil {
		st.router.WarmupOnce(ctx)
	}
	status, body, _, err = st.do(ctx, cl, http.MethodGet, w.predict, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("set-up predict: %w", err)
	}
	return st, time.Since(start), nil
}
