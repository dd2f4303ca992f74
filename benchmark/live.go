package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"dscs"
	"dscs/internal/serve"
)

const (
	targetPlatform = "DSCS-Serverless"
	cpuPlatform    = "Baseline (CPU)"
	// warmupRequests run through the workload's own loop, unrecorded,
	// before a set-up counts as finished.
	warmupRequests = 5000
	// burstSize goroutines are released together; 192 stays under the
	// default 256-deep admission queue, so no burst is ever refused.
	burstSize = 192
)

// entry names where requests enter the system: the four rungs of the
// traced ladder, of which the gated workloads use the first and third.
type entry int

const (
	entryHTTP    entry = iota // A: HTTP client over loopback TCP
	entryHandler              // B: Handler().ServeHTTP into a recorder
	entrySubmit               // C: Engine.Submit
	entryInvoke               // D: Runner.Invoke
)

// liveConfig describes one live workload (or ladder rung).
type liveConfig struct {
	entry   entry
	opt     dscs.ServeOptions
	n       int // requests per block
	callers int // closed-loop callers; 0 means bursts of burstSize
	moved   bool
	rec     *recorder // nil with tracing off
}

// liveStack is the system under test as one workload needs it.
type liveStack struct {
	env     *dscs.Environment
	gw      *dscs.Gateway
	eng     *dscs.Server
	handler http.Handler
	srv     *http.Server
	client  *http.Client
	base    string
	suite   []*dscs.Benchmark
	paths   [apps]string
}

var bodies = [2]string{`{"quantile":0.5}`, `{"quantile":0.5,"cold":true}`}

func newLiveStack(seed uint64, cfg liveConfig) (*liveStack, error) {
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return nil, err
	}
	s := &liveStack{env: env, suite: dscs.Suite()}
	for i, b := range s.suite {
		s.paths[i] = "/function/" + b.Slug
	}
	opt := cfg.opt
	if cfg.rec != nil {
		rec := cfg.rec
		opt.Execute = func(r *dscs.Runner, b *dscs.Benchmark, o dscs.InvokeOptions) (dscs.InvokeResult, error) {
			start := time.Now()
			res, err := r.Invoke(b, o)
			rec.add("faas.invoke", start, time.Now())
			return res, err
		}
	}
	switch cfg.entry {
	case entryHTTP, entryHandler:
		if s.gw, err = dscs.NewGateway(env, opt); err != nil {
			return nil, err
		}
		s.eng = s.gw.Engine()
		s.handler = s.gw.Handler()
		if cfg.rec != nil {
			inner, rec := s.handler, cfg.rec
			s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				inner.ServeHTTP(w, r)
				rec.add("gateway.handler", start, time.Now())
			})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.gw.Close()
			return nil, err
		}
		s.srv = &http.Server{Handler: s.handler}
		go func() { _ = s.srv.Serve(ln) }() // returns ErrServerClosed once close() runs
		s.base = "http://" + ln.Addr().String()
		s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}
		for _, b := range s.suite {
			if err := s.deploy(b); err != nil {
				s.close()
				return nil, err
			}
		}
	case entrySubmit:
		if s.eng, err = dscs.NewServer(env, opt); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *liveStack) deploy(b *dscs.Benchmark) error {
	resp, err := s.client.Post(s.base+"/system/functions", "application/x-yaml", strings.NewReader(dscs.DeploymentYAML(b)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("deploy %s: HTTP %d", b.Slug, resp.StatusCode)
	}
	return nil
}

func (s *liveStack) close() {
	if s.srv != nil {
		s.srv.Close()
		s.client.CloseIdleConnections()
	}
	switch {
	case s.gw != nil:
		s.gw.Close()
	case s.eng != nil:
		s.eng.Close()
	}
}

// raw is one response as the timed loop leaves it; parsing waits for check.
type raw struct {
	req    request
	status int
	body   []byte
	inv    dscs.ServedInvocation
	err    error
}

// caller is one closed-loop client (or one burst goroutine): its own
// response arena, so the timed loop copies bodies without allocating.
type caller struct {
	arena []byte
	rd    bytes.Buffer
}

// do sends one request through the configured entry point.
func (s *liveStack) do(e entry, c *caller, req request) raw {
	out := raw{req: req, status: http.StatusOK}
	b := s.suite[req.app]
	opt := dscs.InvokeOptions{Quantile: 0.5, Cold: req.cold}
	body := bodies[0]
	if req.cold {
		body = bodies[1]
	}
	switch e {
	case entryHTTP:
		resp, err := s.client.Post(s.base+s.paths[req.app], "application/json", strings.NewReader(body))
		if err != nil {
			out.err = err
			return out
		}
		c.rd.Reset()
		_, out.err = c.rd.ReadFrom(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		out.body = c.keep(c.rd.Bytes())
	case entryHandler:
		r := httptest.NewRequest(http.MethodPost, s.paths[req.app], strings.NewReader(body))
		w := httptest.NewRecorder()
		s.handler.ServeHTTP(w, r)
		out.status = w.Code
		out.body = c.keep(w.Body.Bytes())
	case entrySubmit:
		out.inv, out.err = s.eng.Submit(targetPlatform, b, opt)
	case entryInvoke:
		out.inv = dscs.ServedInvocation{Platform: targetPlatform, BatchRequests: 1, BatchSize: 1}
		out.inv.Result, out.err = s.env.Runners[targetPlatform].Invoke(b, opt)
	}
	return out
}

func (c *caller) keep(b []byte) []byte {
	lo := len(c.arena)
	c.arena = append(c.arena, b...)
	return c.arena[lo:len(c.arena):len(c.arena)]
}

func (r raw) observe(e entry) observation {
	if e == entryHTTP || e == entryHandler {
		if r.err != nil {
			return observation{req: r.req, status: r.status, err: r.err}
		}
		return observeHTTP(r.req, r.status, r.body)
	}
	return observeInvocation(r.req, r.inv, r.err)
}

// liveRunner is a live workload instance.
type liveRunner struct {
	cfg     liveConfig
	seed    uint64
	stack   *liveStack
	ver     *verifier
	callers []caller
	raws    []raw
	lat     []time.Duration
	bursts  uint64
	// Kept only by the traced run (cfg.rec set), for the serve.* metrics.
	drains   []time.Duration
	queued   []time.Duration
	moved    int
	rejected int
}

// buildLive is the set-up of a live workload: fresh environment, engine or
// gateway, the eight deploys, the first (cold, compiling) invocation of
// every app at every batch size the workload can coalesce to, and the
// warm-up requests.
func buildLive(seed uint64, cfg liveConfig) (*liveRunner, error) {
	stack, err := newLiveStack(seed, cfg)
	if err != nil {
		return nil, err
	}
	ver, err := newVerifier(seed, targetPlatform, cfg.moved)
	if err != nil {
		stack.close()
		return nil, err
	}
	r := &liveRunner{cfg: cfg, seed: seed, stack: stack, ver: ver}
	nc := cfg.callers
	if nc == 0 {
		nc = burstSize
	}
	r.callers = make([]caller, nc)
	r.raws = make([]raw, cfg.n)
	r.lat = make([]time.Duration, cfg.n)
	if err := r.firstInvocations(); err != nil {
		stack.close()
		return nil, err
	}
	for i := 0; i*cfg.n < warmupRequests; i++ {
		r.runBlock(genBlock(seed, -1-i, cfg.n))
		for _, rw := range r.raws {
			if o := rw.observe(cfg.entry); o.err != nil || o.status != http.StatusOK {
				stack.close()
				return nil, fmt.Errorf("warm-up request failed: status %d, %v", o.status, o.err)
			}
		}
	}
	return r, nil
}

// firstInvocations pays the compile + DSA-simulate path once per (app,
// platform, batch size) the workload routes to, so no measured request
// does. Closed loops of two callers coalesce to at most 2; bursts to the
// engine's MaxBatch (8); with the balancer on, the CPU pool serves too.
func (r *liveRunner) firstInvocations() error {
	maxBatch := 2
	platforms := []string{targetPlatform}
	if r.cfg.callers == 0 {
		maxBatch = 8
	}
	if r.cfg.moved {
		platforms = append(platforms, cpuPlatform)
	}
	for app := range r.stack.suite {
		out := r.stack.do(r.cfg.entry, &r.callers[0], request{app: uint8(app), cold: true})
		if out.err != nil || out.status != http.StatusOK {
			return fmt.Errorf("first invocation of %s: status %d, %v", r.stack.suite[app].Slug, out.status, out.err)
		}
		for _, p := range platforms {
			for batch := 1; batch <= maxBatch; batch++ {
				if _, err := r.stack.env.Runners[p].Invoke(r.stack.suite[app], dscs.InvokeOptions{Batch: batch, Quantile: 0.5}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (r *liveRunner) run(i int) (int, time.Duration, []time.Duration) {
	wall := r.runBlock(genBlock(r.seed, i, r.cfg.n))
	return r.cfg.n, wall, r.lat
}

// runBlock sends one block and returns the wall time of its timed region.
func (r *liveRunner) runBlock(reqs []request) time.Duration {
	for i := range r.callers {
		r.callers[i].arena = r.callers[i].arena[:0]
	}
	if r.cfg.callers == 0 {
		return r.runBursts(reqs)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.cfg.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			me := &r.callers[c]
			for i := c; i < len(reqs); i += r.cfg.callers {
				t0 := time.Now()
				if r.cfg.rec != nil {
					r.cfg.rec.cur.Store(r.cfg.rec.seq.Add(1))
				}
				r.raws[i] = r.stack.do(r.cfg.entry, me, reqs[i])
				t1 := time.Now()
				r.lat[i] = t1.Sub(t0)
				if r.cfg.rec != nil {
					r.cfg.rec.add("client.request", t0, t1)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// runBursts releases the block burstSize requests at a time: every
// goroutine of a burst is parked on the gate before it opens, each blocks
// in Submit, and the next burst starts after the last reply. Latency is
// measured from the release instant, so a stall is charged to everyone
// behind it. No timer paces anything.
func (r *liveRunner) runBursts(reqs []request) time.Duration {
	var total time.Duration
	for lo := 0; lo < len(reqs); lo += burstSize {
		gate := make(chan struct{})
		var ready, done sync.WaitGroup
		var release time.Time
		ready.Add(burstSize)
		done.Add(burstSize)
		r.bursts++
		if r.cfg.rec != nil {
			r.cfg.rec.cur.Store(r.bursts)
		}
		for g := 0; g < burstSize; g++ {
			go func(g int) {
				defer done.Done()
				i := lo + g
				ready.Done()
				<-gate
				r.raws[i] = r.stack.do(r.cfg.entry, &r.callers[g], reqs[i])
				end := time.Now()
				r.lat[i] = end.Sub(release)
				if r.cfg.rec != nil {
					r.cfg.rec.add("submit", release, end)
				}
			}(g)
		}
		ready.Wait()
		release = time.Now()
		close(gate)
		done.Wait()
		end := time.Now()
		total += end.Sub(release)
		if r.cfg.rec != nil {
			r.drains = append(r.drains, end.Sub(release))
			r.cfg.rec.add("burst", release, end)
		}
	}
	return total
}

func (r *liveRunner) check(t *tally) {
	for _, rw := range r.raws {
		r.ver.verify(rw.observe(r.cfg.entry), t)
		if r.cfg.rec == nil || r.cfg.entry != entrySubmit {
			continue
		}
		switch {
		case errors.Is(rw.err, serve.ErrQueueFull):
			r.rejected++
		case rw.err == nil:
			r.queued = append(r.queued, rw.inv.Queued)
			if rw.inv.Platform != targetPlatform {
				r.moved++
			}
		}
	}
}

func (r *liveRunner) finish(t *tally) {
	if r.stack.eng != nil {
		t.expect(r.stack.eng.Conservation(), "engine conservation")
	}
	r.stack.close()
}
