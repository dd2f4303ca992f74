// Package gateway exposes the serverless framework over HTTP with an
// OpenFaaS-style API: deploy an application from its YAML (with the
// in-storage acceleration hints), invoke it, list deployments, and scrape
// telemetry. The gateway routes accelerated applications to the
// DSCS-Serverless pool and everything else (or explicit requests) to the
// CPU baseline — the minimal-disruption integration of Section 5.1.
//
// Invocations flow through the concurrent serving engine (internal/serve):
// per-platform worker pools, bounded-queue admission control (a full queue
// is HTTP 429), pluggable scheduling policies, and same-benchmark request
// batching. Nothing on the request path holds a gateway-wide lock.
// /metrics surfaces the engine's telemetry alongside the gateway counters,
// including the per-{platform, class} queue-delay quantile gauges
// (serve_queue_delay_p50/p95/p99) that adaptive balancing keys on. See
// ARCHITECTURE.md at the repository root for the full request path.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dscs/internal/faas"
	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// Deployment is one registered application.
type Deployment struct {
	App       *faas.Application
	Benchmark *workload.Benchmark
	YAML      string
	At        time.Time

	// Resolved from App when the deployment lands, so a request reads them
	// instead of walking the chain: the accelerated-prefix length and the
	// default platform pool it selects.
	accelerated int
	route       string
}

// Gateway serves the API. Safe for concurrent use: the deployment registry
// sits behind a read-write lock and invocations go straight to the serving
// engine — no gateway-wide mutex serializes the request path.
type Gateway struct {
	mu     sync.RWMutex
	apps   map[string]*Deployment
	engine *serve.Engine
	// route maps an application to its default platform pool.
	defaultAccel, defaultPlain string
	tel                        *sched.Telemetry
	// invocations and its per-platform split, resolved once per runner so
	// a request builds no label. Read-only after construction.
	invocations           sched.CounterHandle
	invocationsByPlatform map[string]sched.CounterHandle
}

// NewWithOptions builds a gateway whose serving engine uses the given
// worker-pool, admission, policy, and batching options. The engine shares
// the gateway's telemetry registry, so /metrics surfaces queue depth,
// drops, and batch occupancy alongside the gateway counters.
func NewWithOptions(runners map[string]*faas.Runner, accelRunner, plainRunner string, opt serve.Options) (*Gateway, error) {
	if _, ok := runners[accelRunner]; !ok {
		return nil, fmt.Errorf("gateway: unknown accelerated runner %q", accelRunner)
	}
	if _, ok := runners[plainRunner]; !ok {
		return nil, fmt.Errorf("gateway: unknown plain runner %q", plainRunner)
	}
	tel := opt.Telemetry
	if tel == nil {
		tel = sched.NewTelemetry()
		opt.Telemetry = tel
	}
	// Adaptive balance spills DSCS work onto the gateway's plain (CPU)
	// pool unless the caller picked a target explicitly.
	if opt.AdaptiveBalance && opt.SpilloverTo == "" {
		opt.SpilloverTo = plainRunner
	}
	engine, err := serve.NewEngine(runners, opt)
	if err != nil {
		return nil, err
	}
	byPlatform := make(map[string]sched.CounterHandle, len(runners))
	for name := range runners {
		byPlatform[name] = tel.CounterHandle("gateway_invocations_total{platform=" + name + "}")
	}
	return &Gateway{
		apps:                  make(map[string]*Deployment),
		engine:                engine,
		defaultAccel:          accelRunner,
		defaultPlain:          plainRunner,
		tel:                   tel,
		invocations:           tel.CounterHandle("gateway_invocations_total"),
		invocationsByPlatform: byPlatform,
	}, nil
}

// Telemetry exposes the gateway's metric registry.
func (g *Gateway) Telemetry() *sched.Telemetry { return g.tel }

// Engine exposes the serving engine (diagnostics, tests).
func (g *Gateway) Engine() *serve.Engine { return g.engine }

// Close stops the serving engine's worker pools after draining their
// queues. The gateway must not be invoked afterwards.
func (g *Gateway) Close() { g.engine.Close() }

// Handler returns the HTTP API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", g.health)
	mux.HandleFunc("/system/functions", g.systemFunctions)
	mux.HandleFunc("/system/workflows", g.systemWorkflows)
	mux.HandleFunc("/function/", g.invoke)
	mux.HandleFunc("/metrics", g.metrics)
	return mux
}

func (g *Gateway) health(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// systemFunctions handles deploys (POST, YAML body) and listing (GET).
func (g *Gateway) systemFunctions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		g.deploy(w, r)
	case http.MethodGet:
		g.list(w)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// maxAdminBody bounds a deploy YAML or workflow spec body; anything longer
// is refused.
const maxAdminBody = 1 << 20

// readAdminBody reads a deploy or workflow body whole. Like invoke it fails
// closed, writing the refusal itself: a read error is 400, a body past
// maxAdminBody 413 — never a parse of whatever fit.
func readAdminBody(w http.ResponseWriter, r *http.Request) (body string, ok bool) {
	b, err := io.ReadAll(io.LimitReader(r.Body, maxAdminBody+1))
	switch {
	case err != nil:
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
	case len(b) > maxAdminBody:
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxAdminBody), http.StatusRequestEntityTooLarge)
	default:
		return string(b), true
	}
	return "", false
}

func (g *Gateway) deploy(w http.ResponseWriter, r *http.Request) {
	body, ok := readAdminBody(w, r)
	if !ok {
		return
	}
	app, err := faas.ParseApplication(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bench := workload.BySlug(app.Name)
	if bench == nil {
		http.Error(w, fmt.Sprintf("no workload data for application %q", app.Name),
			http.StatusUnprocessableEntity)
		return
	}
	d := &Deployment{App: app, Benchmark: bench, YAML: body, At: time.Now()}
	d.accelerated = len(app.AcceleratedPrefix())
	d.route = g.routeFor(d.accelerated)
	g.mu.Lock()
	_, redeploy := g.apps[app.Name]
	g.apps[app.Name] = d
	g.mu.Unlock()
	if redeploy {
		// A redeploy may change the chain: the engine's memoized pricing
		// and latency history for this slug are stale the moment the new
		// deployment lands.
		g.engine.ForgetEstimate(app.Name)
		g.tel.Inc("gateway_redeployments_total", 1)
	}
	g.tel.Inc("gateway_deployments_total", 1)
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]interface{}{
		"deployed":    app.Name,
		"functions":   len(app.Chain),
		"accelerated": d.accelerated,
	})
}

// listEntry is one row of the deployment listing.
type listEntry struct {
	Name        string `json:"name"`
	Functions   int    `json:"functions"`
	Accelerated int    `json:"accelerated_functions"`
	Model       string `json:"model"`
	Runner      string `json:"default_runner"`
}

func (g *Gateway) list(w http.ResponseWriter) {
	g.mu.RLock()
	entries := make([]listEntry, 0, len(g.apps))
	for _, d := range g.apps {
		entries = append(entries, listEntry{
			Name:        d.App.Name,
			Functions:   len(d.App.Chain),
			Accelerated: d.accelerated,
			Model:       d.Benchmark.Model.Name,
			Runner:      d.route,
		})
	}
	g.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	writeJSON(w, entries)
}

// routeFor picks the default runner for a deployment whose chain opens
// with the given number of accelerated functions.
func (g *Gateway) routeFor(accelerated int) string {
	if accelerated > 0 {
		return g.defaultAccel
	}
	return g.defaultPlain
}

// invokeRequest is the invocation body (all fields optional).
type invokeRequest struct {
	Batch    int     `json:"batch"`
	Cold     bool    `json:"cold"`
	Quantile float64 `json:"quantile"`
}

// invokeResponse reports one invocation.
type invokeResponse struct {
	Application string  `json:"application"`
	Platform    string  `json:"platform"`
	TotalMS     float64 `json:"total_ms"`
	StackMS     float64 `json:"stack_ms"`
	RemoteIOMS  float64 `json:"remote_io_ms"`
	ComputeMS   float64 `json:"compute_ms"`
	DeviceIOMS  float64 `json:"device_io_ms"`
	DriverMS    float64 `json:"driver_ms"`
	ColdMS      float64 `json:"cold_start_ms"`
	NotifyMS    float64 `json:"notify_ms"`
	EnergyJ     float64 `json:"energy_j"`
	// Serving-engine telemetry for this request.
	QueuedMS      float64 `json:"queued_ms"`
	BatchRequests int     `json:"batch_requests"`
	BatchSize     int     `json:"batch_size"`
}

// maxInvokeBody bounds the invocation body; anything longer is refused.
const maxInvokeBody = 1 << 16

// invokeScratch is everything one invoke call would otherwise allocate: the
// body buffer and its bounded reader, the decoded request, the response and
// the bytes it is rendered into, which leave in a single Write.
type invokeScratch struct {
	limit io.LimitedReader
	body  bytes.Buffer
	req   invokeRequest
	resp  invokeResponse
	out   []byte
}

var invokeScratchPool = sync.Pool{New: func() any { return new(invokeScratch) }}

// jsonContentType is the invoke response's Content-Type header value,
// shared so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// readBody reads r's body into the scratch and decodes it into s.req (an
// empty body leaves the defaults). It fails closed: a read error, malformed
// JSON or a quantile the runner cannot price is 400, a body past
// maxInvokeBody 413. The caller's reader is not retained.
func (s *invokeScratch) readBody(r *http.Request) (status int, err error) {
	s.req = invokeRequest{}
	if r.Body == nil {
		return http.StatusOK, nil
	}
	s.body.Reset()
	s.limit = io.LimitedReader{R: r.Body, N: maxInvokeBody + 1}
	n, err := s.body.ReadFrom(&s.limit)
	s.limit.R = nil
	switch {
	case err != nil:
		//dscslint:allow hotpathcheck cold branch: the client's body could not be read
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	case n > maxInvokeBody:
		//dscslint:allow hotpathcheck cold branch: oversize body
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxInvokeBody)
	case n == 0:
		return http.StatusOK, nil
	}
	if scanInvokeRequest(s.body.Bytes(), &s.req) {
		return s.checkQuantile()
	}
	// Whatever the scanner leaves is json.Unmarshal's to accept or refuse.
	// Unmarshal merges into the struct, so start it from zero again.
	s.req = invokeRequest{}
	if err := json.Unmarshal(s.body.Bytes(), &s.req); err != nil {
		//dscslint:allow hotpathcheck cold branch: malformed body
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return s.checkQuantile()
}

// checkQuantile refuses a decoded quantile the runner cannot price
// (faas.ErrQuantile) with 400.
func (s *invokeScratch) checkQuantile() (status int, err error) {
	if err := (faas.Options{Quantile: s.req.Quantile}).Validate(); err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

//dscslint:hotpath
func (g *Gateway) invoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/function/")
	g.mu.RLock()
	d, ok := g.apps[name]
	g.mu.RUnlock()
	if !ok {
		g.tel.Inc("gateway_not_found_total", 1)
		//dscslint:allow hotpathcheck cold branch: unknown application
		http.Error(w, fmt.Sprintf("application %q not deployed", name), http.StatusNotFound)
		return
	}

	s := invokeScratchPool.Get().(*invokeScratch)
	defer invokeScratchPool.Put(s)
	if status, err := s.readBody(r); err != nil {
		http.Error(w, err.Error(), status)
		return
	}

	platformName := d.route
	if r.URL.RawQuery != "" {
		if p := r.URL.Query().Get("platform"); p != "" {
			if !g.engine.Has(p) {
				//dscslint:allow hotpathcheck cold branch: unknown platform
				http.Error(w, fmt.Sprintf("unknown platform %q", p), http.StatusBadRequest)
				return
			}
			platformName = p
		}
	}

	inv, err := g.engine.Submit(platformName, d.Benchmark, faas.Options{
		Batch: s.req.Batch, Cold: s.req.Cold, Quantile: s.req.Quantile,
	})
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		g.tel.Inc("gateway_throttled_total", 1)
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	case err != nil:
		g.tel.Inc("gateway_errors_total", 1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	g.invocations.Inc(1)
	g.invocationsByPlatform[platformName].Inc(1)

	ms := func(dur time.Duration) float64 { return float64(dur) / float64(time.Millisecond) }
	res := inv.Result
	bd := res.Breakdown
	s.resp = invokeResponse{
		Application:   name,
		Platform:      platformName,
		TotalMS:       ms(res.Total()),
		StackMS:       ms(bd.Stack),
		RemoteIOMS:    ms(bd.RemoteRead + bd.RemoteWrite),
		ComputeMS:     ms(bd.Compute),
		DeviceIOMS:    ms(bd.DeviceIO),
		DriverMS:      ms(bd.Driver),
		ColdMS:        ms(bd.ColdStart),
		NotifyMS:      ms(bd.Notify),
		EnergyJ:       float64(res.Energy),
		QueuedMS:      ms(inv.Queued),
		BatchRequests: inv.BatchRequests,
		BatchSize:     inv.BatchSize,
	}
	if err := s.renderResponse(); err != nil {
		g.tel.Inc("gateway_errors_total", 1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(s.out) // a client that hung up has nobody to report to
}

// renderResponse writes s.resp into s.out as a json.Encoder with a
// two-space indent would. appendInvokeResponse renders the common case; a
// response it declines goes through the encoder itself, so a NaN or
// infinite float is still the encoder's error and a name that needs
// escaping still gets the encoder's escapes.
func (s *invokeScratch) renderResponse() error {
	out, ok := appendInvokeResponse(s.out[:0], &s.resp)
	s.out = out
	if ok {
		return nil
	}
	buf := bytes.NewBuffer(out[:0])
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(&s.resp)
	s.out = buf.Bytes()
	return err
}

// workflowStageJSON is one stage row of a workflow response.
type workflowStageJSON struct {
	ID       string `json:"id"`
	Platform string `json:"platform,omitempty"`
	Local    bool   `json:"local"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
}

// workflowResponse reports one settled workflow: the ledger, the
// end-to-end makespan, and the local-vs-fabric byte split.
type workflowResponse struct {
	ID          int                 `json:"id"`
	Succeeded   bool                `json:"succeeded"`
	MakespanMS  float64             `json:"makespan_ms"`
	Completed   int                 `json:"completed"`
	Dropped     int                 `json:"dropped"`
	Stranded    int                 `json:"stranded"`
	LocalStages int                 `json:"local_stages"`
	LocalBytes  int64               `json:"local_bytes"`
	FabricBytes int64               `json:"fabric_bytes"`
	Stages      []workflowStageJSON `json:"stages"`
}

// systemWorkflows admits one invocation graph (POST, spec text body in the
// offset:id=benchmark:deps format of internal/trace) and blocks until it
// settles. Malformed graphs — cycles, dangling deps, duplicate IDs — are
// HTTP 400; a stage naming an undeployed-unknown benchmark is 422.
func (g *Gateway) systemWorkflows(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, ok := readAdminBody(w, r)
	if !ok {
		return
	}
	spec, err := trace.ParseWorkflowSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var opt faas.Options
	if q := r.URL.Query().Get("quantile"); q != "" {
		if opt.Quantile, err = strconv.ParseFloat(q, 64); err == nil {
			err = opt.Validate()
		}
		if err != nil {
			http.Error(w, "bad quantile: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	res, err := g.engine.SubmitWorkflow(spec, opt)
	if err != nil {
		if errors.Is(err, serve.ErrUnknownBenchmark) {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		g.tel.Inc("gateway_errors_total", 1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	g.tel.Inc("gateway_workflows_total", 1)
	stages := make([]workflowStageJSON, len(res.Stages))
	for i, st := range res.Stages {
		stages[i] = workflowStageJSON{
			ID: st.ID, Platform: st.Platform, Local: st.Local,
			State: st.State.String(), Error: st.Err,
		}
	}
	writeJSON(w, workflowResponse{
		ID: res.ID, Succeeded: res.Succeeded,
		MakespanMS: float64(res.Makespan) / float64(time.Millisecond),
		Completed:  res.Completed, Dropped: res.Dropped, Stranded: res.Stranded,
		LocalStages: res.LocalStages,
		LocalBytes:  int64(res.LocalBytes), FabricBytes: int64(res.FabricBytes),
		Stages: stages,
	})
}

func (g *Gateway) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, g.tel.Render())
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
