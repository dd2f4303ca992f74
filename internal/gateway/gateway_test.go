package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dscs/internal/csd"
	"dscs/internal/faas"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/workload"
)

// testGatewayWithOptions builds the standard six-node fixture (four plain
// SSDs, two DSCS-Drives) and a gateway with the given engine options.
func testGatewayWithOptions(t testing.TB, seed uint64, opt serve.Options) *Gateway {
	t.Helper()
	var nodes []*objstore.Node
	for i := 0; i < 4; i++ {
		d, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("ssd-%d", i), Kind: objstore.PlainSSD, SSD: d,
		})
	}
	for i := 0; i < 2; i++ {
		d, err := csd.New(csd.Default())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("dscs-%d", i), Kind: objstore.DSCSDrive, CSD: d,
		})
	}
	store, err := objstore.New(objstore.Default(), nodes, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	runners := map[string]*faas.Runner{
		"DSCS-Serverless": faas.NewRunner(store, platform.DSCS()),
		"Baseline (CPU)":  faas.NewRunner(store, platform.BaselineCPU()),
	}
	g, err := NewWithOptions(runners, "DSCS-Serverless", "Baseline (CPU)", opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func testGateway(t *testing.T) *Gateway {
	t.Helper()
	return testGatewayWithOptions(t, 17, serve.Options{})
}

func deployApp(t *testing.T, srv *httptest.Server, slug string) {
	t.Helper()
	b := workload.BySlug(slug)
	resp, err := http.Post(srv.URL+"/system/functions", "application/x-yaml",
		strings.NewReader(faas.DeploymentYAML(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
}

func TestDeployListInvoke(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	deployApp(t, srv, "asset-damage")
	deployApp(t, srv, "chatbot")

	// List shows both with their routing.
	resp, err := http.Get(srv.URL + "/system/functions")
	if err != nil {
		t.Fatal(err)
	}
	var entries []listEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 2 {
		t.Fatalf("listed %d apps, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Accelerated != 2 || e.Runner != "DSCS-Serverless" {
			t.Errorf("entry %+v: accelerated apps must route to DSCS", e)
		}
	}

	// Invoke lands on the DSCS runner and returns a full breakdown.
	resp, err = http.Post(srv.URL+"/function/asset-damage", "application/json",
		strings.NewReader(`{"quantile":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	var inv invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if inv.Platform != "DSCS-Serverless" {
		t.Errorf("routed to %q", inv.Platform)
	}
	if inv.TotalMS <= 0 || inv.EnergyJ <= 0 || inv.DriverMS <= 0 {
		t.Errorf("degenerate invocation response: %+v", inv)
	}
	sum := inv.StackMS + inv.RemoteIOMS + inv.ComputeMS + inv.DeviceIOMS +
		inv.DriverMS + inv.ColdMS + inv.NotifyMS
	if diff := inv.TotalMS - sum; diff > 0.01 || diff < -0.01 {
		t.Errorf("breakdown (%.3f) does not sum to total (%.3f)", sum, inv.TotalMS)
	}
}

func TestPlatformOverride(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	deployApp(t, srv, "moderation")

	resp, err := http.Post(srv.URL+"/function/moderation?platform="+url.QueryEscape("Baseline (CPU)"),
		"application/json", strings.NewReader(`{"quantile":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	var inv invokeResponse
	json.NewDecoder(resp.Body).Decode(&inv)
	resp.Body.Close()
	if inv.Platform != "Baseline (CPU)" {
		t.Errorf("override ignored: %q", inv.Platform)
	}
	if inv.RemoteIOMS <= 0 {
		t.Error("baseline invocation must pay remote IO")
	}

	// Unknown platform is a client error.
	resp, _ = http.Post(srv.URL+"/function/moderation?platform=TPU", "application/json", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown platform status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestInvokeErrors(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// Not deployed.
	resp, _ := http.Post(srv.URL+"/function/ghost", "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing app status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wrong method.
	resp, _ = http.Get(srv.URL + "/function/ghost")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET invoke status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad YAML deploy.
	resp, _ = http.Post(srv.URL+"/system/functions", "application/x-yaml",
		strings.NewReader("not: [valid"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad yaml status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Valid YAML but unknown workload.
	yaml := strings.Replace(faas.DeploymentYAML(workload.Chatbot()),
		"name: chatbot", "name: mystery", 1)
	resp, _ = http.Post(srv.URL+"/system/functions", "application/x-yaml",
		strings.NewReader(yaml))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown workload status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed invocation body.
	deployApp(t, srv, "chatbot")
	resp, _ = http.Post(srv.URL+"/function/chatbot", "application/json",
		strings.NewReader("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMetricsAndHealth(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	deployApp(t, srv, "clinical")
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/function/clinical", "application/json",
			strings.NewReader(`{"quantile":0.5}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	text := string(body[:n])
	if !strings.Contains(text, "gateway_invocations_total 3") {
		t.Errorf("metrics missing invocation count:\n%s", text)
	}
	if !strings.Contains(text, "gateway_deployments_total 1") {
		t.Errorf("metrics missing deployment count:\n%s", text)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSpilloverAndLingerObservable exercises the dscsgate tuning surface:
// with -adaptive-balance and -batch-linger set, /metrics must expose
// serve_spillover_total and serve_steal_total (spillover lands on the
// gateway's plain pool by default) and the per-platform
// serve_batch_occupancy gauge.
func TestSpilloverAndLingerObservable(t *testing.T) {
	g := testGatewayWithOptions(t, 29, serve.Options{
		Workers: 1, QueueDepth: 64, MaxBatch: 8,
		AdaptiveBalance: true, EstimateWarmup: 1,
		BatchLinger: 2 * time.Millisecond,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	deployApp(t, srv, "asset-damage")

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/function/asset-damage", "application/json",
				strings.NewReader(`{"quantile":0.5}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("invoke status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, counter := range []string{"serve_spillover_total", "serve_steal_total"} {
		if !strings.Contains(text, counter) {
			t.Errorf("metrics missing %s:\n%s", counter, text)
		}
	}
	if !strings.Contains(text, "serve_batch_occupancy{platform=") {
		t.Errorf("metrics missing per-platform serve_batch_occupancy:\n%s", text)
	}
	if strings.Contains(text, "serve_batch_occupancy ") {
		t.Errorf("unlabeled serve_batch_occupancy gauge present:\n%s", text)
	}
	if err := g.Engine().Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDelayGaugesOnGateway is the wait-observatory acceptance check
// at the HTTP surface: the serve_queue_delay_{p50,p95,p99}{platform,class}
// gauges are live on /metrics from the first scrape (registered at engine
// construction) and hold real quantiles once traffic has been served, with
// -adaptive-balance wired through the options.
func TestQueueDelayGaugesOnGateway(t *testing.T) {
	g := testGatewayWithOptions(t, 31, serve.Options{
		Workers: 2, QueueDepth: 64,
		AdaptiveBalance: true,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	text := metricsBody(t, srv)
	for _, gauge := range []string{
		"serve_queue_delay_p50{platform=DSCS-Serverless,class=dscs}",
		"serve_queue_delay_p95{platform=DSCS-Serverless,class=dscs}",
		"serve_queue_delay_p99{platform=DSCS-Serverless,class=dscs}",
		"serve_queue_delay_p95{platform=Baseline (CPU),class=cpu}",
	} {
		if !strings.Contains(text, gauge) {
			t.Errorf("first scrape missing %q:\n%s", gauge, text)
		}
	}
	// Adaptive balance arms both rebalancing counter families up front.
	for _, counter := range []string{"serve_spillover_total", "serve_steal_total"} {
		if !strings.Contains(text, counter) {
			t.Errorf("adaptive balance armed but %q absent from /metrics", counter)
		}
	}

	deployApp(t, srv, "asset-damage")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/function/asset-damage", "application/json",
				strings.NewReader(`{"quantile":0.5}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()

	// The digests behind the gauges recorded every served request exactly
	// once across the pools.
	var waits int64
	for _, platform := range []string{"DSCS-Serverless", "Baseline (CPU)"} {
		if dg := g.Engine().WaitDigest(platform); dg != nil {
			waits += dg.Count()
		}
	}
	if waits != 8 {
		t.Errorf("wait digests recorded %d delays for 8 served requests", waits)
	}
	if err := g.Engine().Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewWithOptions(map[string]*faas.Runner{}, "a", "b", serve.Options{}); err == nil {
		t.Error("missing runners must fail")
	}
}

// metricsBody scrapes /metrics and returns the exposition text.
func metricsBody(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestRedeployDropsStalePricing is the redeploy regression: the engine
// memoizes service estimates by slug, so before the fix a deploy over an
// existing name kept the old chain's pricing (and latency history)
// forever. The fixed engine re-prices a changed chain — the cache
// validates the Benchmark object, so a changed chain under the same slug
// can never inherit stale pricing — and the gateway's redeploy path calls
// Engine.ForgetEstimate, dropping the slug's memoized estimate and its
// latency digests. Both assertions fail on the pre-fix code.
func TestRedeployDropsStalePricing(t *testing.T) {
	g := testGatewayWithOptions(t, 7, serve.Options{Workers: 1})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	deployApp(t, srv, "chatbot")

	e := g.Engine()
	cpuOld, _ := e.ServiceEstimate(workload.BySlug("chatbot")) // memoized under the slug

	// The chain changed: the same slug now fronts a much heavier model.
	// Pre-fix, the slug-keyed cache returned cpuOld here.
	changed := *workload.BySlug("chatbot")
	changed.Model = workload.BySlug("remote-sensing").Model
	cpuNew, _ := e.ServiceEstimate(&changed)
	if cpuNew == cpuOld {
		t.Fatalf("changed chain kept the stale pricing %v (pre-fix behavior)", cpuNew)
	}
	if cpuNew <= cpuOld {
		t.Fatalf("heavier chain must price higher: %v -> %v", cpuOld, cpuNew)
	}

	// Redeploying over the existing name must drop the slug's latency
	// history — digests and published gauges — along with the memoized
	// estimate.
	e.Observatory().Record("chatbot", "DSCS-Serverless", 5*time.Millisecond)
	gauge := "serve_latency_p95{benchmark=chatbot,platform=DSCS-Serverless}"
	g.Telemetry().SetDuration(gauge, 5*time.Millisecond)
	deployApp(t, srv, "chatbot")
	if e.Observatory().Digest("chatbot", "DSCS-Serverless") != nil {
		t.Error("redeploy kept the old chain's latency history (pre-fix behavior)")
	}
	if body := metricsBody(t, srv); strings.Contains(body, gauge) {
		t.Error("redeploy kept the old chain's latency gauges on /metrics")
	}
	if got := g.Telemetry().Counter("gateway_redeployments_total"); got != 1 {
		t.Errorf("gateway_redeployments_total = %v, want 1", got)
	}
	// A first-time deploy is not a redeploy.
	deployApp(t, srv, "clinical")
	if got := g.Telemetry().Counter("gateway_redeployments_total"); got != 1 {
		t.Errorf("fresh deploy counted as redeploy: %v", got)
	}
}

// TestConcurrentDeployInvoke hammers the handler with 64 parallel
// deploy+invoke pairs (run under -race in CI): every request must succeed —
// the queue depth exceeds the burst, so admission control may not drop
// anything — and the aggregate telemetry must account for every invocation
// deterministically.
func TestConcurrentDeployInvoke(t *testing.T) {
	suite := workload.Suite()
	g := testGatewayWithOptions(t, 29, serve.Options{Workers: 8, QueueDepth: 256})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const parallel = 64
	var wg sync.WaitGroup
	errs := make(chan error, 2*parallel)
	for i := 0; i < parallel; i++ {
		b := suite[i%len(suite)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Deploy (idempotent per app) then invoke, both through HTTP.
			resp, err := http.Post(srv.URL+"/system/functions", "application/x-yaml",
				strings.NewReader(faas.DeploymentYAML(b)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("deploy %s: status %d", b.Slug, resp.StatusCode)
				return
			}
			resp, err = http.Post(srv.URL+"/function/"+b.Slug, "application/json",
				strings.NewReader(`{"quantile":0.5}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("invoke %s: status %d", b.Slug, resp.StatusCode)
				return
			}
			var inv invokeResponse
			if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
				errs <- err
				return
			}
			if inv.TotalMS <= 0 || inv.BatchRequests < 1 {
				errs <- fmt.Errorf("degenerate response for %s: %+v", b.Slug, inv)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	tel := g.Telemetry()
	if got := tel.Counter("gateway_invocations_total"); got != parallel {
		t.Errorf("gateway_invocations_total = %g, want %d", got, parallel)
	}
	if got := tel.Counter("gateway_deployments_total"); got != parallel {
		t.Errorf("gateway_deployments_total = %g, want %d", got, parallel)
	}
	if got := tel.Counter("serve_completed_total"); got != parallel {
		t.Errorf("serve_completed_total = %g, want %d", got, parallel)
	}
	if dropped := g.Engine().Dropped(); dropped != 0 {
		t.Errorf("%d drops below queue depth", dropped)
	}
	if got := tel.Counter("gateway_throttled_total"); got != 0 {
		t.Errorf("gateway_throttled_total = %g, want 0", got)
	}
	if err := g.Engine().Conservation(); err != nil {
		t.Error(err)
	}

	// The serving-engine metrics surface on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, metric := range []string{"serve_queue_depth", "serve_batch_occupancy", "serve_completed_total"} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %s:\n%s", metric, text)
		}
	}
}

// TestSystemWorkflows drives an invocation graph through POST
// /system/workflows: the spec text admits, every stage settles Done on a
// platform, and the response carries the ledger and makespan. Malformed
// and unknown-benchmark specs map to 400/422, and GET is refused.
func TestSystemWorkflows(t *testing.T) {
	g := testGatewayWithOptions(t, 17, serve.Options{
		Workers: 2, QueueDepth: 64,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			return faas.Result{}, nil
		},
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	spec := "0s:extract=credit-risk:;0s:s0=asset-damage:extract;0s:s1=asset-damage:extract;1ms:gather=credit-risk:s0,s1"
	resp, err := http.Post(srv.URL+"/system/workflows?quantile=0.5", "text/plain", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Succeeded  bool    `json:"succeeded"`
		MakespanMS float64 `json:"makespan_ms"`
		Completed  int     `json:"completed"`
		Stages     []struct {
			ID       string `json:"id"`
			Platform string `json:"platform"`
			State    string `json:"state"`
		} `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded || out.Completed != 4 || out.MakespanMS <= 0 {
		t.Fatalf("workflow response %+v", out)
	}
	for _, st := range out.Stages {
		if st.State != "done" || st.Platform == "" {
			t.Fatalf("stage %+v did not settle done", st)
		}
	}
	if g.Telemetry().Counter("gateway_workflows_total") != 1 {
		t.Fatal("gateway_workflows_total never moved")
	}

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"cycle", "0s:a=credit-risk:b;0s:b=credit-risk:a", http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
		{"unknown benchmark", "0s:a=nonesuch:", http.StatusUnprocessableEntity},
	} {
		resp, err := http.Post(srv.URL+"/system/workflows", "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	resp, err = http.Get(srv.URL + "/system/workflows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET allowed: %d", resp.StatusCode)
	}
}

// TestQuantileBounds holds both HTTP surfaces that take a network quantile
// to the runner's bound: 1 or more, or NaN, is 400 before anything runs;
// anything below 1, including 0 and negatives (sample the network), is
// served.
func TestQuantileBounds(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	deployApp(t, srv, "chatbot")

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"quantile":1}`, http.StatusBadRequest},
		{`{"quantile":1.0}`, http.StatusBadRequest},
		{`{"quantile":2.5}`, http.StatusBadRequest},
		{`{"quantile":1e300}`, http.StatusBadRequest},
		{`{"quantile": 1, "batch": 2}`, http.StatusBadRequest},
		{`{"Quantile":1}`, http.StatusBadRequest}, // the encoding/json fallback
		{`{"quantile":0.999999}`, http.StatusOK},
		{`{"quantile":0.5}`, http.StatusOK},
		{`{"quantile":0}`, http.StatusOK},
		{`{"quantile":-3}`, http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+"/function/chatbot", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("invoke %s: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.want, body)
		}
	}

	spec := "0s:a=credit-risk:"
	for _, tc := range []struct {
		q    string
		want int
	}{
		{"1", http.StatusBadRequest},
		{"1.5", http.StatusBadRequest},
		{"NaN", http.StatusBadRequest},
		{"Inf", http.StatusBadRequest},
		{"bogus", http.StatusBadRequest},
		{"0.99", http.StatusOK},
		{"0", http.StatusOK},
		{"-1", http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+"/system/workflows?quantile="+tc.q, "text/plain", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("workflow ?quantile=%s: status %d, want %d (%s)", tc.q, resp.StatusCode, tc.want, body)
		}
	}
	if n := g.Telemetry().Counter("gateway_errors_total"); n != 0 {
		t.Errorf("gateway_errors_total = %v: a refused quantile is the client's error, not the server's", n)
	}
}
