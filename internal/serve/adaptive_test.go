package serve

import (
	"sync/atomic"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/metrics"
	"dscs/internal/sched"
	"dscs/internal/workload"
)

// TestForgetEstimateDropsStalePricing is the redeploy regression at the
// engine level: the memoized service estimate is keyed by slug, so before
// the fix a changed chain deployed under the same name kept the old
// pricing forever. The cache now validates the Benchmark object identity
// (so even a request racing the redeploy cannot resurrect stale pricing)
// and the gateway calls ForgetEstimate on redeploy to drop the slug's
// state outright.
func TestForgetEstimateDropsStalePricing(t *testing.T) {
	e, err := NewEngine(testRunners(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	original := workload.BySlug("chatbot")
	cpuOld, _ := e.ServiceEstimate(original)
	if cpuOld <= 0 {
		t.Fatalf("degenerate original estimate %v", cpuOld)
	}
	// The same object is memoized.
	if again, _ := e.ServiceEstimate(original); again != cpuOld {
		t.Fatalf("same-object estimate not memoized: %v vs %v", again, cpuOld)
	}

	// The "redeploy": the same slug now fronts a much heavier model via a
	// different Benchmark object. Pre-fix the slug cache served the old
	// pricing here; it must be re-derived.
	changed := *workload.BySlug("chatbot")
	changed.Model = workload.BySlug("remote-sensing").Model
	if changed.Model.FLOPs() == original.Model.FLOPs() {
		t.Fatal("test fixture models must differ in FLOPs")
	}
	cpuFresh, _ := e.ServiceEstimate(&changed)
	if cpuFresh == cpuOld {
		t.Fatalf("changed chain kept the stale pricing %v (pre-fix behavior)", cpuFresh)
	}
	if cpuFresh <= cpuOld {
		t.Fatalf("heavier model must price higher: %v -> %v", cpuOld, cpuFresh)
	}

	// An old-chain request racing the redeploy may re-memoize old pricing
	// momentarily; the next new-chain request must still win it back.
	if back, _ := e.ServiceEstimate(original); back != cpuOld {
		t.Fatalf("old-object estimate changed: %v", back)
	}
	if again, _ := e.ServiceEstimate(&changed); again != cpuFresh {
		t.Fatalf("new chain lost to a racing old-chain re-memoization: %v vs %v", again, cpuFresh)
	}

	// ForgetEstimate drops the memoized slug state entirely.
	e.ForgetEstimate("chatbot")
	if after, _ := e.ServiceEstimate(&changed); after != cpuFresh {
		t.Fatalf("re-derived estimate after ForgetEstimate = %v, want %v", after, cpuFresh)
	}
}

// TestForgetEstimateDropsLatencyHistory: the redeploy invalidation clears
// the slug's digests too — the new chain must not inherit the old chain's
// observed latencies.
func TestForgetEstimateDropsLatencyHistory(t *testing.T) {
	e, err := NewEngine(testRunners(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Observatory().Record("chatbot", "DSCS-Serverless", 5*time.Millisecond)
	if e.Observatory().Digest("chatbot", "DSCS-Serverless") == nil {
		t.Fatal("digest missing after record")
	}
	e.ForgetEstimate("chatbot")
	if e.Observatory().Digest("chatbot", "DSCS-Serverless") != nil {
		t.Fatal("latency history survived ForgetEstimate")
	}
}

// TestEngineRecordsLatencyDigests: every completion feeds the observatory
// and refreshes the per-{benchmark, platform} serve_latency_* gauges on
// the shared telemetry.
func TestEngineRecordsLatencyDigests(t *testing.T) {
	e, err := NewEngine(testRunners(t), Options{Workers: 2, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := workload.BySlug("chatbot")
	for i := 0; i < 5; i++ {
		if _, err := e.Submit("DSCS-Serverless", b, faas.Options{Quantile: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	dg := e.Observatory().Digest("chatbot", "DSCS-Serverless")
	if dg == nil || dg.Count() != 5 {
		t.Fatalf("digest count = %v, want 5 executions observed", dg)
	}
	for _, g := range []string{"serve_latency_p50", "serve_latency_p95", "serve_latency_p99"} {
		name := g + "{benchmark=chatbot,platform=DSCS-Serverless}"
		if v := e.Telemetry().Gauge(name); v <= 0 {
			t.Errorf("%s = %v, want positive", name, v)
		}
	}
}

// TestLatencyGaugesPublishTheWindow: the serve_latency_* gauges publish
// the digest's sliding-window quantiles — the values pricing and hedging
// read — not quantiles since start. A service time that drops from 100 ms
// to 10 ms after 200 executions must leave every gauge at the window's
// 10 ms once the window has turned over, where a cumulative p99 would
// stay near 100 ms.
func TestLatencyGaugesPublishTheWindow(t *testing.T) {
	var calls atomic.Int64
	e, err := NewEngine(testRunners(t), Options{
		Workers: 1, MaxBatch: 1, EstimateWindow: 64,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			service := 10 * time.Millisecond
			if calls.Add(1) <= 200 {
				service = 100 * time.Millisecond
			}
			return faas.Result{Breakdown: faas.Breakdown{Compute: service}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := workload.BySlug("chatbot")
	submit := func() {
		t.Helper()
		if _, err := e.Submit("DSCS-Serverless", b, faas.Options{Quantile: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 800; i++ {
		submit()
	}
	// Past the publish rate limit, one more completion refreshes the
	// gauges from the digest as it now stands.
	time.Sleep(2 * gaugeRefreshInterval)
	submit()

	ps := []float64{0.5, 0.95, 0.99}
	want := make([]time.Duration, len(ps))
	e.Observatory().Digest("chatbot", "DSCS-Serverless").QuantilesInto(ps, want)
	for i, g := range []string{"serve_latency_p50", "serve_latency_p95", "serve_latency_p99"} {
		name := g + "{benchmark=chatbot,platform=DSCS-Serverless}"
		if got, w := e.Telemetry().Gauge(name), float64(want[i])/float64(time.Millisecond); got != w {
			t.Errorf("%s = %v ms, want the window's %v ms", name, got, w)
		}
		if want[i] != 10*time.Millisecond {
			t.Errorf("window q%v = %v, want 10ms once the 100ms executions left it", ps[i], want[i])
		}
	}
}

// TestAdaptiveBlendsPolicyPricing: with AdaptiveEstimates on, task pricing
// moves toward the observed p50 once a digest exists, and stays on the
// static prior for cold benchmarks.
func TestAdaptiveBlendsPolicyPricing(t *testing.T) {
	e, err := NewEngine(testRunners(t), Options{Workers: 1, AdaptiveEstimates: true, EstimateWarmup: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := workload.BySlug("chatbot")
	static, _ := e.ServiceEstimate(b)

	if got := e.observedService(b.Slug, sched.ClassDSCS, static); got != static {
		t.Fatalf("cold benchmark must keep the prior: %v vs %v", got, static)
	}
	observed := 5 * static
	for i := 0; i < 64; i++ {
		e.Observatory().Record(b.Slug, "DSCS-Serverless", observed)
	}
	got := e.observedService(b.Slug, sched.ClassDSCS, static)
	if got <= static || got > observed {
		t.Fatalf("blend %v outside (%v, %v]", got, static, observed)
	}
	// The CPU class has no observations for this slug: prior untouched.
	if cpu := e.observedService(b.Slug, sched.ClassCPU, static); cpu != static {
		t.Fatalf("unobserved class blended: %v", cpu)
	}
}

// TestFormerAdaptiveCrossoverFlipsOnce is the warmup/hysteresis
// acceptance: a benchmark whose observed latency sits 3x away from the
// static estimate must flip the former's slack pricing exactly once at
// the warmup crossover — not per request — and hold the new pricing
// steadily afterwards.
func TestFormerAdaptiveCrossoverFlipsOnce(t *testing.T) {
	const warmup = 8
	obs := metrics.NewObservatory(64, warmup)
	f := NewBatchFormer(8, 500*time.Millisecond, 100*time.Millisecond, sched.ClassCPU)
	f.SetEstimator(func(payload string, static time.Duration) time.Duration {
		return obs.ServiceQuantile(payload, "pool", static, 0.95)
	})

	static := 10 * time.Millisecond
	observed := 30 * time.Millisecond // 3x drift
	var slacks []time.Duration
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * time.Second
		tk := sched.HybridTask{ID: i, Arrived: at, Payload: "bench", CPUService: static}
		due := f.Observe(tk, 1)
		f.Close("bench") // release the group; each iteration prices fresh
		slacks = append(slacks, due-at)
		obs.Record("bench", "pool", observed)
	}

	if want := 100*time.Millisecond - static; slacks[0] != want {
		t.Fatalf("cold slack = %v, want the static pricing %v", slacks[0], want)
	}
	if want := 100*time.Millisecond - observed; slacks[len(slacks)-1] != want {
		t.Fatalf("warmed slack = %v, want the live pricing %v", slacks[len(slacks)-1], want)
	}
	flips := 0
	for i := 1; i < len(slacks); i++ {
		if slacks[i] != slacks[i-1] {
			flips++
		}
	}
	if flips != 1 {
		t.Fatalf("slack pricing changed %d times across the drift, want exactly 1 (no flapping): %v",
			flips, slacks)
	}
	if got := obs.Digest("bench", "pool").Flips(); got != 1 {
		t.Fatalf("adoption latch flipped %d times, want 1", got)
	}
}

// TestEngineAdaptiveGlobalBatchEndToEnd smoke-tests the full adaptive
// path on the live engine: global forming with an SLO budget, adaptive
// estimates on, enough traffic to warm the digest — conservation must
// hold and completions must flow.
func TestEngineAdaptiveGlobalBatchEndToEnd(t *testing.T) {
	e, err := NewEngine(testRunners(t), Options{
		Workers: 2, MaxBatch: 4,
		BatchLinger: 2 * time.Millisecond, BatchSLO: 20 * time.Millisecond,
		AdaptiveEstimates: true, EstimateWarmup: 4, EstimateWindow: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := workload.BySlug("chatbot")
	for i := 0; i < 24; i++ {
		if _, err := e.Submit("DSCS-Serverless", b, faas.Options{Quantile: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Conservation(); err != nil {
		t.Fatal(err)
	}
	if dg := e.Observatory().Digest("chatbot", "DSCS-Serverless"); dg == nil || dg.Count() < 4 {
		t.Fatal("adaptive run never warmed its digest")
	}
	e.Close()
}
