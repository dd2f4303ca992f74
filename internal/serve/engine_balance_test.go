package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/workload"
)

// TestEngineQueueDelayGaugesLive pins the wait digests' telemetry
// contract: the serve_queue_delay_{p50,p95,p99}{platform,class} gauges are
// registered at construction (so /metrics shows the wait digests before any
// traffic) and carry real quantiles once requests have been served.
func TestEngineQueueDelayGaugesLive(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rendered := eng.Telemetry().Render()
	for _, name := range []string{
		"serve_queue_delay_p50{platform=DSCS-Serverless,class=dscs}",
		"serve_queue_delay_p95{platform=DSCS-Serverless,class=dscs}",
		"serve_queue_delay_p99{platform=DSCS-Serverless,class=dscs}",
		"serve_queue_delay_p95{platform=Baseline (CPU),class=cpu}",
	} {
		if !strings.Contains(rendered, name) {
			t.Errorf("gauge %q not registered at construction", name)
		}
	}
	bench := workload.BySlug("asset-damage")
	if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	dg := eng.WaitDigest("DSCS-Serverless")
	if dg == nil || dg.Count() != 1 {
		t.Fatalf("wait digest after one request = %v, want one observation", dg)
	}
}

// TestEngineAdaptiveBalanceRebalances is the deterministic wait-keyed
// rebalancing scenario, TestEngineStealRebalances with the backlog
// submitted at once: the DSCS execution is gated so the single DSCS
// worker stalls mid-execution, its first dispatch warms the wait digest
// (warmup 1), and queued work behind it must then migrate to the idle CPU
// pool purely on the adopted wait-p95 gap — the CPU pool has never waited,
// so any warmed DSCS wait latches the gap. Whether a given request moves by drain-time
// steal or submit-time spill depends on which the scheduler reaches first;
// the test asserts the rebalance happened and the books stayed straight.
func TestEngineAdaptiveBalanceRebalances(t *testing.T) {
	gate := newDSCSGate()
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 64, MaxBatch: 2,
		AdaptiveBalance: true, EstimateWarmup: 1, Execute: gate.execute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer gate.open()
	bench := workload.BySlug("asset-damage")
	tel := eng.Telemetry()
	rebalanced := func() float64 {
		return tel.Counter("serve_steal_total") + tel.Counter("serve_spillover_total")
	}

	var wg sync.WaitGroup
	results := make(chan Invocation, 2)
	submitDSCS := func(collect bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			if err != nil {
				t.Error(err)
				return
			}
			if collect {
				results <- inv
			}
		}()
	}
	// Stage: one request dispatched (stalled in its execution), then two more
	// behind it. The stall means the DSCS pool records exactly one wait —
	// enough, at warmup 1, to latch the gap against the never-waited CPU
	// pool and move queued work over without any depth threshold.
	submitDSCS(false)
	waitFor(t, "first request dispatched", func() bool { return dscsBusy(eng) == 1 })
	submitDSCS(true)
	submitDSCS(true)
	waitFor(t, "wait-keyed rebalance", func() bool { return rebalanced() >= 1 })

	gate.open()
	onCPU := 0
	for i := 0; i < 2; i++ {
		select {
		case inv := <-results:
			if inv.Platform == "Baseline (CPU)" {
				onCPU++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for the staged requests")
		}
	}
	wg.Wait()
	if onCPU < 1 {
		t.Errorf("no staged request was served by the CPU pool (%g rebalanced)", rebalanced())
	}
	if got := rebalanced(); got < 1 || got > 2 {
		t.Errorf("rebalanced %g requests, want 1 or 2", got)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("serve_completed_total"); got != 3 {
		t.Errorf("serve_completed_total = %g, want 3", got)
	}
	// The depth gauges must refresh as rebalanced work leaves and enters
	// queues: with everything served, both read empty.
	if got := tel.Gauge("serve_queue_depth{platform=DSCS-Serverless}"); got != 0 {
		t.Errorf("donor depth gauge = %g after the drain, want 0", got)
	}
	if got := tel.Gauge("serve_queue_depth{platform=Baseline (CPU)}"); got != 0 {
		t.Errorf("thief depth gauge = %g after the drain, want 0", got)
	}
}

// TestEngineAdaptiveBalance64WayConservation is the satellite race test:
// adaptive balance, the global SLO-aware former, and
// adaptive estimates all armed at once under 64-way concurrent load with
// mixed shapes. Bookkeeping must stay conserved, every accepted request
// completes exactly once even when it spills and is then stolen, and the
// rebalancing counters stay internally consistent. Run under -race in CI.
func TestEngineAdaptiveBalance64WayConservation(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 2, QueueDepth: 8, MaxBatch: 4,
		BatchLinger:       2 * time.Millisecond,
		BatchSLO:          8 * time.Millisecond,
		AdaptiveBalance:   true,
		AdaptiveEstimates: true,
		EstimateWarmup:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 64
	benches := []*workload.Benchmark{workload.BySlug("translation"), workload.BySlug("chatbot")}
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, full := 0, 0
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := faas.Options{Quantile: 0.5}
			if i%4 == 0 {
				opt.Batch = 2
			}
			inv, err := eng.Submit("DSCS-Serverless", benches[i%2], opt)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
				if inv.Platform != "DSCS-Serverless" && inv.Platform != "Baseline (CPU)" {
					t.Errorf("served on unknown pool %q", inv.Platform)
				}
			case errors.Is(err, ErrQueueFull):
				full++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if served+full != n {
		t.Fatalf("lost requests: %d served + %d throttled != %d", served, full, n)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_completed_total"); got != float64(served) {
		t.Errorf("serve_completed_total = %g, want %d", got, served)
	}
	checkMoveCounters(t, eng, served)
	// Every served request recorded its queue delay against exactly one
	// pool: the wait digests' counts must sum to the completions.
	var waits int64
	for _, platform := range []string{"DSCS-Serverless", "Baseline (CPU)"} {
		if dg := eng.WaitDigest(platform); dg != nil {
			waits += dg.Count()
		}
	}
	if waits != int64(served) {
		t.Errorf("wait digests recorded %d delays for %d served requests", waits, served)
	}
}
