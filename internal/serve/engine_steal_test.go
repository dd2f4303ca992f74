package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/workload"
)

// TestEngineStealRebalances pins the pull path deterministically: the DSCS
// execution is gated, so the single DSCS worker stalls mid-execution,
// and its first dispatch warms the wait digest (warmup 1). Each later
// submission meets an empty DSCS queue at submit time, so it cannot spill;
// it queues behind the stalled worker, and the idle CPU worker must pull
// it on the latched wait gap and serve it — the invocations report the CPU
// pool as their platform, the steal counters account for the moves, and
// the queue-depth gauges follow the extraction.
func TestEngineStealRebalances(t *testing.T) {
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

	var wg sync.WaitGroup
	stolen := make(chan Invocation, 2)
	submitDSCS := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			if err != nil {
				t.Error(err)
				return
			}
			stolen <- inv
		}()
	}
	// Stage: one request dispatched (stalled in its execution) whose recorded
	// wait warms the DSCS digest, then two more, one at a time.
	submitDSCS()
	waitFor(t, "first request dispatched", func() bool { return dscsBusy(eng) == 1 })
	waitFor(t, "DSCS wait digest warmed", func() bool {
		dg := eng.WaitDigest("DSCS-Serverless")
		return dg != nil && dg.Count() == 1
	})
	for i := 0; i < 2; i++ {
		submitDSCS()
		select {
		case inv := <-stolen:
			if inv.Platform != "Baseline (CPU)" {
				t.Errorf("stolen request served on %q, want the CPU pool", inv.Platform)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a stolen request to be served")
		}
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_steal_total{from=DSCS-Serverless,to=Baseline (CPU)}"); got != 2 {
		t.Errorf("labeled steal counter = %g, want 2", got)
	}
	if got := tel.Counter("serve_steal_total"); got != 2 {
		t.Errorf("total steal counter = %g, want 2", got)
	}
	if got := tel.Counter("serve_spillover_total"); got != 0 {
		t.Errorf("spill counter = %g for submissions that met an empty queue, want 0", got)
	}
	// A steal extracts queued tasks, so the depth gauges must refresh for
	// both pools, just as Coalesce refreshes them.
	if got := tel.Gauge("serve_queue_depth{platform=DSCS-Serverless}"); got != 0 {
		t.Errorf("donor depth gauge = %g after the steal drained it, want 0", got)
	}
	if got := tel.Gauge("serve_queue_depth{platform=Baseline (CPU)}"); got != 0 {
		t.Errorf("thief depth gauge = %g after serving, want 0", got)
	}

	gate.open()
	<-stolen
	wg.Wait()
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("serve_completed_total"); got != 3 {
		t.Errorf("serve_completed_total = %g, want 3", got)
	}
}

// TestEngineStealDominatesNoSteal is the acceptance scenario: a deep DSCS
// backlog with an idle CPU pool. With balance armed, completions within
// the observation window must strictly dominate the isolated pools, where
// the backlog waits for the single stalled DSCS worker.
func TestEngineStealDominatesNoSteal(t *testing.T) {
	serveBacklog := func(balance bool) (completedEarly float64) {
		gate := newDSCSGate()
		eng, err := NewEngine(testRunners(t), Options{
			Workers: 1, QueueDepth: 64, MaxBatch: 4,
			AdaptiveBalance: balance, EstimateWarmup: 1, Execute: gate.execute,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		defer gate.open()
		bench := workload.BySlug("asset-damage")
		var wg sync.WaitGroup
		submit := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
					t.Error(err)
				}
			}()
		}
		// The first request dispatches and stalls; its wait is the evidence
		// the balance latch needs before the backlog arrives behind it.
		submit()
		waitFor(t, "first request dispatched", func() bool { return dscsBusy(eng) == 1 })
		waitFor(t, "DSCS wait digest warmed", func() bool {
			dg := eng.WaitDigest("DSCS-Serverless")
			return dg != nil && dg.Count() == 1
		})
		for i := 0; i < 8; i++ {
			submit()
		}
		// The observation window: the DSCS worker is stalled the whole
		// time, so anything completed was rebalanced.
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			if eng.Telemetry().Counter("serve_completed_total") >= 8 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		completedEarly = eng.Telemetry().Counter("serve_completed_total")
		gate.open()
		wg.Wait()
		if err := eng.Conservation(); err != nil {
			t.Fatal(err)
		}
		return completedEarly
	}

	withSteal := serveBacklog(true)
	withoutSteal := serveBacklog(false)
	if withoutSteal != 0 {
		t.Errorf("isolated run completed %g requests with the DSCS execution stalled, want 0", withoutSteal)
	}
	if withSteal <= withoutSteal {
		t.Errorf("balanced completions (%g) must strictly dominate isolated (%g)", withSteal, withoutSteal)
	}
}

// TestEngineSpilloverLingerStealConservation is the stress test for
// spillover, the global SLO-aware former priced by static estimates, and
// stealing all armed at once under 64-way concurrent load with mixed
// deadlines (two benchmarks, two batch shapes). Bookkeeping must stay
// conserved, every accepted request completes exactly once, and the
// rebalancing counters stay internally consistent — a request may spill
// and later be stolen, but it is never double-counted as completed. Run
// under -race in CI.
func TestEngineSpilloverLingerStealConservation(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 2, QueueDepth: 8, MaxBatch: 4,
		BatchLinger:     2 * time.Millisecond,
		BatchSLO:        8 * time.Millisecond,
		AdaptiveBalance: true,
		EstimateWarmup:  1,
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
				opt.Batch = 2 // a different deadline/batch shape in the mix
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
	// Every accepted request completes exactly once, no matter how many
	// times it moved between pools on the way.
	if got := tel.Counter("serve_completed_total"); got != float64(served) {
		t.Errorf("serve_completed_total = %g, want %d", got, served)
	}
	checkMoveCounters(t, eng, served)
	// The former ran: executions were released through it.
	if got := tel.Counter("serve_batch_formed_total"); got <= 0 {
		t.Errorf("serve_batch_formed_total = %g with the global former armed", got)
	}
}

// checkMoveCounters asserts the rebalancing counters never double-count:
// each labeled family sums to its total, and neither exceeds the accepted
// request count (a request spills at most once and is stolen from a queue
// it actually sat on).
func checkMoveCounters(t *testing.T, eng *Engine, served int) {
	t.Helper()
	tel := eng.Telemetry()
	pools := eng.Platforms()
	for _, family := range []string{"serve_spillover_total", "serve_steal_total"} {
		total := tel.Counter(family)
		var labeled float64
		for _, from := range pools {
			for _, to := range pools {
				labeled += tel.Counter(family + "{from=" + from + ",to=" + to + "}")
			}
		}
		if labeled != total {
			t.Errorf("%s labels sum to %g, total is %g", family, labeled, total)
		}
		if total > float64(served) {
			t.Errorf("%s = %g exceeds %d accepted requests", family, total, served)
		}
	}
}
