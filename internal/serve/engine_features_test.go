package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/sched"
	"dscs/internal/workload"
)

// waitFor polls a condition with a hard deadline — used to stage the
// deterministic spillover scenarios.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// dscsBusy reports the DSCS pool's occupied workers.
func dscsBusy(eng *Engine) int {
	p := eng.pools["DSCS-Serverless"]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Busy()
}

// holdDrives acquires every physical DSCS drive, so a DSCS worker that
// dispatches then stalls in drive acquisition and everything queued behind
// it stays queued. It returns the held indices for releaseDrives.
func holdDrives(t *testing.T, eng *Engine) []int {
	t.Helper()
	var held []int
	for _, d := range eng.drives.drives {
		idx, _ := eng.drives.acquireDrive(d)
		if idx < 0 {
			t.Fatal("could not hold a drive")
		}
		held = append(held, idx)
	}
	return held
}

// releaseDrives frees the drives holdDrives took.
func releaseDrives(eng *Engine, held []int) {
	for _, idx := range held {
		eng.drives.release(idx)
	}
}

func TestSpilloverValidation(t *testing.T) {
	if _, err := NewEngine(testRunners(t), Options{AdaptiveBalance: true, SpilloverTo: "TPU"}); err == nil {
		t.Error("unknown spillover target must fail")
	}
	if _, err := NewEngine(testRunners(t), Options{AdaptiveBalance: true, SpilloverTo: "DSCS-Serverless"}); err == nil {
		t.Error("DSCS-class spillover target must fail")
	}
}

// TestSpillTarget pins the dead-home reroute's candidate set: with the DSCS
// pool dead, BalanceTarget sends its submissions to the named SpilloverTo
// pool, or to a CPU-class pool when none is named.
func TestSpillTarget(t *testing.T) {
	reroute := func(opt Options) *pool {
		t.Helper()
		eng, err := NewEngine(testRunners(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		if err := eng.FailPool("DSCS-Serverless"); err != nil {
			t.Fatal(err)
		}
		i, ok := eng.bal.BalanceTarget(eng.pools["DSCS-Serverless"].idx, eng.spillEligible)
		if !ok {
			return nil
		}
		return eng.order[i]
	}
	if got := reroute(Options{Workers: 1, AdaptiveBalance: true, SpilloverTo: "Baseline (CPU)"}); got == nil || got.name != "Baseline (CPU)" {
		t.Fatalf("explicit spill target not honored: %+v", got)
	}
	if got := reroute(Options{Workers: 1, AdaptiveBalance: true}); got == nil || got.class != sched.ClassCPU {
		t.Fatalf("default spill target must be a CPU-class pool, got %+v", got)
	}
}

// TestEngineSpillover pins the submit-time reroute deterministically: a
// submission aimed at a dead DSCS pool spills to the CPU pool with no wait
// evidence at all (warmup is far out of reach), is served there, and is
// counted in serve_spillover_total{from,to}. With balance off the same
// submission queues on the dead pool instead.
func TestEngineSpillover(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 64, MaxBatch: 1,
		AdaptiveBalance: true, EstimateWarmup: 1000, SpilloverTo: "Baseline (CPU)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")
	if err := eng.FailPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Platform != "Baseline (CPU)" {
		t.Errorf("submission to a dead DSCS pool served on %q, want the CPU pool", inv.Platform)
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_spillover_total{from=DSCS-Serverless,to=Baseline (CPU)}"); got != 1 {
		t.Errorf("labeled spill counter = %g, want 1", got)
	}
	if got := tel.Counter("serve_spillover_total"); got != 1 {
		t.Errorf("total spill counter = %g, want 1", got)
	}
	if got := tel.Counter("serve_steal_total"); got != 0 {
		t.Errorf("steal counter = %g for a submit-time reroute, want 0", got)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}

	isolated, err := NewEngine(testRunners(t), Options{Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer isolated.Close()
	if err := isolated.FailPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	if err := isolated.SubmitAsync("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := isolated.QueueLen("DSCS-Serverless"); got != 1 {
		t.Errorf("isolated dead pool queue = %d, want the submission queued there", got)
	}
	if err := isolated.RecoverPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	if !isolated.Quiesce(5 * time.Second) {
		t.Fatal("isolated submission not served after recovery")
	}
}

// TestEngineSpilloverFallsBackWhenTargetFull: a full spill target must not
// reject a request the DSCS queue could still admit — the submission
// bounces back to the original pool and no spill is counted. The CPU pool
// is pinned full behind an execution that blocks, and the DSCS pool is
// killed so the reroute is unconditional; the bounced request waits on the
// dead pool and is served there once it recovers.
func TestEngineSpilloverFallsBackWhenTargetFull(t *testing.T) {
	release := make(chan struct{})
	var unblock sync.Once
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 2, MaxBatch: 1,
		AdaptiveBalance: true, SpilloverTo: "Baseline (CPU)",
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			if classFor(r.Platform) == sched.ClassCPU {
				<-release
			}
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer unblock.Do(func() { close(release) })
	bench := workload.BySlug("asset-damage")

	// Pin the CPU pool: one request executing (blocked), two queued behind
	// it — the queue at its bound, and its one worker unable to steal.
	var wg sync.WaitGroup
	submitCPU := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Submit("Baseline (CPU)", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	cpu := eng.pools["Baseline (CPU)"]
	submitCPU()
	waitFor(t, "CPU worker busy", func() bool {
		cpu.mu.Lock()
		defer cpu.mu.Unlock()
		return cpu.core.Busy() == 1
	})
	submitCPU()
	submitCPU()
	waitFor(t, "CPU queue pinned at its bound", func() bool { return eng.QueueLen("Baseline (CPU)") == 2 })

	if err := eng.FailPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	done := make(chan Invocation, 1)
	go func() {
		inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
		if err != nil {
			t.Errorf("bounced submission failed: %v", err)
		}
		done <- inv
	}()
	waitFor(t, "bounced submission to land on the DSCS queue", func() bool {
		return eng.QueueLen("DSCS-Serverless") == 1
	})
	if spills := eng.Telemetry().Counter("serve_spillover_total"); spills != 0 {
		t.Errorf("spill counter = %g for a bounced spill, want 0", spills)
	}
	if err := eng.RecoverPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	select {
	case inv := <-done:
		if inv.Platform != "DSCS-Serverless" {
			t.Errorf("bounced submission served on %q, want the DSCS pool", inv.Platform)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bounced submission not served after recovery")
	}
	unblock.Do(func() { close(release) })
	wg.Wait()
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineLingerCoalesces drives the batch former on the wall clock:
// one worker, a generous linger, and a burst of identical requests
// must coalesce into fewer executions than requests.
func TestEngineLingerCoalesces(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 64, MaxBatch: 8,
		BatchLinger: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 8
	bench := workload.BySlug("chatbot")
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_completed_total"); got != n {
		t.Fatalf("served %g of %d", got, n)
	}
	if batches := tel.Counter("serve_batches_total"); batches >= n {
		t.Errorf("linger coalesced nothing: %g executions for %d requests", batches, n)
	}
	if occ := tel.Gauge("serve_batch_occupancy{platform=DSCS-Serverless}"); occ < 2 {
		t.Errorf("per-platform batch occupancy = %g, want >= 2 after a lingered batch", occ)
	}
}

// TestEngineRejectsBadBatchOptions: construction refuses batching options
// it would otherwise ignore or rewrite, so a gateway fails at start-up
// instead of serving with settings nobody asked for.
func TestEngineRejectsBadBatchOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"negative linger", Options{BatchLinger: -time.Second}},
		{"negative SLO", Options{BatchLinger: time.Millisecond, BatchSLO: -time.Second}},
		{"negative MaxBatch", Options{MaxBatch: -3}},
		{"SLO without a former", Options{BatchSLO: time.Second}},
	} {
		if eng, err := NewEngine(testRunners(t), tc.opt); err == nil {
			eng.Close()
			t.Errorf("%s: construction must fail", tc.name)
		}
	}
	// MaxBatch 0 means DefaultMaxBatch, so a linger alone arms the former
	// that BatchSLO bounds.
	eng, err := NewEngine(testRunners(t), Options{BatchLinger: time.Millisecond, BatchSLO: time.Second})
	if err != nil {
		t.Fatalf("SLO-bounded former on the default MaxBatch must construct: %v", err)
	}
	eng.Close()
}

// TestEngineRejectsNegativeSizes: a negative pool size, queue bound or
// digest tuning fails construction with an error naming the field rather
// than silently taking the default (dscsgate -workers -1 must not serve 4
// workers per platform).
func TestEngineRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		field string
		opt   Options
	}{
		{"Workers", Options{Workers: -1}},
		{"QueueDepth", Options{QueueDepth: -1}},
		{"EstimateWarmup", Options{EstimateWarmup: -1}},
		{"EstimateWindow", Options{EstimateWindow: -1}},
	} {
		eng, err := NewEngine(testRunners(t), tc.opt)
		if err == nil {
			eng.Close()
			t.Errorf("%s -1: construction must fail", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s -1: error %q does not name the field", tc.field, err)
		}
	}
}

// TestEngineDriveOccupancy checks that DSCS executions acquire the
// physical drives: with more workers than drives and a burst of requests,
// the acquisition counters must account for every execution and contention
// must be visible.
func TestEngineDriveOccupancy(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 4, QueueDepth: 64, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if len(eng.drives.ids) != 2 {
		t.Fatalf("test store should expose 2 DSCS drives, got %v", eng.drives.ids)
	}

	const n = 24
	bench := workload.BySlug("moderation")
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	tel := eng.Telemetry()
	var acquired float64
	for _, id := range eng.drives.ids {
		acquired += tel.Counter("serve_drive_acquired_total{drive=" + id + "}")
		if busy := tel.Gauge("serve_drive_busy{drive=" + id + "}"); busy != 0 {
			t.Errorf("drive %s still marked busy after drain", id)
		}
	}
	if int(acquired) != n {
		t.Errorf("drive acquisitions %g != %d executions", acquired, n)
	}
	// CPU-class pools must not touch the drives.
	if _, err := eng.Submit("Baseline (CPU)", bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	var after float64
	for _, id := range eng.drives.ids {
		after += tel.Counter("serve_drive_acquired_total{drive=" + id + "}")
	}
	if after != acquired {
		t.Errorf("CPU execution acquired a DSCS drive (%g -> %g)", acquired, after)
	}
}

// TestEngineSpilloverLingerConservation is the stress test for balance
// and the linger-armed batch former together: 64-way concurrent load,
// bookkeeping must stay conserved (run under -race in CI).
func TestEngineSpilloverLingerConservation(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 2, QueueDepth: 8, MaxBatch: 8,
		BatchLinger:     2 * time.Millisecond,
		AdaptiveBalance: true,
		EstimateWarmup:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 64
	bench := workload.BySlug("translation")
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, full := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
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
	// The per-platform occupancy gauges must carry their platform label
	// (the unlabeled gauge was a cross-pool last-write-wins bug).
	render := tel.Render()
	if strings.Contains(render, "serve_batch_occupancy ") {
		t.Error("unlabeled serve_batch_occupancy gauge resurfaced")
	}
}
