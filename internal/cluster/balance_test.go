package cluster

import (
	"testing"
	"time"

	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// onesidedTrace is the adaptive-balance regime: bursty arrivals, every one
// of them targeting the accelerated tier (the split layout routes all
// arrivals to the DSCS backlog), with bursts that swamp the small DSCS
// pool while the CPU side has capacity to spare.
func onesidedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.BurstyConfig{
		Duration: 2 * time.Minute, BaseRate: 40, BurstRate: 130,
		BurstEvery: 30 * time.Second, BurstLength: 15 * time.Second,
	}
	tr, err := trace.Generate(cfg, workload.Suite(), sim.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// balanceConfig is the shared pool shape: 3 DSCS instances serve the base
// rate comfortably but drown in the bursts; 28 CPU instances idle unless
// rebalancing moves work over.
func balanceConfig() HybridConfig {
	return HybridConfig{
		CPUInstances: 28, DSCSInstances: 3, QueueDepth: 300,
		Service: mixedService, Jitter: 0.15, SampleEvery: 5 * time.Second,
		SplitQueues: true, SLO: time.Second,
	}
}

// TestAdaptiveBalanceGolden is the acceptance scenario: under the bursty
// one-sided trace, wait-keyed rebalancing (-adaptive-balance) must beat
// isolated pools (balance off) on completions within the SLO — the
// adopted wait-p95 gap latches within a warmup's worth of dispatches and
// moves the bursts onto the idle CPU side. Both regimes replay the
// identical trace and seed, and the seeded counts are pinned so a
// regression in the trigger shows its hand explicitly.
func TestAdaptiveBalanceGolden(t *testing.T) {
	tr := onesidedTrace(t)

	run := func(balance bool) *HybridStats {
		cfg := balanceConfig()
		cfg.AdaptiveBalance = balance
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		st, err := RunHybrid(tr, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	isolated := run(false)
	adaptive := run(true)

	if adaptive.WithinSLO <= isolated.WithinSLO {
		t.Errorf("adaptive balance within-SLO (%d) must beat isolated pools (%d)",
			adaptive.WithinSLO, isolated.WithinSLO)
	}
	if adaptive.Stolen == 0 && adaptive.Spilled == 0 {
		t.Error("adaptive run moved no work")
	}
	if adaptive.Served["cpu"] == 0 {
		t.Error("adaptive run never used the CPU pool")
	}
	if isolated.Stolen != 0 || isolated.Spilled != 0 || isolated.Served["cpu"] != 0 {
		t.Errorf("isolated run moved work: stolen=%d spilled=%d served on cpu=%d",
			isolated.Stolen, isolated.Spilled, isolated.Served["cpu"])
	}
	// The wait digests are the run's own evidence: the DSCS pool queued,
	// and the adaptive run must leave it with a bounded tail where the
	// isolated run let multi-second delays stand.
	if adaptive.WaitP95["dscs"] >= isolated.WaitP95["dscs"] {
		t.Errorf("adaptive DSCS wait p95 (%v) must undercut isolated (%v)",
			adaptive.WaitP95["dscs"], isolated.WaitP95["dscs"])
	}

	// Determinism: the wait-keyed path must stay reproducible per seed.
	again := run(true)
	if again.WithinSLO != adaptive.WithinSLO || again.Stolen != adaptive.Stolen ||
		again.Spilled != adaptive.Spilled || again.Latency.Mean() != adaptive.Latency.Mean() {
		t.Error("adaptive-balance runs must be deterministic per seed")
	}

	// Seeded golden pins (trace seed 33, run seed 7).
	type golden struct{ completed, dropped, withinSLO, stolen, spilled int }
	for _, pin := range []struct {
		name string
		st   *HybridStats
		want golden
	}{
		{"isolated", isolated, golden{6062, 4088, 75, 0, 0}},
		{"adaptive", adaptive, golden{10150, 0, 10150, 5087, 616}},
	} {
		if pin.st.Completed != pin.want.completed || pin.st.Dropped != pin.want.dropped ||
			pin.st.WithinSLO != pin.want.withinSLO || pin.st.Stolen != pin.want.stolen ||
			pin.st.Spilled != pin.want.spilled {
			t.Errorf("%s: completed/dropped/withinSLO/stolen/spilled = %d/%d/%d/%d/%d, pinned %d/%d/%d/%d/%d",
				pin.name, pin.st.Completed, pin.st.Dropped, pin.st.WithinSLO, pin.st.Stolen, pin.st.Spilled,
				pin.want.completed, pin.want.dropped, pin.want.withinSLO, pin.want.stolen, pin.want.spilled)
		}
	}
}

// TestNWayAdaptiveBalance exercises what one queue drained by two classes
// cannot express: three same-class CPU pools
// beside the DSCS backlog, all rebalancing on the wait-p95 gap. Every CPU
// pool must end up serving (spills pick the least-wait pool and idle pools
// steal N-way), and the balanced run must dominate the no-balance baseline
// on within-SLO completions.
func TestNWayAdaptiveBalance(t *testing.T) {
	tr := onesidedTrace(t)
	run := func(balance bool) *HybridStats {
		cfg := balanceConfig()
		cfg.CPUPools = 3
		cfg.AdaptiveBalance = balance
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		st, err := RunHybrid(tr, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	balanced := run(true)
	isolated := run(false)

	for _, pool := range []string{"cpu0", "cpu1", "cpu2"} {
		if balanced.Served[pool] == 0 {
			t.Errorf("pool %s served nothing in the N-way balanced run", pool)
		}
		if isolated.Served[pool] != 0 {
			t.Errorf("pool %s served %d with balancing off (arrivals are one-sided)",
				pool, isolated.Served[pool])
		}
	}
	if balanced.WithinSLO <= isolated.WithinSLO {
		t.Errorf("N-way balance within-SLO (%d) must beat isolated pools (%d)",
			balanced.WithinSLO, isolated.WithinSLO)
	}
	if balanced.Stolen == 0 {
		t.Error("N-way balanced run recorded no steals")
	}
	// Determinism across the N-way layout too.
	again := run(true)
	if again.WithinSLO != balanced.WithinSLO || again.Stolen != balanced.Stolen ||
		again.Spilled != balanced.Spilled {
		t.Error("N-way adaptive runs must be deterministic per seed")
	}
}

// TestFig13WaitStats pins the Fig 13 sim's queue-delay observatory: under
// the overload regime the rack queues, so the recorded arrival→dispatch
// waits must be visible in the run's wait quantiles and ordered like
// quantiles.
func TestFig13WaitStats(t *testing.T) {
	tr := smallTrace(t, 60)
	st, err := Run(tr, Config{Instances: 4, QueueDepth: 40,
		Service: flatService(250 * time.Millisecond), SampleEvery: time.Second}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if st.WaitP50 <= 0 {
		t.Fatalf("overloaded rack recorded no queue delay (p50 %v)", st.WaitP50)
	}
	if st.WaitP50 > st.WaitP95 || st.WaitP95 > st.WaitP99 {
		t.Fatalf("wait quantiles out of order: p50 %v p95 %v p99 %v",
			st.WaitP50, st.WaitP95, st.WaitP99)
	}
}

// TestSpillIntoFullTargetGoesHome pins the one rule for a spill whose
// target is full, the live engine's: the arrival goes back to its DSCS
// queue instead of being dropped, and the refused spill counts no drop.
// The DSCS pool is down through a flood, so BalanceTarget sends every
// arrival to the one CPU pool; once that pool's small queue is full, the
// dead DSCS queue holds the rest until the pool-up.
func TestSpillIntoFullTargetGoesHome(t *testing.T) {
	tr := &trace.Trace{Duration: 2 * time.Second}
	for i := 0; i < 8; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			ID: i, At: 100*time.Millisecond + time.Duration(i)*10*time.Millisecond, Benchmark: "credit-risk",
		})
	}
	faults, err := trace.ParseFaultScript("50ms:pool-down:dscs;1s:pool-up:dscs")
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunHybrid(tr, HybridConfig{
		CPUInstances: 1, DSCSInstances: 1, QueueDepth: 4,
		Service: mixedService, SampleEvery: time.Second,
		SplitQueues: true, AdaptiveBalance: true, Faults: faults,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 0 || st.Completed != len(tr.Requests) {
		t.Fatalf("completed %d, dropped %d of %d: a full spill target must send arrivals home, not drop them",
			st.Completed, st.Dropped, len(tr.Requests))
	}
	if st.Spilled == 0 || st.Spilled >= len(tr.Requests) {
		t.Errorf("spilled %d of %d: want the CPU queue filled and the rest queued on DSCS", st.Spilled, len(tr.Requests))
	}
}
