package cluster

import (
	"testing"
	"time"

	"dscs/internal/trace"
)

// chaosFaults is the drive-loss scenario: the accelerated tier (the DSCS
// drives) browns out mid-trace — squarely inside the second burst — and
// comes back 30 seconds later.
func chaosFaults(t *testing.T) []trace.FaultEvent {
	t.Helper()
	evs, err := trace.ParseFaultScript("40s:pool-down:dscs;70s:pool-up:dscs")
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestChaosGolden is the failure-model acceptance scenario: the bursty
// one-sided trace with the DSCS pool killed mid-burst and recovered 30s
// later, replayed under two regimes on the identical trace and seed.
// Fail-and-retry is the naive deployment — no rebalancing, no hedging —
// where every arrival keeps targeting the dead tier: its bounded backlog
// fills and drops, the orphaned in-flight work requeues and simply waits
// out the outage, and the post-recovery drain blows the SLO for minutes.
// Hedged+rebalanced arms the wait-keyed balance (which treats the dead
// pool as unboundedly slow, never as idle) plus tail hedging, so arrivals
// route around the grave, orphans get stolen by the CPU side, and
// stragglers race a duplicate. The treatment must strictly beat the
// baseline on within-SLO completions, and both seeded counts are pinned
// so either failure path regressing shows its hand explicitly.
func TestChaosGolden(t *testing.T) {
	tr := onesidedTrace(t)
	faults := chaosFaults(t)

	run := func(mutate func(*HybridConfig)) *HybridStats {
		cfg := balanceConfig()
		// A heavier service tail than the balance golden's: hedging exists
		// to cut stragglers, so the scenario needs stragglers worth cutting.
		// The deeper queue gives the dead-tier reroute room to absorb a
		// burst landing mid-outage; fail-and-retry overflows it anyway.
		cfg.Jitter = 0.6
		cfg.QueueDepth = 2000
		cfg.Faults = faults
		mutate(&cfg)
		st, err := RunHybrid(tr, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	retry := run(func(cfg *HybridConfig) {})
	hedged := run(func(cfg *HybridConfig) {
		cfg.AdaptiveBalance = true
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		cfg.HedgeFactor = 3
	})

	// Both regimes took the same two faults and orphaned in-flight work.
	if retry.Faults != 1 || hedged.Faults != 1 {
		t.Fatalf("fault counts: retry %d, hedged %d, want 1 pool-down each", retry.Faults, hedged.Faults)
	}
	if retry.Requeued == 0 || hedged.Requeued == 0 {
		t.Errorf("the pool-down must orphan in-flight work: retry requeued %d, hedged %d",
			retry.Requeued, hedged.Requeued)
	}
	// The recovery happened, so nothing may be stranded at the horizon.
	if retry.Stranded != 0 || hedged.Stranded != 0 {
		t.Errorf("stranded after recovery: retry %d, hedged %d, want 0", retry.Stranded, hedged.Stranded)
	}
	// Fail-and-retry pins its arrivals to the dead tier's bounded backlog
	// and must pay for it in drops; the rebalanced run routes around the
	// grave and must not drop at all.
	if retry.Dropped == 0 {
		t.Error("fail-and-retry must overflow the dead pool's bounded queue")
	}
	if hedged.Dropped != 0 {
		t.Errorf("hedged+rebalanced dropped %d, want 0", hedged.Dropped)
	}
	// The headline: hedging+rebalance strictly beats fail-and-retry on
	// within-SLO completions under the same loss.
	if hedged.WithinSLO <= retry.WithinSLO {
		t.Errorf("hedged+rebalanced within-SLO (%d) must beat fail-and-retry (%d)",
			hedged.WithinSLO, retry.WithinSLO)
	}
	if hedged.Stolen == 0 {
		t.Error("rebalanced run rescued no orphans (no steals)")
	}
	if hedged.HedgesFired == 0 || hedged.HedgesWon == 0 {
		t.Errorf("hedging must fire and win under the heavy tail: fired %d, won %d",
			hedged.HedgesFired, hedged.HedgesWon)
	}
	if retry.HedgesFired != 0 {
		t.Errorf("fail-and-retry fired %d hedges with hedging off", retry.HedgesFired)
	}

	// Determinism: the fault and hedge paths must stay reproducible per
	// seed — injection is virtual-clock events, hedging resamples from the
	// same deterministic stream.
	again := run(func(cfg *HybridConfig) {
		cfg.AdaptiveBalance = true
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		cfg.HedgeFactor = 3
	})
	if again.WithinSLO != hedged.WithinSLO || again.HedgesFired != hedged.HedgesFired ||
		again.HedgesWon != hedged.HedgesWon || again.Stolen != hedged.Stolen ||
		again.Requeued != hedged.Requeued || again.Latency.Mean() != hedged.Latency.Mean() {
		t.Error("chaos runs must be deterministic per seed")
	}

	// Seeded golden pins (trace seed 33, run seed 7, faults at 40s/70s).
	type golden struct{ completed, dropped, withinSLO, requeued, hedgesFired, hedgesWon int }
	for _, pin := range []struct {
		name string
		st   *HybridStats
		want golden
	}{
		{"fail-and-retry", retry, golden{5700, 4450, 51, 3, 0, 0}},
		{"hedged+rebalanced", hedged, golden{10150, 0, 5477, 3, 49, 13}},
	} {
		if pin.st.Completed != pin.want.completed || pin.st.Dropped != pin.want.dropped ||
			pin.st.WithinSLO != pin.want.withinSLO || pin.st.Requeued != pin.want.requeued ||
			pin.st.HedgesFired != pin.want.hedgesFired || pin.st.HedgesWon != pin.want.hedgesWon {
			t.Errorf("%s: completed/dropped/withinSLO/requeued/hedgesFired/hedgesWon = %d/%d/%d/%d/%d/%d, pinned %d/%d/%d/%d/%d/%d",
				pin.name, pin.st.Completed, pin.st.Dropped, pin.st.WithinSLO, pin.st.Requeued,
				pin.st.HedgesFired, pin.st.HedgesWon,
				pin.want.completed, pin.want.dropped, pin.want.withinSLO, pin.want.requeued,
				pin.want.hedgesFired, pin.want.hedgesWon)
		}
	}
}

// TestChaosStranded pins the stranded accounting: a script that kills the
// DSCS pool and never recovers it, with no rebalancing armed, must leave
// the backlog stranded — counted, not silently lost — while Conservation
// still balances.
func TestChaosStranded(t *testing.T) {
	tr := onesidedTrace(t)
	evs, err := trace.ParseFaultScript("40s:pool-down:dscs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := balanceConfig()
	cfg.Faults = evs
	st, err := RunHybrid(tr, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stranded == 0 {
		t.Error("an unrecovered pool with no rescue path must strand its backlog")
	}
	if st.Completed+st.Dropped+st.Stranded != len(tr.Requests) {
		t.Errorf("accounting: %d completed + %d dropped + %d stranded != %d arrived",
			st.Completed, st.Dropped, st.Stranded, len(tr.Requests))
	}
}

// TestChaosRackRequeue exercises the Figure 13 rack's fault path: a
// mid-trace brown-out of the one-pool rack cancels its in-flight
// executions, requeues them, and completes everything after recovery —
// batching windows included.
func TestChaosRackRequeue(t *testing.T) {
	tr := smallTrace(t, 60)
	evs, err := trace.ParseFaultScript("20s:pool-down:sim;25s:pool-up:sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, batched := range []bool{false, true} {
		cfg := Config{
			Instances: 8, QueueDepth: 4000,
			Service:     flatService(80 * time.Millisecond),
			SampleEvery: time.Second,
			Faults:      evs,
		}
		if batched {
			cfg.MaxBatch = 8
			cfg.BatchLinger = 20 * time.Millisecond
		}
		st, err := Run(tr, cfg, 11)
		if err != nil {
			t.Fatalf("batched=%v: %v", batched, err)
		}
		if st.Faults != 1 {
			t.Errorf("batched=%v: faults = %d, want 1", batched, st.Faults)
		}
		if st.Requeued == 0 {
			t.Errorf("batched=%v: the brown-out orphaned no in-flight work", batched)
		}
		if st.Stranded != 0 {
			t.Errorf("batched=%v: %d stranded after recovery", batched, st.Stranded)
		}
		if st.Completed+st.Dropped != len(tr.Requests) {
			t.Errorf("batched=%v: %d completed + %d dropped != %d arrived",
				batched, st.Completed, st.Dropped, len(tr.Requests))
		}
	}
}

// TestChaosRequeuedBatchFormsOnce: a formed batch that a pool-down sends
// back to the queue counts as formed once, when it runs again — the
// engine's rule for a held-back batch (serve.PoolCore.Requeue). Two
// same-payload arrivals fill a batch of two on the one instance; the pool
// dies and recovers mid-execution, and the batch re-dispatches whole.
func TestChaosRequeuedBatchFormsOnce(t *testing.T) {
	evs, err := trace.ParseFaultScript("50ms:pool-down:sim;60ms:pool-up:sim")
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Duration: time.Second, Requests: []trace.Request{
		{At: 0, Benchmark: "chatbot"}, {At: time.Millisecond, Benchmark: "chatbot"},
	}}
	st, err := Run(tr, Config{
		Instances: 1, QueueDepth: 10, Service: flatService(100 * time.Millisecond),
		MaxBatch: 2, BatchLinger: 10 * time.Millisecond, Faults: evs,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requeued != 2 || st.Completed != 2 {
		t.Fatalf("requeued %d and completed %d, want the batch of 2 requeued and then served", st.Requeued, st.Completed)
	}
	if st.Formed != 1 {
		t.Errorf("Formed = %d, want 1: a requeued batch counts once, when it runs", st.Formed)
	}
}

// TestChaosConfigValidation rejects the scripts and factors the sims
// cannot honor: drive events (no storage nodes in these sims), unknown
// pool names, sub-1 hedge factors, and fault/hedge use on layouts that
// lack per-pool state.
func TestChaosConfigValidation(t *testing.T) {
	tr := smallTrace(t, 5)
	mustParse := func(s string) []trace.FaultEvent {
		evs, err := trace.ParseFaultScript(s)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	if _, err := Run(tr, Config{Instances: 2, QueueDepth: 10,
		Service: flatService(time.Millisecond), Faults: mustParse("1s:drive-down:dscs-0")}, 1); err == nil {
		t.Error("rack sim accepted a drive fault")
	}
	if _, err := Run(tr, Config{Instances: 2, QueueDepth: 10,
		Service: flatService(time.Millisecond), Faults: mustParse("1s:pool-down:nope")}, 1); err == nil {
		t.Error("rack sim accepted an unknown pool target")
	}
	hybridBase := HybridConfig{CPUInstances: 2, DSCSInstances: 2, QueueDepth: 10,
		Service: mixedService, SplitQueues: true}
	bad := hybridBase
	bad.Faults = mustParse("1s:pool-down:nope")
	if _, err := RunHybrid(tr, bad, 1); err == nil {
		t.Error("hybrid sim accepted an unknown pool target")
	}
	bad = hybridBase
	bad.Faults = mustParse("1s:drive-down:dscs-0")
	if _, err := RunHybrid(tr, bad, 1); err == nil {
		t.Error("hybrid sim accepted a drive fault")
	}
	bad = hybridBase
	bad.HedgeFactor = 0.5
	if _, err := RunHybrid(tr, bad, 1); err == nil {
		t.Error("hybrid sim accepted HedgeFactor 0.5")
	}
	bad = hybridBase
	bad.SplitQueues = false
	bad.Faults = mustParse("1s:pool-down:dscs")
	if _, err := RunHybrid(tr, bad, 1); err == nil {
		t.Error("shared layout accepted a fault script")
	}
}
