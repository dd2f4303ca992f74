package cluster

import (
	"testing"
	"time"

	"dscs/internal/sched"
)

// TestAdaptiveFormerGolden is the adaptive-estimation acceptance scenario
// on the discrete-event rack: the scheduler's static estimate believes
// every benchmark serves in 1ms, while the true service time is 30ms — a
// 30x drift of the kind a redeployed model or a contended drive produces.
// The SLO-aware former prices its holds with `arrival + SLO - estimate`,
// so the static regime holds batches ~29ms too long and blows the budget;
// with AdaptiveEstimates the digests learn the true p95 after the warmup
// and the former releases early enough to finish inside the SLO. Both
// regimes run the identical trace and seed; adaptive-on must complete
// strictly more within-SLO requests, and the seeded counts are pinned as
// goldens so a regression in either pricing path shows its hand.
func TestAdaptiveFormerGolden(t *testing.T) {
	tr := smallTrace(t, 60)
	base := Config{
		Instances: 8, QueueDepth: 2000,
		Service:     flatService(30 * time.Millisecond),
		SampleEvery: time.Second,
		MaxBatch:    8, BatchLinger: 150 * time.Millisecond,
		BatchSLO:       100 * time.Millisecond,
		StaticEstimate: func(string) time.Duration { return time.Millisecond },
		EstimateWarmup: 16, EstimateWindow: 128,
	}

	run := func(adaptive bool) *Stats {
		cfg := base
		cfg.AdaptiveEstimates = adaptive
		st, err := Run(tr, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	off := run(false)
	on := run(true)

	// Same trace, same completions — only the release timing may differ.
	if off.Completed != on.Completed || off.Dropped != 0 || on.Dropped != 0 {
		t.Fatalf("regimes diverged in throughput: off %d/%d, on %d/%d",
			off.Completed, off.Dropped, on.Completed, on.Dropped)
	}
	if on.WithinSLO <= off.WithinSLO {
		t.Fatalf("adaptive-on must complete more within-SLO requests: on=%d off=%d",
			on.WithinSLO, off.WithinSLO)
	}
	// The shift must be a regime change, not a rounding artifact: the
	// static pricing misses the budget for nearly everything the former
	// holds to its due instant (released at SLO-1ms, finishing ~29ms
	// late), while the warmed adaptive pricing fits the bulk back in.
	if frac := float64(on.WithinSLO) / float64(on.Completed); frac < 0.9 {
		t.Errorf("adaptive-on within-SLO fraction = %.3f, want >= 0.9", frac)
	}
	if frac := float64(off.WithinSLO) / float64(off.Completed); frac > 0.5 {
		t.Errorf("adaptive-off within-SLO fraction = %.3f, want the static regime to miss", frac)
	}

	// Seeded goldens (trace seed 1, run seed 11) pin both regimes.
	type golden struct{ completed, batches, formed, withinSLO int }
	for _, pin := range []struct {
		name string
		st   *Stats
		want golden
	}{
		{"adaptive-off", off, golden{7118, 4091, 4091, 2120}},
		{"adaptive-on", on, golden{7118, 4635, 4635, 6967}},
	} {
		if pin.st.Completed != pin.want.completed || pin.st.Batches != pin.want.batches ||
			pin.st.Formed != pin.want.formed || pin.st.WithinSLO != pin.want.withinSLO {
			t.Errorf("%s: completed/batches/formed/withinSLO = %d/%d/%d/%d, pinned %d/%d/%d/%d",
				pin.name, pin.st.Completed, pin.st.Batches, pin.st.Formed, pin.st.WithinSLO,
				pin.want.completed, pin.want.batches, pin.want.formed, pin.want.withinSLO)
		}
	}

	// Determinism: the adaptive path must stay reproducible per seed.
	again := run(true)
	if again.WithinSLO != on.WithinSLO || again.Batches != on.Batches {
		t.Error("adaptive runs must be deterministic per seed")
	}
}

// TestHybridAdaptiveBlendRecoversDriftedEstimates: the hybrid policies
// price with HybridConfig.Estimate — here an offline profile whose
// CPU-cost ordering is inverted against the truth, which makes the
// criticality policy systematically send short work to the scarce DSCS
// tier. AdaptiveEstimates blends pricing back toward the observed
// per-class p50, so the drifted profile must recover: mean latency with
// adaptation beats the drifted run without it.
func TestHybridAdaptiveBlendRecoversDriftedEstimates(t *testing.T) {
	tr := hybridTrace(t)
	// The drifted belief: every benchmark's costs inverted around 580ms,
	// so expensive work looks cheap and vice versa.
	inverted := func(slug string) (cpu, dscs time.Duration, accel int) {
		c, _, a := mixedService(slug)
		cpu = 580*time.Millisecond - c
		return cpu, cpu / 5, a
	}
	run := func(adaptive bool) *HybridStats {
		st, err := RunHybrid(tr, HybridConfig{
			CPUInstances: 28, DSCSInstances: 6, QueueDepth: 100000,
			Policy: sched.CriticalityPolicy{}, Service: mixedService,
			Estimate: inverted, Jitter: 0.15, SampleEvery: 5 * time.Second,
			AdaptiveEstimates: adaptive, EstimateWarmup: 16,
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	drifted := run(false)
	adapted := run(true)
	if drifted.Completed != len(tr.Requests) || adapted.Completed != len(tr.Requests) {
		t.Fatalf("lost requests: drifted %d adapted %d of %d",
			drifted.Completed, adapted.Completed, len(tr.Requests))
	}
	d := drifted.Latency.Mean()
	a := adapted.Latency.Mean()
	if a >= d {
		t.Errorf("adaptive blending must recover the drifted profile: adapted %v vs drifted %v", a, d)
	}
	t.Logf("mean latency: drifted=%v adapted=%v (%.1f%% better)",
		d, a, 100*(1-float64(a)/float64(d)))
}

// TestHybridEstimateNilMatchesSeed: leaving Estimate and AdaptiveEstimates
// unset must reproduce the classic exact-knowledge runs bit for bit — the
// pricing refactor may not disturb the pinned equivalence goldens.
func TestHybridEstimateNilMatchesSeed(t *testing.T) {
	tr := hybridTrace(t)
	st := runPolicy(t, tr, sched.CriticalityPolicy{})
	if st.Completed != 33819 || st.OnDSCS != 14249 {
		t.Fatalf("completed/onDSCS = %d/%d, want the pinned 33819/14249", st.Completed, st.OnDSCS)
	}
}
