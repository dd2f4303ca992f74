package cluster

import (
	"testing"
	"time"
)

// TestFormerGolden pins the Fig 13/14 regime counts of the global batch
// former without and with an SLO cap, so a future scheduler refactor that shifts
// the batching regime shows its hand explicitly instead of hiding inside a
// latency delta. Two regimes, both seeded and fully deterministic:
//
//   - Overload (the Fig 13 shape): 4 instances, a 40-deep queue, bursty
//     arrivals at ~15x one instance's capacity. Queue-level forming admits
//     more (the queue drains in fuller batches ahead of the bound) and the
//     SLO cap tightens it further.
//   - Light load (the Fig 14 tension): sparse arrivals, a generous 2s
//     linger. The former holds only queued work, and the SLO budget caps
//     the hold so p99 collapses to the service time plus the slack bound.
func TestFormerGolden(t *testing.T) {
	type golden struct {
		completed, dropped, batches, formed int
		meanMS                              float64
	}
	check := func(t *testing.T, name string, st *Stats, want golden) {
		t.Helper()
		if st.Completed != want.completed || st.Dropped != want.dropped ||
			st.Batches != want.batches || st.Formed != want.formed {
			t.Errorf("%s: completed/dropped/batches/formed = %d/%d/%d/%d, pinned %d/%d/%d/%d",
				name, st.Completed, st.Dropped, st.Batches, st.Formed,
				want.completed, want.dropped, want.batches, want.formed)
		}
		meanMS := float64(st.LatencySample.Mean()) / float64(time.Millisecond)
		if diff := meanMS - want.meanMS; diff < -1e-3 || diff > 1e-3 {
			t.Errorf("%s: mean latency %.6fms, pinned %.6fms", name, meanMS, want.meanMS)
		}
	}

	t.Run("overload", func(t *testing.T) {
		tr := smallTrace(t, 60)
		base := Config{Instances: 4, QueueDepth: 40,
			Service: flatService(250 * time.Millisecond), SampleEvery: time.Second,
			MaxBatch: 4, BatchLinger: 400 * time.Millisecond}
		goldens := map[string]golden{
			"former":     {7017, 101, 1877, 1775, 716.985365},
			"former+slo": {7026, 92, 1930, 1809, 687.382626},
		}
		for _, mode := range []struct {
			name string
			slo  time.Duration
		}{{"former", 0}, {"former+slo", 150 * time.Millisecond}} {
			cfg := base
			cfg.BatchSLO = mode.slo
			st, err := Run(tr, cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			check(t, mode.name, st, goldens[mode.name])
		}
	})

	t.Run("light-load", func(t *testing.T) {
		tr := smallTrace(t, 3)
		base := Config{Instances: 2, QueueDepth: 100,
			Service: flatService(100 * time.Millisecond), SampleEvery: time.Second,
			MaxBatch: 4, BatchLinger: 2 * time.Second}
		goldens := map[string]golden{
			"former":     {349, 0, 206, 206, 1657.040010},
			"former+slo": {349, 0, 310, 310, 385.518062},
		}
		for _, mode := range []struct {
			name string
			slo  time.Duration
		}{{"former", 0}, {"former+slo", 300 * time.Millisecond}} {
			cfg := base
			cfg.BatchSLO = mode.slo
			st, err := Run(tr, cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			check(t, mode.name, st, goldens[mode.name])
		}
	})
}

// TestStealRebalancesDeepBacklog is the acceptance scenario on the
// discrete-event rack: split per-class backlogs stage a deep DSCS queue
// beside 28 idle CPU instances (every arrival targets the accelerated
// tier). With stealing armed the CPU side drains the excess and
// completions strictly dominate the no-steal configuration; without it the
// backlog overflows its bound and drops.
func TestStealRebalancesDeepBacklog(t *testing.T) {
	tr := hybridTrace(t)
	run := func(steal, spill int) *HybridStats {
		st, err := RunHybrid(tr, HybridConfig{
			CPUInstances: 28, DSCSInstances: 6, QueueDepth: 400,
			Service: mixedService, Jitter: 0.15, SampleEvery: 5 * time.Second,
			SplitQueues: true, StealThreshold: steal, SpilloverThreshold: spill,
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	noSteal := run(0, 0)
	withSteal := run(4, 0)
	both := run(4, 200)

	if withSteal.Completed <= noSteal.Completed {
		t.Errorf("steal completions (%d) must strictly dominate no-steal (%d)",
			withSteal.Completed, noSteal.Completed)
	}
	if withSteal.Dropped >= noSteal.Dropped {
		t.Errorf("steal drops (%d) must undercut no-steal (%d)", withSteal.Dropped, noSteal.Dropped)
	}
	if withSteal.Stolen == 0 {
		t.Error("rebalancing run recorded no steals")
	}
	if noSteal.Stolen != 0 || noSteal.Spilled != 0 {
		t.Errorf("no-steal run moved work: stolen=%d spilled=%d", noSteal.Stolen, noSteal.Spilled)
	}
	if withSteal.Latency.Mean() >= noSteal.Latency.Mean() {
		t.Error("rebalancing must not worsen mean latency under a drop-heavy backlog")
	}
	// Submit-time spillover and drain-time stealing compose: the combined
	// run completes at least as much as stealing alone and both mechanisms
	// are visibly at work.
	if both.Completed < withSteal.Completed {
		t.Errorf("steal+spillover completed %d, less than steal alone (%d)",
			both.Completed, withSteal.Completed)
	}
	if both.Spilled == 0 || both.Stolen == 0 {
		t.Errorf("combined run: spilled=%d stolen=%d, want both active", both.Spilled, both.Stolen)
	}

	// Seeded golden pins for the regime shift (same trace seed 21, run
	// seed 5 as the classic equivalence test).
	type golden struct{ completed, dropped, stolen, spilled int }
	for _, pin := range []struct {
		name string
		st   *HybridStats
		want golden
	}{
		{"no-steal", noSteal, golden{18213, 15606, 0, 0}},
		{"steal", withSteal, golden{31499, 2320, 13754, 0}},
		{"steal+spillover", both, golden{32106, 1713, 5896, 8382}},
	} {
		if pin.st.Completed != pin.want.completed || pin.st.Dropped != pin.want.dropped ||
			pin.st.Stolen != pin.want.stolen || pin.st.Spilled != pin.want.spilled {
			t.Errorf("%s: completed/dropped/stolen/spilled = %d/%d/%d/%d, pinned %d/%d/%d/%d",
				pin.name, pin.st.Completed, pin.st.Dropped, pin.st.Stolen, pin.st.Spilled,
				pin.want.completed, pin.want.dropped, pin.want.stolen, pin.want.spilled)
		}
	}
}

// TestSplitDeterminism: split + steal runs must stay reproducible per
// seed, like every other simulation path.
func TestSplitDeterminism(t *testing.T) {
	tr := hybridTrace(t)
	run := func() *HybridStats {
		st, err := RunHybrid(tr, HybridConfig{
			CPUInstances: 10, DSCSInstances: 3, QueueDepth: 300,
			Service: mixedService, Jitter: 0.2, SampleEvery: 5 * time.Second,
			SplitQueues: true, StealThreshold: 2, SpilloverThreshold: 150,
		}, 9)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Stolen != b.Stolen || a.Spilled != b.Spilled ||
		a.Latency.Mean() != b.Latency.Mean() {
		t.Error("split runs must be deterministic per seed")
	}
}
