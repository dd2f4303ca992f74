package cluster

import (
	"testing"
	"time"

	"dscs/internal/scale"
	"dscs/internal/trace"
)

// TestRackComboGolden pins the feature combinations no other Tier-1 test
// exercises together — the ones where elastic capacity, the fault script,
// the former and N-way balance meet inside one event loop:
//
//   - split RunHybrid with two CPU pools, adaptive balance, elastic
//     capacity and a pool-down/up pair at once (the benchmark's sim-rack
//     hybrid replay shape);
//   - Run with the queue-level former under a brown-out (the requeued
//     tasks re-Observe into the former so their groups re-form);
//   - Run with elastic capacity under a brown-out.
//
// All three are seeded and fully deterministic; the counts are pinned so
// a change to event ordering in any of those paths shows its hand.
func TestRackComboGolden(t *testing.T) {
	mustParse := func(s string) []trace.FaultEvent {
		t.Helper()
		evs, err := trace.ParseFaultScript(s)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	type golden struct {
		completed, dropped, stranded, withinSLO, requeued, coldStarts, other int
		mean                                                                 time.Duration
	}

	t.Run("hybrid/2cpu+adaptive+elastic+faults", func(t *testing.T) {
		cfg := balanceConfig()
		cfg.QueueDepth = 2000
		cfg.CPUPools = 2
		cfg.AdaptiveBalance = true
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		cfg.Elastic = &scale.Config{
			Mode: scale.ModeReactive, Min: 1, Max: 40,
			ColdStart: 500 * time.Millisecond, IdleLinger: 10 * time.Second,
		}
		cfg.Faults = mustParse("40s:pool-down:dscs;70s:pool-up:dscs")
		st, err := RunHybrid(onesidedTrace(t), cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{st.Completed, st.Dropped, st.Stranded, st.WithinSLO, st.Requeued, st.ColdStarts, st.Stolen, st.Latency.Mean()}
		if want := (golden{10150, 0, 0, 5618, 3, 70, 3707, 1385754511}); got != want {
			t.Errorf("completed/dropped/stranded/withinSLO/requeued/coldStarts/stolen/mean = %+v, pinned %+v", got, want)
		}
	})

	rack := Config{
		Instances: 8, QueueDepth: 4000,
		Service:     flatService(80 * time.Millisecond),
		SampleEvery: time.Second,
		BatchSLO:    500 * time.Millisecond,
		Faults:      mustParse("20s:pool-down:sim;25s:pool-up:sim"),
	}
	t.Run("rack/former+faults", func(t *testing.T) {
		cfg := rack
		cfg.MaxBatch, cfg.BatchLinger, cfg.GlobalBatch = 8, 20*time.Millisecond, true
		st, err := Run(smallTrace(t, 60), cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{st.Completed, st.Dropped, st.Stranded, st.WithinSLO, st.Requeued, st.ColdStarts, st.Formed, st.LatencySample.Mean()}
		if want := (golden{7118, 0, 0, 6843, 5, 0, 5940, 205650676}); got != want {
			t.Errorf("completed/dropped/stranded/withinSLO/requeued/coldStarts/formed/mean = %+v, pinned %+v", got, want)
		}
	})
	t.Run("rack/elastic+faults", func(t *testing.T) {
		cfg := rack
		cfg.Elastic = &scale.Config{
			Mode: scale.ModeReactive, Min: 2, Max: 8,
			ColdStart: 500 * time.Millisecond, IdleLinger: 2 * time.Second,
		}
		st, err := Run(smallTrace(t, 60), cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{st.Completed, st.Dropped, st.Stranded, st.WithinSLO, st.Requeued, st.ColdStarts, st.Suspends, st.LatencySample.Mean()}
		if want := (golden{7118, 0, 0, 6501, 4, 8, 8, 314772036}); got != want {
			t.Errorf("completed/dropped/stranded/withinSLO/requeued/coldStarts/suspends/mean = %+v, pinned %+v", got, want)
		}
	})
}
