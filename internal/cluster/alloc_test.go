package cluster

import (
	"testing"
	"time"

	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// replayTraces returns one arrival shape generated over span and over twice
// span: about N and 2N requests with the same bursts.
func replayTraces(t *testing.T, cfg trace.BurstyConfig, span time.Duration) (*trace.Trace, *trace.Trace) {
	t.Helper()
	var out [2]*trace.Trace
	for i := range out {
		cfg.Duration = time.Duration(i+1) * span
		tr, err := trace.Generate(cfg, workload.Suite(), sim.NewRNG(33))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tr
	}
	return out[0], out[1]
}

// TestReplayAllocationsDoNotScale pins the driver's per-execution cost at
// zero allocations. A replay of twice the requests under the same arrival
// shape may allocate a few more times — the event heap, the series and the
// record free list grow geometrically — but not once more per request.
func TestReplayAllocationsDoNotScale(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	evs, err := trace.ParseFaultScript("20s:pool-down:sim;25s:pool-up:sim")
	if err != nil {
		t.Fatal(err)
	}
	rack := Config{
		Instances: 8, QueueDepth: 4000, Service: flatService(80 * time.Millisecond),
		SampleEvery: time.Second, MaxBatch: 4, Faults: evs,
	}
	rackN, rack2N := replayTraces(t, trace.BurstyConfig{
		BaseRate: 60, BurstRate: 90, BurstEvery: 30 * time.Second, BurstLength: 5 * time.Second,
	}, time.Minute)
	// The split hybrid with every per-execution feature armed: two CPU
	// pools, adaptive balance, tail hedging under a heavy service tail, and
	// a mid-burst brown-out of the DSCS tier.
	hybrid := balanceConfig()
	hybrid.Jitter = 0.6
	hybrid.QueueDepth = 2000
	hybrid.CPUPools = 2
	hybrid.AdaptiveBalance = true
	hybrid.EstimateWarmup, hybrid.EstimateWindow = 16, 128
	hybrid.HedgeFactor = 3
	if hybrid.Faults, err = trace.ParseFaultScript("40s:pool-down:dscs;70s:pool-up:dscs"); err != nil {
		t.Fatal(err)
	}
	hybridN, hybrid2N := replayTraces(t, trace.BurstyConfig{
		BaseRate: 40, BurstRate: 130, BurstEvery: 30 * time.Second, BurstLength: 15 * time.Second,
	}, 2*time.Minute)

	for _, tc := range []struct {
		name   string
		n, n2  *trace.Trace
		replay func(*trace.Trace) error
	}{
		{"rack", rackN, rack2N, func(tr *trace.Trace) error { _, err := Run(tr, rack, 11); return err }},
		{"hybrid", hybridN, hybrid2N, func(tr *trace.Trace) error { _, err := RunHybrid(tr, hybrid, 7); return err }},
	} {
		allocs := func(tr *trace.Trace) float64 {
			var err error
			n := testing.AllocsPerRun(1, func() { err = tc.replay(tr) })
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return n
		}
		extra := len(tc.n2.Requests) - len(tc.n.Requests)
		grew := allocs(tc.n2) - allocs(tc.n)
		t.Logf("%s: %d more requests, %.0f more allocations", tc.name, extra, grew)
		if grew > float64(extra)/100 {
			t.Errorf("%s: %d more requests cost %.0f more allocations (%.3f per request), want a constant",
				tc.name, extra, grew, grew/float64(extra))
		}
	}
}
