package cluster

import (
	"math"
	"testing"
	"time"

	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// mixedCosts are mixedService's CPU costs, built once: the replay
// benchmarks call the service model per request.
var mixedCosts = map[string]time.Duration{
	"credit-risk":    60 * time.Millisecond,
	"asset-damage":   240 * time.Millisecond,
	"ppe-detection":  520 * time.Millisecond,
	"chatbot":        300 * time.Millisecond,
	"translation":    410 * time.Millisecond,
	"clinical":       260 * time.Millisecond,
	"moderation":     210 * time.Millisecond,
	"remote-sensing": 400 * time.Millisecond,
}

// mixedService gives benchmarks widely different CPU costs and a uniform
// 5x DSCS advantage — the regime where placement policy matters.
func mixedService(slug string) (cpu, dscs time.Duration, accel int) {
	cpu = mixedCosts[slug]
	if cpu == 0 {
		cpu = 200 * time.Millisecond
	}
	return cpu, cpu / 5, 2
}

func hybridTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.BurstyConfig{
		Duration: 3 * time.Minute, BaseRate: 150, BurstRate: 240,
		BurstEvery: time.Minute, BurstLength: 25 * time.Second,
	}
	tr, err := trace.Generate(cfg, workload.Suite(), sim.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runPolicy(t *testing.T, tr *trace.Trace, p sched.Policy) *HybridStats {
	t.Helper()
	st, err := RunHybrid(tr, HybridConfig{
		CPUInstances: 28, DSCSInstances: 6, QueueDepth: 100000,
		Policy: p, Service: mixedService, Jitter: 0.15,
		SampleEvery: 5 * time.Second,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPoliciesCompleteEverything(t *testing.T) {
	tr := hybridTrace(t)
	for _, p := range []sched.Policy{sched.FCFSPolicy{}, sched.CriticalityPolicy{}} {
		st := runPolicy(t, tr, p)
		if st.Completed != len(tr.Requests) || st.Dropped != 0 {
			t.Errorf("%s: completed %d/%d dropped %d",
				p.Name(), st.Completed, len(tr.Requests), st.Dropped)
		}
		if st.OnDSCS == 0 {
			t.Errorf("%s: DSCS pool unused", p.Name())
		}
	}
}

func TestCriticalityBeatsFCFS(t *testing.T) {
	// The paper's Section 5.3 hypothesis: assigning long-running functions
	// to DSCS nodes improves performance over class-blind FCFS when DSCS
	// capacity is scarce.
	tr := hybridTrace(t)
	fcfs := runPolicy(t, tr, sched.FCFSPolicy{})
	crit := runPolicy(t, tr, sched.CriticalityPolicy{})
	f := fcfs.Latency.Mean()
	c := crit.Latency.Mean()
	if c >= f {
		t.Errorf("criticality-aware (%v) should beat FCFS (%v)", c, f)
	}
	t.Logf("mean latency: fcfs=%v criticality=%v (%.1f%% better)",
		f, c, 100*(1-float64(c)/float64(f)))
}

func TestHybridValidation(t *testing.T) {
	tr := hybridTrace(t)
	if _, err := RunHybrid(tr, HybridConfig{}, 1); err == nil {
		t.Error("incomplete config must fail")
	}
}

// TestRunHybridRejectsNonFiniteHedgeFactor: NaN and +Inf pass a
// "nonzero and below 1" test, so a replay armed with either would run
// with hedging that never fires. Every value the live engine refuses the
// sim must refuse too (serve.CheckHedgeFactor).
func TestRunHybridRejectsNonFiniteHedgeFactor(t *testing.T) {
	tr := hybridTrace(t)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5} {
		cfg := HybridConfig{CPUInstances: 2, DSCSInstances: 2, QueueDepth: 10,
			Service: mixedService, SplitQueues: true, HedgeFactor: f}
		if _, err := RunHybrid(tr, cfg, 1); err == nil {
			t.Errorf("RunHybrid accepted HedgeFactor %g", f)
		}
	}
}

// TestHybridPoolCoreEquivalence pins the shared-queue topology (two
// serve.MultiCore pools over one backlog, on the shared driver) to the
// pre-refactor behavior: the retired sched.HybridScheduler path (same
// trace seed 21, run seed 5, 28 CPU + 6 DSCS pool, the post-aging-fix
// policies) produced exactly these completed/dropped/OnDSCS counts and
// mean latencies. The shared-core path must reproduce them bit for bit.
func TestHybridPoolCoreEquivalence(t *testing.T) {
	golden := map[string]struct {
		completed, dropped, onDSCS int
		meanMS                     float64
	}{
		"fcfs":        {33819, 0, 17591, 2882.010275},
		"criticality": {33819, 0, 14249, 2636.806996},
	}
	tr := hybridTrace(t)
	for _, p := range []sched.Policy{sched.FCFSPolicy{}, sched.CriticalityPolicy{}} {
		st := runPolicy(t, tr, p)
		want := golden[p.Name()]
		if st.Completed != want.completed || st.Dropped != want.dropped || st.OnDSCS != want.onDSCS {
			t.Errorf("%s: completed/dropped/onDSCS = %d/%d/%d, pre-refactor %d/%d/%d",
				p.Name(), st.Completed, st.Dropped, st.OnDSCS,
				want.completed, want.dropped, want.onDSCS)
		}
		meanMS := float64(st.Latency.Mean()) / float64(time.Millisecond)
		if diff := meanMS - want.meanMS; diff < -1e-3 || diff > 1e-3 {
			t.Errorf("%s: mean latency %.6fms, pre-refactor %.6fms", p.Name(), meanMS, want.meanMS)
		}
	}
}

func TestHybridDeterminism(t *testing.T) {
	tr := hybridTrace(t)
	a := runPolicy(t, tr, sched.CriticalityPolicy{})
	b := runPolicy(t, tr, sched.CriticalityPolicy{})
	if a.Latency.Mean() != b.Latency.Mean() || a.OnDSCS != b.OnDSCS {
		t.Error("hybrid runs must be deterministic per seed")
	}
}

// TestHybridServiceCallOrder pins the pricing contract that lets
// replays of one trace share prices: an unpriced replay calls Service
// exactly once per arrival, in trace order, so a stateful model (one
// that draws from its own RNG stream) prices arrival k with its k-th
// draw whatever the policy. With AdaptiveEstimates the model is evaluated
// again at dispatch, and the calls no longer line up with arrivals.
func TestHybridServiceCallOrder(t *testing.T) {
	tr := &trace.Trace{Duration: time.Second}
	for i := 0; i < 20; i++ {
		slug := []string{"chatbot", "credit-risk", "translation"}[i%3]
		tr.Requests = append(tr.Requests, trace.Request{At: time.Duration(i) * time.Millisecond, Benchmark: slug})
	}
	var calls []string
	cfg := HybridConfig{
		CPUInstances: 2, DSCSInstances: 1, QueueDepth: 100,
		Service: func(slug string) (cpu, dscs time.Duration, accel int) {
			calls = append(calls, slug)
			return mixedService(slug)
		},
	}
	for _, p := range []sched.Policy{sched.FCFSPolicy{}, sched.CriticalityPolicy{}} {
		calls = calls[:0]
		cfg.Policy = p
		if _, err := RunHybrid(tr, cfg, 1); err != nil {
			t.Fatal(err)
		}
		if len(calls) != len(tr.Requests) {
			t.Fatalf("%s: %d Service calls for %d arrivals", p.Name(), len(calls), len(tr.Requests))
		}
		for k, req := range tr.Requests {
			if calls[k] != req.Benchmark {
				t.Errorf("%s: call %d priced %q, arrival %d is %q", p.Name(), k, calls[k], k, req.Benchmark)
			}
		}
	}

	calls = calls[:0]
	cfg.AdaptiveEstimates = true
	if _, err := RunHybrid(tr, cfg, 1); err != nil {
		t.Fatal(err)
	}
	if len(calls) <= len(tr.Requests) {
		t.Errorf("AdaptiveEstimates: %d Service calls for %d arrivals, want more (re-evaluated at dispatch)", len(calls), len(tr.Requests))
	}
}
