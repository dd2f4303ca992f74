package cluster

import (
	"runtime"
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

	// The workflow rack: the same arrivals and benchmarks at fan-out 4 and
	// 16, so the wider trace differs only in its shard stages. A stage
	// costs its output object; the graph, the Refs and the reused write
	// records cost nothing per stage.
	wide := [2]*trace.WorkflowTrace{}
	for i, fanOut := range []int{4, 16} {
		if wide[i], err = trace.GenerateWorkflows(trace.WorkflowConfig{
			Duration: 2 * time.Minute, Rate: 0.8, ETLShare: 0.5, FanOut: fanOut,
		}, workload.Suite(), sim.NewRNG(17)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := workflowGoldenConfig(true)
	cfg.Jitter = 0.15
	allocs := func(wtr *trace.WorkflowTrace) float64 {
		var err error
		n := testing.AllocsPerRun(1, func() { _, err = RunWorkflows(wtr, cfg, 1) })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	extra := wide[1].Stages() - wide[0].Stages()
	perStage := (allocs(wide[1]) - allocs(wide[0])) / float64(extra)
	t.Logf("workflow: %d more stages, %.2f more allocations each", extra, perStage)
	// 1.11 measured; the map and heap growth amortised over the extra
	// stages is the rest.
	const stageBound = 1.5
	if perStage > stageBound {
		t.Errorf("workflow: a stage costs %.2f allocations, want at most %.1f (its output object)",
			perStage, stageBound)
	}
}

// TestReplayBytesDoNotScale pins what a replay's memory grows with: the
// requests in flight, not the trace. The engine reads the arrival instants
// in place, so a request the trace adds costs only its 8 B latency record
// and the amortised growth of the series and the heap — not a copy of its
// instant.
func TestReplayBytesDoNotScale(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	evs, err := trace.ParseFaultScript("20s:pool-down:sim;25s:pool-up:sim")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Instances: 8, QueueDepth: 4000, Service: flatService(80 * time.Millisecond),
		SampleEvery: time.Second, MaxBatch: 4, Faults: evs,
	}
	trN, tr2N := replayTraces(t, trace.BurstyConfig{
		BaseRate: 60, BurstRate: 90, BurstEvery: 30 * time.Second, BurstLength: 5 * time.Second,
	}, 4*time.Minute)
	bytes := func(tr *trace.Trace) uint64 {
		// The least of three replays: a collection that lands inside one
		// adds its own bookkeeping.
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := Run(tr, cfg, 11); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	extra := len(tr2N.Requests) - len(trN.Requests)
	perReq := float64(bytes(tr2N)-bytes(trN)) / float64(extra)
	t.Logf("%d more requests, %.2f more bytes each", extra, perReq)
	const record, slack = 8, 4
	if perReq > record+slack {
		t.Errorf("a replay allocates %.2f B per extra request, want at most the %d B latency record + %d B",
			perReq, record, slack)
	}
}

// TestReplayRecordAllocations pins what one execution record costs a rack
// replay without hedging: the record and its bound completion, with no
// hedge timer or lender lease bound for a driver that never arms them. Two
// replays of the same n requests differ only in how many records they
// make: a burst at one instant runs all n at once on n instances, while
// arrivals spaced beyond the service time reuse a single record.
func TestReplayRecordAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 512
	cfg := Config{Instances: n, QueueDepth: n, Service: flatService(80 * time.Millisecond), SampleEvery: time.Hour}
	burst := &trace.Trace{Duration: n * time.Second}
	spaced := &trace.Trace{Duration: n * time.Second}
	for i := range n {
		burst.Requests = append(burst.Requests, trace.Request{Benchmark: "chatbot"})
		spaced.Requests = append(spaced.Requests, trace.Request{At: time.Duration(i) * time.Second, Benchmark: "chatbot"})
	}
	allocs := func(tr *trace.Trace) float64 {
		var err error
		a := testing.AllocsPerRun(3, func() { _, err = Run(tr, cfg, 5) })
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	perRecord := (allocs(burst) - allocs(spaced)) / (n - 1)
	t.Logf("%.3f allocations per extra record", perRecord)
	// The event heap and the free list grow geometrically with the
	// records in flight: a few allocations in all, not one per record.
	if perRecord < 2 || perRecord > 2.1 {
		t.Errorf("a record costs %.3f allocations, want 2 (the record and its completion)", perRecord)
	}
}
