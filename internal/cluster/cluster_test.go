package cluster

import (
	"testing"
	"time"

	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// TestLingerBatchesFromVirtualClock exercises batch forming from the
// discrete-event clock: one instance, two same-benchmark arrivals 1s
// apart, and a 2s linger, which attaches the queue-level former. It must
// hold the first arrival queued past the second and serve both in one
// execution — the same serve.BatchFormer decision the live engine runs on
// wall time.
func TestLingerBatchesFromVirtualClock(t *testing.T) {
	tr := &trace.Trace{
		Duration: 10 * time.Second,
		Requests: []trace.Request{
			{ID: 1, At: 0, Benchmark: "chatbot"},
			{ID: 2, At: time.Second, Benchmark: "chatbot"},
			{ID: 3, At: 90 * time.Second, Benchmark: "moderation"}, // different benchmark, long after
		},
	}
	cfg := Config{
		Instances: 1, QueueDepth: 10,
		Service:     flatService(10 * time.Second),
		SampleEvery: time.Minute,
		MaxBatch:    4, BatchLinger: 2 * time.Second,
	}
	st, err := Run(tr, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 3 || st.Dropped != 0 {
		t.Fatalf("completed %d dropped %d", st.Completed, st.Dropped)
	}
	if st.Batches != 2 {
		t.Fatalf("executions = %d, want 2 (chatbot pair lingered into one batch)", st.Batches)
	}
	if st.Formed != 2 {
		t.Fatalf("formed = %d, want 2 (the chatbot pair and the solo request)", st.Formed)
	}
	// The lead waits out the full 2s linger before its 10s service, so the
	// batch completes at 12s: latencies 12s (lead) and 11s (follower). The
	// solo request at 90s lingers out alone, also 12s. Max is 12s.
	if max := st.LatencySample.Percentile(1.0); max != 12*time.Second {
		t.Fatalf("max latency = %v, want 12s (2s linger + 10s service)", max)
	}

	// Without a linger no former attaches and the two arrivals serve
	// separately: the second queues behind a 10s execution.
	cfg.BatchLinger = 0
	st2, err := Run(tr, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Batches != 3 || st2.Formed != 0 {
		t.Fatalf("without linger: executions = %d, formed = %d, want 3 and 0", st2.Batches, st2.Formed)
	}

	// A group that fills must release early, exactly like the engine's:
	// with MaxBatch 2 the second arrival at 1s completes the batch, so
	// execution starts at 1s — not at the 2s linger bound — and the lead's
	// latency is 11s, not 12s. (A two-request trace: a solo request would
	// legitimately wait out its whole linger.)
	pair := &trace.Trace{
		Duration: 10 * time.Second,
		Requests: []trace.Request{
			{ID: 1, At: 0, Benchmark: "chatbot"},
			{ID: 2, At: time.Second, Benchmark: "chatbot"},
		},
	}
	cfg.MaxBatch, cfg.BatchLinger = 2, 2*time.Second
	st3, err := Run(pair, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Batches != 1 || st3.Formed != 1 {
		t.Fatalf("early release: executions = %d, formed = %d, want 1 and 1", st3.Batches, st3.Formed)
	}
	if max := st3.LatencySample.Percentile(1.0); max != 11*time.Second {
		t.Fatalf("max latency = %v, want 11s (group released early when full)", max)
	}
}

// TestBatchingDisabledMatchesSeed pins the default path: MaxBatch unset
// must leave the Figure 13 behavior untouched, batch counting included.
func TestBatchingDisabledMatchesSeed(t *testing.T) {
	tr := smallTrace(t, 50)
	st, err := Run(tr, Config{Instances: 50, QueueDepth: 1000,
		Service: flatService(100 * time.Millisecond), SampleEvery: time.Second}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != st.Completed {
		t.Fatalf("unbatched run: %d executions != %d completions", st.Batches, st.Completed)
	}
}

func flatService(d time.Duration) ServiceModel {
	return func(string, *sim.RNG) time.Duration { return d }
}

func smallTrace(t *testing.T, rate float64) *trace.Trace {
	t.Helper()
	cfg := trace.BurstyConfig{
		Duration: 2 * time.Minute, BaseRate: rate, BurstRate: rate + 0.001,
		BurstEvery: time.Minute, BurstLength: time.Second,
	}
	tr, err := trace.Generate(cfg, workload.Suite(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestUnderloadedNoQueue(t *testing.T) {
	// 100 rps against 50 instances at 100ms service: 10% load.
	tr := smallTrace(t, 100)
	st, err := Run(tr, Config{Instances: 50, QueueDepth: 1000,
		Service: flatService(100 * time.Millisecond), SampleEvery: time.Second}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d under light load", st.Dropped)
	}
	if st.Completed != len(tr.Requests) {
		t.Fatalf("completed %d of %d", st.Completed, len(tr.Requests))
	}
	if q := st.Queue.MaxValue(); q > 20 {
		t.Errorf("peak queue %v under light load", q)
	}
	// Latency stays near the service time.
	if p99 := st.LatencySample.Percentile(0.99); p99 > 300*time.Millisecond {
		t.Errorf("p99 = %v under light load", p99)
	}
}

func TestOverloadQueues(t *testing.T) {
	// 100 rps against 5 instances at 100ms: 2x overload -> queue grows.
	tr := smallTrace(t, 100)
	st, err := Run(tr, Config{Instances: 5, QueueDepth: 100000,
		Service: flatService(100 * time.Millisecond), SampleEvery: time.Second}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q := st.Queue.MaxValue(); q < 1000 {
		t.Errorf("peak queue %v, expected sustained growth under 2x overload", q)
	}
	// Wall-clock latency far exceeds the service time.
	if mean := st.LatencySample.Mean(); mean < time.Second {
		t.Errorf("mean latency %v under overload", mean)
	}
}

func TestQueueBoundDrops(t *testing.T) {
	tr := smallTrace(t, 100)
	st, err := Run(tr, Config{Instances: 1, QueueDepth: 50,
		Service: flatService(time.Second), SampleEvery: time.Second}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped == 0 {
		t.Fatal("expected drops at a 50-deep queue under extreme overload")
	}
	if st.Completed+st.Dropped != len(tr.Requests) {
		t.Fatal("request conservation violated")
	}
}

func TestFasterServiceLowerLatency(t *testing.T) {
	// The Figure 13 contrast: the same trace against fast (DSCS-like) and
	// slow (baseline-like) service times.
	tr := smallTrace(t, 120)
	cfgFast := Config{Instances: 20, QueueDepth: 10000,
		Service: flatService(90 * time.Millisecond), SampleEvery: time.Second}
	cfgSlow := cfgFast
	cfgSlow.Service = flatService(300 * time.Millisecond)
	fast, err := Run(tr, cfgFast, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(tr, cfgSlow, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fast.LatencySample.Mean() >= slow.LatencySample.Mean() {
		t.Error("faster service must lower wall-clock latency")
	}
	if fast.Queue.MaxValue() > slow.Queue.MaxValue() {
		t.Error("faster service must not queue more")
	}
}

func TestRunValidation(t *testing.T) {
	tr := smallTrace(t, 10)
	if _, err := Run(tr, Config{}, 1); err == nil {
		t.Error("incomplete config must fail")
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := smallTrace(t, 50)
	cfg := Config{Instances: 10, QueueDepth: 100,
		Service: func(slug string, rng *sim.RNG) time.Duration {
			return 50*time.Millisecond + rng.Exp(20*time.Millisecond)
		}, SampleEvery: time.Second}
	a, err := Run(tr, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.LatencySample.Mean() != b.LatencySample.Mean() {
		t.Error("same seed must reproduce the run")
	}
}
