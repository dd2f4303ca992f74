package cluster

import (
	"testing"
	"time"

	"dscs/internal/scale"
	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// The replay benchmarks time one whole replay per op, in the shapes the
// repository benchmark's sim-rack rotation runs: the Figure 13 rack, the
// split hybrid with every feature armed, and the workflow rack. ns/req
// divides by the requests (or stages) the replay settles.

func benchTrace(b *testing.B, cfg trace.BurstyConfig) *trace.Trace {
	b.Helper()
	tr, err := trace.Generate(cfg, workload.Suite(), sim.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchReplay(b *testing.B, settled int, replay func() error) {
	b.ReportAllocs()
	for b.Loop() {
		if err := replay(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*settled), "ns/req")
}

func BenchmarkReplayRack(b *testing.B) {
	pt := trace.PaperTrace()
	pt.Duration, pt.BurstEvery, pt.BurstLength = 3*time.Minute, time.Minute, 12*time.Second
	tr := benchTrace(b, pt)
	cfg := PaperConfig(func(_ string, rng *sim.RNG) time.Duration {
		return sim.LogNormal{Median: 150 * time.Millisecond, Sigma: 0.2}.Sample(rng)
	})
	benchReplay(b, len(tr.Requests), func() error { _, err := Run(tr, cfg, 1); return err })
}

func BenchmarkReplayHybrid(b *testing.B) { benchReplayHybrid(b, scale.ModeReactive) }

// BenchmarkReplayHybridPredictive is the same replay under the one mode
// whose autoscaler observes arrivals and service times.
func BenchmarkReplayHybridPredictive(b *testing.B) { benchReplayHybrid(b, scale.ModePredictive) }

func benchReplayHybrid(b *testing.B, mode scale.Mode) {
	tr := benchTrace(b, trace.BurstyConfig{
		Duration: 3 * time.Minute, BaseRate: 60, BurstRate: 100,
		BurstEvery: 30 * time.Second, BurstLength: 15 * time.Second,
	})
	evs, err := trace.ParseFaultScript("62s:pool-down:dscs;82s:pool-up:dscs")
	if err != nil {
		b.Fatal(err)
	}
	cfg := HybridConfig{
		CPUInstances: 40, DSCSInstances: 10, QueueDepth: 2000,
		Service: mixedService, Jitter: 0.15, SampleEvery: 5 * time.Second,
		SplitQueues: true, CPUPools: 2, AdaptiveBalance: true,
		EstimateWarmup: 16, EstimateWindow: 128, SLO: 2 * time.Second,
		Elastic: &scale.Config{
			Mode: mode, Min: 1, Max: 40,
			ColdStart: 500 * time.Millisecond, IdleLinger: 10 * time.Second,
		},
		Faults: evs,
	}
	benchReplay(b, len(tr.Requests), func() error { _, err := RunHybrid(tr, cfg, 1); return err })
}

func BenchmarkReplayWorkflow(b *testing.B) {
	wtr, err := trace.GenerateWorkflows(trace.WorkflowConfig{
		Duration: 2 * time.Minute, Rate: 0.8, ETLShare: 0.5, FanOut: 4,
	}, workload.Suite(), sim.NewRNG(17))
	if err != nil {
		b.Fatal(err)
	}
	cfg := workflowGoldenConfig(true)
	cfg.Jitter = 0.15
	benchReplay(b, wtr.Stages(), func() error { _, err := RunWorkflows(wtr, cfg, 1); return err })
}
