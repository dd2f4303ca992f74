package experiments

import (
	"time"

	"dscs/internal/cluster"
	"dscs/internal/faas"
	"dscs/internal/metrics"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/trace"
)

// serviceModel builds a per-benchmark service-time sampler for a platform:
// the median end-to-end invocation latency with a lognormal jitter
// (sigma 0.2) around it. An unknown slug has a zero median and samples 0.
//
// The medians are kept by suite index and a sample scans the suite's slugs:
// the suite is eight benchmarks, and the scan is cheaper than hashing the
// slug on every one of a replay's hundreds of thousands of samples.
func (e *Environment) serviceModel(platformName string) (cluster.ServiceModel, error) {
	runner := e.Runners[platformName]
	slugs := make([]string, len(e.Suite))
	medians := make([]time.Duration, len(e.Suite))
	for i, b := range e.Suite {
		res, err := runner.Invoke(b, faas.Options{Quantile: 0.5})
		if err != nil {
			return nil, err
		}
		slugs[i], medians[i] = b.Slug, res.Total()
	}
	return func(slug string, rng *sim.RNG) time.Duration {
		var median time.Duration
		for i, s := range slugs {
			if s == slug {
				median = medians[i]
				break
			}
		}
		return sim.LogNormal{Median: median, Sigma: 0.2}.Sample(rng)
	}, nil
}

// Fig13 reproduces the at-scale run: the bursty 20-minute trace against 200
// instances for both the baseline and DSCS-Serverless, producing the input
// rate (a), queued functions (b), and wall-clock latency (c, d) series.
func Fig13(env *Environment) (*Result, error) {
	cfg := trace.PaperTrace()
	tr, err := trace.Generate(cfg, env.Suite, env.RNG.Split())
	if err != nil {
		return nil, err
	}

	baseService, err := env.serviceModel(env.Platforms[0].Name())
	if err != nil {
		return nil, err
	}
	dscsService, err := env.serviceModel("DSCS-Serverless")
	if err != nil {
		return nil, err
	}

	// Both systems replay under the paper's deployed FCFS policy — the
	// same policy implementation the live serving engine dispatches with,
	// driven here by the discrete-event clock instead of worker pools.
	// The two racks are independent replays of one trace, each seeded on
	// its own, so they run side by side along with their reductions.
	services := [2]cluster.ServiceModel{baseService, dscsService}
	var stats [2]*cluster.Stats
	var mean, p99 [2]time.Duration
	var peak [2]float64
	err = fanOut(2, func(i int) error {
		cfg := cluster.PaperConfig(services[i])
		cfg.Policy = sched.FCFSPolicy{}
		st, err := cluster.Run(tr, cfg, env.Seed+101+uint64(i))
		if err != nil {
			return err
		}
		stats[i] = st
		mean[i], p99[i] = st.LatencySample.Mean(), st.LatencySample.Percentile(0.99)
		peak[i] = st.Queue.MaxValue()
		return nil
	})
	if err != nil {
		return nil, err
	}
	baseStats, dscsStats := stats[0], stats[1]

	t := metrics.NewTable("Figure 13: at-scale comparison (200 instances, 20-minute bursty trace)",
		"System", "MeanLatency(ms)", "p99(ms)", "PeakQueue", "Completed", "Dropped")
	for i, name := range []string{"Baseline (CPU)", "DSCS-Serverless"} {
		t.AddRow(name,
			float64(mean[i])/float64(time.Millisecond),
			float64(p99[i])/float64(time.Millisecond),
			peak[i], stats[i].Completed, stats[i].Dropped)
	}

	rate := tr.RateSeries(15 * time.Second)
	rate.Name = "fig13a:requests/s"
	baseStats.Queue.Name = "fig13b:baseline-queued"
	dscsStats.Queue.Name = "fig13b:dscs-queued"
	baseStats.Latency.Name = "fig13c:baseline-latency-ms"
	dscsStats.Latency.Name = "fig13d:dscs-latency-ms"

	values := map[string]float64{
		"trace_requests":        float64(len(tr.Requests)),
		"trace_mean_rate":       tr.MeanRate(),
		"trace_peak_rate":       rate.MaxValue(),
		"baseline_mean_ms":      float64(mean[0]) / 1e6,
		"dscs_mean_ms":          float64(mean[1]) / 1e6,
		"baseline_peak_queue":   peak[0],
		"dscs_peak_queue":       peak[1],
		"baseline_dropped":      float64(baseStats.Dropped),
		"dscs_dropped":          float64(dscsStats.Dropped),
		"wallclock_improvement": float64(mean[0]) / float64(mean[1]),
	}
	return &Result{
		ID: "fig13", Title: "At-scale wall-clock latency and queueing",
		Table:  t,
		Values: values,
		Series: []*metrics.Series{rate, &baseStats.Queue, &dscsStats.Queue,
			&baseStats.Latency, &dscsStats.Latency},
	}, nil
}
