package experiments

import (
	"fmt"
	"sort"
	"time"

	"dscs/internal/cluster"
	"dscs/internal/csd"
	"dscs/internal/faas"
	"dscs/internal/metrics"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/units"
)

// The extension experiments implement what the paper leaves as future work
// or describes without evaluating: Section 5.3's optimized scheduling
// policies, the keep-warm DSA memory manager with P2P reloads, and
// Section 5.2's parallel execution across multiple CSDs.

// ExtScheduling evaluates the Section 5.3 scheduling hypothesis: over a
// scarce heterogeneous pool, criticality-aware and DAG-aware placement
// beat the deployed FCFS policy.
//
// The three policy replays share nothing and run side by side. Each prices
// tasks from its own copy of one seeded stream, one CPU and one DSCS draw
// per arrival. A RunHybrid replay with no Estimate, AdaptiveEstimates or
// hedging calls its Service model exactly once per arrival, in trace
// order, so every policy sees the same prices for the same arrival: the
// comparison runs on common random numbers.
func ExtScheduling(env *Environment) (*Result, error) {
	// Expected service times per class come from the calibrated runners.
	baseService, err := env.serviceModel(env.Platforms[0].Name())
	if err != nil {
		return nil, err
	}
	dscsService, err := env.serviceModel("DSCS-Serverless")
	if err != nil {
		return nil, err
	}
	priceSeed := env.RNG.Split().Uint64()

	cfg := trace.BurstyConfig{
		Duration: 5 * time.Minute, BaseRate: 170, BurstRate: 260,
		BurstEvery: 90 * time.Second, BurstLength: 25 * time.Second,
	}
	tr, err := trace.Generate(cfg, env.Suite, env.RNG.Split())
	if err != nil {
		return nil, err
	}

	const accel = 2
	policies := [3]sched.Policy{sched.FCFSPolicy{}, sched.CriticalityPolicy{}, sched.DAGAwarePolicy{}}
	var stats [3]*cluster.HybridStats
	err = fanOut(len(policies), func(i int) error {
		rng := sim.NewRNG(priceSeed)
		st, err := cluster.RunHybrid(tr, cluster.HybridConfig{
			CPUInstances: 28, DSCSInstances: 6, QueueDepth: 100000,
			Policy: policies[i], Jitter: 0.15,
			Service: func(slug string) (cpu, dscs time.Duration, accelFuncs int) {
				return baseService(slug, rng), dscsService(slug, rng), accel
			},
		}, env.Seed+7)
		stats[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Extension: scheduling policies over a 28 CPU + 6 DSCS pool",
		"Policy", "Mean latency (ms)", "p99 (ms)", "Served on DSCS")
	values := map[string]float64{}
	for i, policy := range policies {
		st := stats[i]
		mean := float64(st.Latency.Mean()) / float64(time.Millisecond)
		t.AddRow(policy.Name(), mean,
			float64(st.Latency.Percentile(0.99))/float64(time.Millisecond),
			st.OnDSCS)
		values["mean_ms/"+policy.Name()] = mean
	}
	values["criticality_gain"] = values["mean_ms/fcfs"] / values["mean_ms/criticality"]
	values["dag_gain"] = values["mean_ms/fcfs"] / values["mean_ms/dag-aware"]
	return &Result{
		ID: "ext-sched", Title: "Scheduling-policy future work (Section 5.3)",
		Table: t, Values: values,
	}, nil
}

// ExtBatchFormer evaluates the global SLO-aware batch former in the
// Figure 14 regime: under bursty mixed traffic, batching is what lets the
// DSA amortize weight reuse. The queue-level former groups same-benchmark
// arrivals across the whole queue before dispatch, so the same trace
// executes in fewer, fuller batches at a bounded latency cost — the
// serving-layer half of the Fig 14 batch-size sensitivity — and an SLO
// budget caps how long it may hold a group.
func ExtBatchFormer(env *Environment) (*Result, error) {
	dscsService, err := env.serviceModel("DSCS-Serverless")
	if err != nil {
		return nil, err
	}
	cfg := trace.BurstyConfig{
		Duration: 4 * time.Minute, BaseRate: 25, BurstRate: 140,
		BurstEvery: time.Minute, BurstLength: 20 * time.Second,
	}
	tr, err := trace.Generate(cfg, env.Suite, env.RNG.Split())
	if err != nil {
		return nil, err
	}

	// Few instances and a sparse base rate, where holding queued work
	// costs latency, with bursts to exercise full batches.
	base := cluster.Config{
		Instances: 6, QueueDepth: 10000,
		Service: dscsService, SampleEvery: 5 * time.Second,
		MaxBatch: 8, BatchLinger: 400 * time.Millisecond,
	}
	modes := []struct {
		name, key string
		mutate    func(*cluster.Config)
	}{
		{"no batching", "none", func(c *cluster.Config) { c.MaxBatch = 1; c.BatchLinger = 0 }},
		{"global former", "former", func(c *cluster.Config) {}},
		{"global former + SLO", "former_slo", func(c *cluster.Config) { c.BatchSLO = 150 * time.Millisecond }},
	}

	t := metrics.NewTable("Extension: global batch former under the Fig 14 regime (6 instances, bursty trace)",
		"Mode", "Executions", "Req/execution", "Mean latency (ms)", "p99 (ms)", "Dropped")
	values := map[string]float64{}
	// Each mode replays the trace on its own seeded driver, so the three
	// replays run side by side; the rows are built in mode order after.
	stats := make([]*cluster.Stats, len(modes))
	meanMS := make([]float64, len(modes))
	p99MS := make([]float64, len(modes))
	err = fanOut(len(modes), func(i int) error {
		cfg := base
		modes[i].mutate(&cfg)
		st, err := cluster.Run(tr, cfg, env.Seed+31)
		if err != nil {
			return err
		}
		stats[i] = st
		meanMS[i] = float64(st.LatencySample.Mean()) / float64(time.Millisecond)
		p99MS[i] = float64(st.LatencySample.Percentile(0.99)) / float64(time.Millisecond)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		st := stats[i]
		perExec := float64(st.Completed) / float64(st.Batches)
		t.AddRow(m.name, st.Batches, perExec, meanMS[i], p99MS[i], st.Dropped)
		values["executions/"+m.key] = float64(st.Batches)
		values["per_exec/"+m.key] = perExec
		values["mean_ms/"+m.key] = meanMS[i]
		values["p99_ms/"+m.key] = p99MS[i]
		values["formed/"+m.key] = float64(st.Formed)
	}
	// Batching is what makes this load servable at all, and the SLO cap
	// trades amortization for tail latency.
	values["batching_gain"] = values["mean_ms/none"] / values["mean_ms/former"]
	values["slo_p99_gain"] = values["p99_ms/former"] / values["p99_ms/former_slo"]
	return &Result{
		ID: "ext-batchform", Title: "Global SLO-aware batch forming (Fig 14 regime)",
		Table: t, Values: values,
	}, nil
}

// ExtMemcache studies the keep-warm memory manager: a function mix cycling
// through the DSA's DRAM, with P2P flash reloads replacing registry pulls
// (Section 5.3's cold-start mitigation).
func ExtMemcache(env *Environment) (*Result, error) {
	drive, err := csd.New(csd.Default())
	if err != nil {
		return nil, err
	}
	mgr, err := csd.NewMemoryManager(drive, 160*units.MB, nil)
	if err != nil {
		return nil, err
	}
	// Zipf-ish access pattern over the suite's int8 model images, with the
	// largest models the most popular so the DRAM genuinely thrashes.
	images := make([]csd.FunctionImage, 0, len(env.Suite))
	for _, b := range env.Suite {
		images = append(images, csd.FunctionImage{
			Name:  b.Slug,
			Bytes: units.Bytes(b.Model.Params()), // int8: one byte per weight
		})
	}
	sort.Slice(images, func(i, j int) bool { return images[i].Bytes > images[j].Bytes })
	rng := env.RNG.Split()
	var registryTime, flashTime time.Duration
	const accesses = 400
	for i := 0; i < accesses; i++ {
		// Skewed popularity: low indices dominate.
		idx := 0
		for idx < len(images)-1 && rng.Float64() < 0.45 {
			idx++
		}
		lat, _, src, err := mgr.Ensure(images[idx])
		if err != nil {
			return nil, err
		}
		switch src {
		case csd.FromRegistry:
			registryTime += lat
		case csd.FromFlash:
			flashTime += lat
		}
	}
	hits, flashLoads, registryLoads, evictions := mgr.Stats()

	t := metrics.NewTable("Extension: DSA keep-warm memory manager (160 MB DRAM)",
		"Metric", "Value")
	t.AddRow("accesses", accesses)
	t.AddRow("warm hits", hits)
	t.AddRow("P2P flash reloads", flashLoads)
	t.AddRow("registry pulls", registryLoads)
	t.AddRow("evictions", evictions)
	values := map[string]float64{
		"hit_rate":       float64(hits) / accesses,
		"flash_loads":    float64(flashLoads),
		"registry_loads": float64(registryLoads),
		"evictions":      float64(evictions),
	}
	if flashLoads > 0 && registryLoads > 0 {
		avgFlash := flashTime / time.Duration(flashLoads)
		avgRegistry := registryTime / time.Duration(registryLoads)
		t.AddRow("avg P2P reload (ms)", float64(avgFlash)/float64(time.Millisecond))
		t.AddRow("avg registry pull (ms)", float64(avgRegistry)/float64(time.Millisecond))
		values["p2p_vs_registry"] = float64(avgRegistry) / float64(avgFlash)
	}
	return &Result{
		ID: "ext-memcache", Title: "Keep-warm with P2P reloads (Section 5.3)",
		Table: t, Values: values,
	}, nil
}

// ExtScatter sweeps the Section 5.2 multi-CSD option: one large batched
// request executed on one drive versus partitioned across both.
func ExtScatter(env *Environment) (*Result, error) {
	r := env.DSCS()
	t := metrics.NewTable("Extension: multi-CSD scatter/gather (Section 5.2)",
		"Benchmark", "Batch", "One drive (ms)", "Two drives (ms)", "Gain")
	values := map[string]float64{}
	for _, slug := range []string{"ppe-detection", "clinical", "remote-sensing"} {
		b := suiteBySlug(env, slug)
		opt := faas.Options{Quantile: 0.5, Batch: 8}
		single, err := r.Invoke(b, opt)
		if err != nil {
			return nil, err
		}
		scattered, err := r.InvokeScattered(b, opt, 2)
		if err != nil {
			return nil, err
		}
		gain := single.Total().Seconds() / scattered.Total().Seconds()
		t.AddRow(slug, opt.Batch,
			single.Total().Seconds()*1e3, scattered.Total().Seconds()*1e3, gain)
		values["gain/"+slug] = gain
	}
	return &Result{
		ID: "ext-scatter", Title: "Parallel execution across CSDs (Section 5.2)",
		Table: t, Values: values,
	}, nil
}

// ExtFailover exercises the fault-tolerance path: the DSCS drive holding a
// benchmark's data dies mid-service; execution falls back to conventional
// nodes, and re-replication restores both durability and acceleration.
func ExtFailover(env *Environment) (*Result, error) {
	r := env.DSCS()
	b := suiteBySlug(env, "asset-damage")
	opt := faas.Options{Quantile: 0.5}

	before, err := r.Invoke(b, opt)
	if err != nil {
		return nil, err
	}
	node, _, ok := env.Store.DSCSReplicaHealthy(b.Slug + "/input")
	if !ok {
		return nil, fmt.Errorf("ext-failover: no DSCS replica to kill")
	}
	if err := env.Store.FailNode(node.ID); err != nil {
		return nil, err
	}
	during, err := r.Invoke(b, opt) // falls back to conventional execution
	if err != nil {
		return nil, err
	}
	chunks, movedBytes, err := env.Store.ReReplicate(node.ID)
	if err != nil {
		return nil, err
	}
	if err := env.Store.RecoverNode(node.ID); err != nil {
		return nil, err
	}
	after, err := r.Invoke(b, opt)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Extension: DSCS drive failure and recovery (Sections 5.2-5.3)",
		"Phase", "Latency (ms)", "Path")
	t.AddRow("healthy", before.Total().Seconds()*1e3, "in-storage DSA")
	t.AddRow("drive down", during.Total().Seconds()*1e3, "conventional fallback")
	t.AddRow("repaired", after.Total().Seconds()*1e3, "in-storage DSA")
	values := map[string]float64{
		"healthy_ms":       before.Total().Seconds() * 1e3,
		"fallback_ms":      during.Total().Seconds() * 1e3,
		"repaired_ms":      after.Total().Seconds() * 1e3,
		"repaired_chunks":  float64(chunks),
		"repaired_mb":      float64(movedBytes) / 1e6,
		"fallback_penalty": during.Total().Seconds() / before.Total().Seconds(),
	}
	return &Result{
		ID: "ext-failover", Title: "Fail-over and re-replication (Sections 5.2-5.3)",
		Table: t, Values: values,
	}, nil
}
