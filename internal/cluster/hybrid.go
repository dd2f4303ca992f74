// hybrid.go replays traces against a heterogeneous pool (CPU + DSCS
// instances) under a pluggable scheduling policy — the evaluation harness
// for the paper's Section 5.3 scheduling future-work. Both layouts — the
// classic shared queue and the split per-pool backlogs with N CPU pools —
// are topologies on the shared driver.
package cluster

import (
	"fmt"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/trace"
)

// HybridServiceModel returns the expected service times of a benchmark on
// each instance class plus its acceleratable-function count. When a run
// prices tasks with a separate belief (HybridConfig.Estimate or
// AdaptiveEstimates), the Service model is evaluated again at dispatch to
// obtain the true execution time, so it must be a pure function of the
// slug in those regimes.
type HybridServiceModel func(slug string) (cpu, dscs time.Duration, accelFuncs int)

// HybridConfig parameterizes a hybrid run.
type HybridConfig struct {
	CPUInstances, DSCSInstances int
	QueueDepth                  int
	Policy                      sched.Policy
	Service                     HybridServiceModel
	// Jitter scales service times with a lognormal of this sigma.
	Jitter float64
	// SampleEvery sets the telemetry sampling period.
	SampleEvery time.Duration
	// SplitQueues gives each pool its own backlog (serve.MultiCore), the
	// shape of a deployment where requests target the accelerated tier:
	// arrivals land on the DSCS backlog and the CPU side only sees work
	// through spillover or stealing. The default shared queue (false)
	// reproduces the classic runs bit for bit.
	SplitQueues bool
	// CPUPools splits the CPU instances across this many same-class pools
	// (split layout; default 1). With several pools the rebalancing is
	// N-way: spilled arrivals pick the least-loaded CPU pool and idle CPU
	// pools steal from each other as well as from the DSCS backlog.
	CPUPools int
	// AdaptiveBalance arms rebalancing over split backlogs (split layout
	// only): every dispatch records the served task's queue delay into
	// per-pool digests, and work spills at submit time or is stolen at
	// drain time once the donor pool's wait-p95 has diverged above the
	// target's past the hysteresis latch, while arrivals aimed at a dead
	// DSCS pool reroute to the shallowest healthy CPU pool — the
	// serve.MultiCore decisions (BalanceTarget, StealDonor) the live engine
	// runs behind -adaptive-balance, driven here from the virtual clock.
	// Off, the pools stay isolated, as on the engine.
	AdaptiveBalance bool
	// SLO is the per-request latency budget; completions within it count
	// toward HybridStats.WithinSLO (0 disables the tally).
	SLO time.Duration
	// Estimate, when set, is the scheduler's belief about service times:
	// tasks are priced with it while Service still drives actual
	// execution — the regime where an offline profile has drifted from
	// the hardware. Nil prices with Service itself (exact knowledge, the
	// earlier behavior).
	Estimate HybridServiceModel
	// AdaptiveEstimates blends each arrival's pricing toward the observed
	// per-class p50 latency digests (metrics.Observatory), pulling a
	// drifted Estimate back to measurement — the policies' half of the
	// live engine's serve.Options.AdaptiveEstimates, on the virtual clock.
	AdaptiveEstimates bool
	// EstimateWarmup and EstimateWindow tune the digests — estimate and
	// queue-delay alike (defaults metrics.DefaultWarmup /
	// metrics.DefaultWindow).
	EstimateWarmup, EstimateWindow int
	// Elastic arms the worker lifecycle on every pool (split layout
	// only): each pool runs the same serve.Lifecycle state machine as
	// the live engine, driven from the virtual clock, with its own
	// scale.Autoscaler deciding warm capacity. Per pool the lifecycle's
	// Max is that pool's instance count (Elastic.Max is ignored — the
	// CPUInstances/DSCSInstances split already sizes the pools) and Min
	// is Elastic.Min clamped to it. Nil keeps the fixed-capacity replay
	// bit for bit.
	Elastic *scale.Config
	// Faults is the scripted fault schedule (trace.ParseFaultScript),
	// replayed on the virtual clock (split layout only). Pool events target
	// pool names ("dscs", "cpu" or "cpu0".."cpuN-1"); drive events are
	// rejected — this sim models instances, not storage nodes. A pool-down
	// gates the pool's dispatch and cancels its in-flight executions, whose
	// tasks requeue (serve.PoolCore.Requeue); under AdaptiveBalance peers
	// rescue the backlog through the spill/steal machinery, which treats a
	// dead pool as unboundedly slow rather than idle.
	Faults []trace.FaultEvent
	// HedgeFactor arms tail-latency hedging (split layout only): an
	// execution that outlives HedgeFactor x the adopted service-p95 for its
	// benchmark on its class dispatches a duplicate on a healthy peer pool
	// with a free worker (serve.PoolCore.Hedge — borrowed outside the
	// submission ledger); the first completion wins. 0 disables; values
	// below 1 and non-finite ones are rejected (serve.CheckHedgeFactor).
	HedgeFactor float64
}

// HybridStats is the outcome of a hybrid run.
type HybridStats struct {
	Policy    string
	Queue     metrics.Series
	Latency   *metrics.Sample
	Completed int
	Dropped   int
	// OnDSCS counts requests served by DSCS instances.
	OnDSCS int
	// Stolen counts tasks rebalanced between pool backlogs (split layout).
	Stolen int
	// Spilled counts arrivals rerouted to a CPU backlog at submit time.
	Spilled int
	// WithinSLO counts completions whose wall-clock latency fit the SLO
	// budget (0 when HybridConfig.SLO is unset).
	WithinSLO int
	// Served counts completions per pool (split layout; keys "dscs" and
	// "cpu", or "cpu0".."cpuN-1" with several CPU pools).
	Served map[string]int
	// WaitP95 is each pool's windowed queue-delay p95 at the end of the
	// run (split layout) — the signal adaptive balance keys on.
	WaitP95 map[string]time.Duration
	// ColdStarts, Suspends, and IdleCost sum the lifecycle tallies over
	// every pool (split layout with Elastic set): warming transitions
	// paid, slots suspended, and the warm-but-idle capacity integral.
	ColdStarts int
	Suspends   int
	IdleCost   time.Duration
	// Faults counts pool brown-outs applied; Requeued counts in-flight
	// tasks returned to their queue by a brown-out (split layout with
	// Faults).
	Faults, Requeued int
	// HedgesFired counts duplicate dispatches launched; HedgesWon counts
	// the duplicates that finished before their primary (split layout with
	// HedgeFactor).
	HedgesFired, HedgesWon int
	// Stranded counts tasks still queued when the run ends — nonzero only
	// when a fault script leaves a pool dead at the horizon with no rescue
	// path armed.
	Stranded int
}

// observeLatency folds one completion's wall-clock latency into the sample
// and the SLO tally.
func (st *HybridStats) observeLatency(lat, slo time.Duration) {
	st.Latency.Add(lat)
	if slo > 0 && lat <= slo {
		st.WithinSLO++
	}
}

// RunHybrid replays the trace under the configured policy.
func RunHybrid(tr *trace.Trace, cfg HybridConfig, seed uint64) (*HybridStats, error) {
	if cfg.CPUInstances+cfg.DSCSInstances <= 0 || cfg.QueueDepth <= 0 || cfg.Service == nil {
		return nil, fmt.Errorf("cluster: incomplete hybrid config")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 5 * time.Second
	}
	if err := serve.CheckHedgeFactor(cfg.HedgeFactor); err != nil {
		return nil, err
	}
	if cfg.SplitQueues {
		return runSplitHybrid(tr, cfg, seed)
	}
	if cfg.CPUPools > 1 || cfg.AdaptiveBalance || cfg.Elastic != nil || len(cfg.Faults) > 0 || cfg.HedgeFactor != 0 {
		return nil, fmt.Errorf("cluster: CPUPools, AdaptiveBalance, Elastic, Faults and HedgeFactor need SplitQueues")
	}
	return runSharedHybrid(tr, cfg, seed)
}

// hybridPricing is the arrival-pricing state shared by both layouts: the
// static or drifted belief, optionally blended toward observed per-class
// latency digests.
type hybridPricing struct {
	estimate HybridServiceModel
	obs      *metrics.Observatory
	// priced marks the regimes where tasks carry a belief (a drifted
	// Estimate, or a digest blend) rather than the truth; execution must
	// then re-derive the true base from the Service model, which
	// consequently has to be deterministic per slug in those regimes (it
	// is evaluated at both arrival and dispatch). Unpriced runs read the
	// task fields directly — the exact pre-adaptive behavior, one
	// evaluation per request.
	priced bool
}

func newHybridPricing(cfg HybridConfig) *hybridPricing {
	p := &hybridPricing{estimate: cfg.Estimate}
	if p.estimate == nil {
		p.estimate = cfg.Service
	}
	if cfg.AdaptiveEstimates {
		p.obs = metrics.NewObservatory(cfg.EstimateWindow, cfg.EstimateWarmup)
	}
	p.priced = cfg.Estimate != nil || p.obs != nil
	return p
}

// task prices one arrival at now with the scheduler's belief.
func (p *hybridPricing) task(req trace.Request, now time.Duration) sched.HybridTask {
	cpu, dscs, accel := p.estimate(req.Benchmark)
	if p.obs != nil {
		// The policies' pricing blends the belief toward the observed
		// per-class p50 — cold benchmarks keep the prior.
		cpu = p.obs.Blend(req.Benchmark, sched.ClassCPU.String(), cpu)
		dscs = p.obs.Blend(req.Benchmark, sched.ClassDSCS.String(), dscs)
	}
	return sched.HybridTask{
		ID: req.ID, Arrived: now, Payload: req.Benchmark,
		CPUService: cpu, DSCSService: dscs, AccelFuncs: accel,
	}
}

// service samples the actual execution time from the true model — the
// scheduler's belief must not contaminate what really runs.
func (p *hybridPricing) service(cfg HybridConfig, rng *sim.RNG, t *sched.HybridTask, class sched.InstanceClass) time.Duration {
	base := t.Service(class)
	if p.priced {
		cpu, dscs, _ := cfg.Service(t.Payload)
		base = sched.HybridTask{CPUService: cpu, DSCSService: dscs}.Service(class)
	}
	if cfg.Jitter <= 0 {
		return base
	}
	return sim.LogNormal{Median: base, Sigma: cfg.Jitter}.Sample(rng)
}

// observe folds one completion into the estimate digests.
func (p *hybridPricing) observe(payload string, class sched.InstanceClass, elapsed time.Duration) {
	if p.obs != nil {
		p.obs.Record(payload, class.String(), elapsed)
	}
}

func newHybridStats(tr *trace.Trace, cfg HybridConfig) *HybridStats {
	policyName := "fcfs"
	if cfg.Policy != nil {
		policyName = cfg.Policy.Name()
	}
	return &HybridStats{
		Policy:  policyName,
		Queue:   metrics.Series{Name: "queued"},
		Latency: metrics.NewSample(len(tr.Requests)),
	}
}

// runSharedHybrid is the classic layout: one queue, owned by the DSCS pool
// and drained by the CPU pool too (serve.PoolSpec.Backlog), so neither
// class idles while work waits and there is nothing to rebalance. The pump
// fills DSCS workers first (they serve faster), then CPU.
func runSharedHybrid(tr *trace.Trace, cfg HybridConfig, seed uint64) (*HybridStats, error) {
	const dscs, cpu = 0, 1
	specs := []serve.PoolSpec{
		{Name: sched.ClassDSCS.String(), Class: sched.ClassDSCS, Workers: cfg.DSCSInstances,
			QueueDepth: cfg.QueueDepth, Policy: cfg.Policy},
		{Name: sched.ClassCPU.String(), Class: sched.ClassCPU, Workers: cfg.CPUInstances,
			Policy: cfg.Policy, Backlog: sched.ClassDSCS.String()},
	}
	d, err := newDriver(rack{
		pools: specs, order: []int{dscs, cpu},
		sampleEvery: cfg.SampleEvery, horizon: tr.Duration + 2*time.Minute,
	}, seed)
	if err != nil {
		return nil, err
	}
	st := newHybridStats(tr, cfg)
	pricing := newHybridPricing(cfg)
	d.service = func(pool int, lead *sched.HybridTask, _ []sched.HybridTask) time.Duration {
		return pricing.service(cfg, d.rng, lead, specs[pool].Class)
	}
	d.settle = func(pool int, lead *sched.HybridTask, _ []sched.HybridTask, elapsed time.Duration) {
		pricing.observe(lead.Payload, specs[pool].Class, elapsed)
		st.Completed++
		st.observeLatency(d.now()-lead.Arrived, cfg.SLO)
	}
	d.sample = func(at time.Duration) { st.Queue.Add(at, float64(d.mc.QueueLen())) }
	d.arrive = func(i int) { d.submit(dscs, pricing.task(tr.Requests[i], d.now())) }
	if err := d.run(len(tr.Requests), func(i int) time.Duration { return tr.Requests[i].At }); err != nil {
		return nil, err
	}
	st.OnDSCS = d.dispatched[dscs]
	st.Dropped = d.mc.Dropped()
	return st, finishHybrid(tr, st)
}

// runSplitHybrid is the per-pool-backlog topology: one DSCS pool plus
// CPUPools same-class CPU pools. Under AdaptiveBalance they rebalance by
// submit-time spillover and drain-time stealing, keyed by the adopted
// wait-p95 gap between pools; without it they stay isolated.
func runSplitHybrid(tr *trace.Trace, cfg HybridConfig, seed uint64) (*HybridStats, error) {
	cpuPools := cfg.CPUPools
	if cpuPools <= 0 {
		cpuPools = 1
	}
	specs := make([]serve.PoolSpec, 0, cpuPools+1)
	// Dispatch drains the DSCS backlog first (it serves faster), then the
	// CPU pools in order — the shared-queue topology's preference too.
	order := []int{cpuPools}
	for i := 0; i < cpuPools; i++ {
		// CPU instances split as evenly as the count allows, remainder to
		// the earliest pools.
		workers := cfg.CPUInstances / cpuPools
		if i < cfg.CPUInstances%cpuPools {
			workers++
		}
		name := sched.ClassCPU.String()
		if cpuPools > 1 {
			name = fmt.Sprintf("%s%d", sched.ClassCPU, i)
		}
		specs = append(specs, serve.PoolSpec{
			Name: name, Class: sched.ClassCPU, Workers: workers,
			QueueDepth: cfg.QueueDepth, Policy: cfg.Policy,
		})
		order = append(order, i)
	}
	dscsIdx := len(specs)
	specs = append(specs, serve.PoolSpec{
		Name: sched.ClassDSCS.String(), Class: sched.ClassDSCS,
		Workers: cfg.DSCSInstances, QueueDepth: cfg.QueueDepth, Policy: cfg.Policy,
	})
	d, err := newDriver(rack{
		pools: specs, order: order,
		estimateWindow: cfg.EstimateWindow, estimateWarmup: cfg.EstimateWarmup,
		elastic: cfg.Elastic, faults: cfg.Faults,
		sampleEvery: cfg.SampleEvery, horizon: tr.Duration + 2*time.Minute,
	}, seed)
	if err != nil {
		return nil, err
	}
	mc := d.mc
	st := newHybridStats(tr, cfg)
	st.Served = make(map[string]int)
	pricing := newHybridPricing(cfg)

	d.service = func(pool int, lead *sched.HybridTask, _ []sched.HybridTask) time.Duration {
		return pricing.service(cfg, d.rng, lead, specs[pool].Class)
	}
	d.settle = func(pool int, lead *sched.HybridTask, _ []sched.HybridTask, elapsed time.Duration) {
		pricing.observe(lead.Payload, specs[pool].Class, elapsed)
		st.Completed++
		st.Served[specs[pool].Name]++
		st.observeLatency(d.now()-lead.Arrived, cfg.SLO)
	}
	d.sample = func(at time.Duration) { st.Queue.Add(at, float64(mc.QueueLen())) }
	if cfg.HedgeFactor >= 1 {
		// An execution's patience is HedgeFactor x the adopted service-p95
		// for the benchmark on the serving class — the static belief until
		// the estimate digests warm, exactly the pricing the live engine's
		// execHedged applies.
		d.patience = func(pool int, t *sched.HybridTask) time.Duration {
			class := specs[pool].Class
			q := t.Service(class)
			if pricing.obs != nil {
				q = pricing.obs.ServiceQuantile(t.Payload, class.String(), q, 0.95)
			}
			return time.Duration(float64(q) * cfg.HedgeFactor)
		}
	}

	// steal is the pull half of rebalancing: a pool with free instances
	// and an empty backlog drains the deepest peer whose adopted wait-p95
	// gap over it has latched (serve.MultiCore.StealDonor), capped at its
	// free capacity.
	d.rebalance = func() int {
		if !cfg.AdaptiveBalance {
			return 0
		}
		stole := 0
		for to := 0; to < mc.Pools(); to++ {
			thief := mc.Pool(to)
			free := thief.Workers() - thief.Busy()
			// A dead thief never steals: its requeued in-flight work freed
			// workers that cannot dispatch, which would otherwise make the
			// grave look like the hungriest pool in the set.
			if free == 0 || thief.QueueLen() > 0 || !thief.Healthy() {
				continue
			}
			from, ok := mc.StealDonor(to, nil)
			if !ok {
				continue
			}
			stole += len(mc.Steal(from, to, min(free, mc.Pool(from).QueueLen())))
		}
		return stole
	}

	onlyCPU := func(i int) bool { return i != dscsIdx }
	d.arrive = func(i int) {
		task := pricing.task(tr.Requests[i], d.now())
		// Arrivals target the accelerated backlog; under balance the one
		// submit-time decision the live engine's enqueue takes
		// (serve.MultiCore.BalanceTarget) moves them to a CPU backlog.
		idx := dscsIdx
		if cfg.AdaptiveBalance {
			if to, ok := mc.BalanceTarget(dscsIdx, onlyCPU); ok {
				idx = to
			}
		}
		if d.submit(idx, task) && idx != dscsIdx {
			st.Spilled++
		}
	}

	if err := d.run(len(tr.Requests), func(i int) time.Duration { return tr.Requests[i].At }); err != nil {
		return nil, err
	}
	st.OnDSCS = d.dispatched[dscsIdx]
	st.Dropped = mc.Dropped()
	st.Stolen = mc.Stolen()
	st.Faults = mc.Faults()
	st.Requeued = mc.Requeued()
	st.HedgesWon = d.hedgesWon
	st.Stranded = mc.QueueLen()
	st.WaitP95 = make(map[string]time.Duration, mc.Pools())
	for i := 0; i < mc.Pools(); i++ {
		st.WaitP95[specs[i].Name] = mc.WaitQuantileOf(i, serve.WaitQuantile)
		st.HedgesFired += mc.Pool(i).Hedges()
	}
	st.ColdStarts, st.Suspends, st.IdleCost = d.coldStarts, d.suspends, d.idleCost
	return st, finishHybrid(tr, st)
}

// finishHybrid asserts the run lost nothing: every arrival completed, was
// dropped at a queue bound, or — only when a fault script left a pool dead
// at the horizon — is still queued and counted stranded.
func finishHybrid(tr *trace.Trace, st *HybridStats) error {
	if st.Completed+st.Dropped+st.Stranded != len(tr.Requests) {
		return fmt.Errorf("cluster: hybrid lost requests: %d completed + %d dropped + %d stranded != %d arrived",
			st.Completed, st.Dropped, st.Stranded, len(tr.Requests))
	}
	return nil
}
