// Package cluster runs the at-scale discrete-event simulation of
// Section 6.2.2: a rack with a bounded pool of function instances (200 in
// the paper), a 10,000-deep FCFS queue, and a bursty arrival trace. It
// produces the time series of Figure 13: queued functions over time and
// wall-clock request latency for each system.
//
// The simulation drives the same scheduling core as the live serving path
// (serve.PoolCore over sched's bounded queue and pluggable policies), so
// what Figure 13 measures is literally the scheduler the gateway runs —
// only the clock differs: virtual here, wall time there.
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

// ServiceModel returns the end-to-end service time of one request of the
// given benchmark; implementations sample jitter from the provided stream.
type ServiceModel func(slug string, rng *sim.RNG) time.Duration

// Config parameterizes a run.
type Config struct {
	Instances  int
	QueueDepth int
	Service    ServiceModel
	// Policy selects queued work for free instances; nil means the
	// paper's deployed FCFS.
	Policy sched.Policy
	// SampleEvery sets the telemetry sampling period for the series.
	SampleEvery time.Duration
	// MaxBatch coalesces same-benchmark queued requests into one
	// execution, up to this count (0 or 1 disables batching).
	MaxBatch int
	// BatchLinger attaches the queue-level serve.BatchFormer when
	// MaxBatch > 1: same-benchmark arrivals group across the whole queue
	// before any instance dispatches, releasing at MaxBatch, after
	// BatchLinger, or when the oldest member's BatchSLO slack runs out —
	// the live engine's former driven from the virtual clock.
	BatchLinger time.Duration
	// BatchSLO is each request's deadline budget for the former (0 bounds
	// holds by BatchLinger alone), and the budget WithinSLO counts against.
	BatchSLO time.Duration
	// StaticEstimate is the scheduler's static per-benchmark service
	// prior: tasks are priced with it, so the former's BatchSLO slack has
	// a service term (nil leaves tasks unpriced, the earlier behavior).
	StaticEstimate func(slug string) time.Duration
	// AdaptiveEstimates prices the former's BatchSLO slack with live
	// latency digests (observed p95, metrics.Observatory with warmup and
	// hysteresis) instead of StaticEstimate once warmed — the same code
	// the live engine runs with serve.Options.AdaptiveEstimates, driven
	// here from the virtual clock.
	AdaptiveEstimates bool
	// EstimateWarmup and EstimateWindow tune the digests (defaults
	// metrics.DefaultWarmup / metrics.DefaultWindow).
	EstimateWarmup, EstimateWindow int
	// Elastic arms the worker lifecycle: instance capacity floats between
	// Elastic.Min and Elastic.Max (Instances is ignored), warming pays
	// Elastic.ColdStart, idle slots suspend after Elastic.IdleLinger, and
	// Elastic.Mode picks the autoscaler (fixed pools ride the same
	// machinery with Mode scale.ModeFixed, so their idle-capacity cost is
	// measured on the same axis). Nil keeps the classic fixed pool
	// bit-identical. The sim drives the identical serve.Lifecycle the
	// live engine runs, from the virtual clock.
	Elastic *scale.Config
	// Faults is the scripted fault schedule (trace.ParseFaultScript),
	// replayed on the virtual clock. The rack has one pool named "sim", so
	// only pool events targeting it are accepted; drive events are rejected
	// — the Figure 13 rack does not model storage nodes. A pool-down browns
	// the rack out mid-trace: in-flight executions cancel and their tasks
	// requeue (serve.PoolCore.Requeue, at-most-once accounting), the queue
	// keeps admitting, and dispatch resumes on pool-up.
	Faults []trace.FaultEvent
}

// simPlatform keys the simulation's digests: the rack has one simulated
// pool, where the live engine has named platforms.
const simPlatform = "sim"

// PaperConfig returns the paper's at-scale parameters.
func PaperConfig(service ServiceModel) Config {
	return Config{
		Instances:   200,
		QueueDepth:  10000,
		Service:     service,
		SampleEvery: 5 * time.Second,
	}
}

// Stats is the outcome of one run.
type Stats struct {
	Queue   metrics.Series // queued functions over time (Figure 13b)
	Latency metrics.Series // wall-clock latency over time (Figure 13c/d)

	Completed int
	Dropped   int
	// Batches counts executions; with batching enabled it is <= Completed.
	Batches int
	// Formed counts batches released by the queue-level former (0 without
	// Config.BatchLinger).
	Formed int
	// WithinSLO counts completions whose wall-clock latency fit the
	// BatchSLO budget (0 when Config.BatchSLO is unset) — the adaptive-
	// estimation goldens compare it across pricing regimes.
	WithinSLO int
	// LatencySample holds every completed request's wall-clock latency.
	LatencySample *metrics.Sample
	// WaitP50/WaitP95/WaitP99 are the pool's windowed queue-delay
	// quantiles — wait from arrival to dispatch, the signal the engine
	// surfaces as serve_queue_delay_* gauges — at the end of the run.
	WaitP50, WaitP95, WaitP99 time.Duration
	// ColdStarts counts completed warming transitions and Suspends the
	// linger expirations that parked a slot (both 0 without Elastic).
	ColdStarts, Suspends int
	// IdleCost is the integral of (warm - busy) over the run: warm
	// worker-time bought but unused — the cost axis the elastic goldens
	// trade against WithinSLO.
	IdleCost time.Duration
	// Faults counts pool brown-outs applied; Requeued counts in-flight
	// tasks returned to the queue by a brown-out (both 0 without
	// Config.Faults).
	Faults, Requeued int
	// Stranded counts tasks still queued when the run ends — nonzero only
	// when the script leaves the pool dead at the horizon.
	Stranded int
}

// Run replays the trace against the pool and returns the series.
func Run(tr *trace.Trace, cfg Config, seed uint64) (*Stats, error) {
	instances := cfg.Instances
	if cfg.Elastic != nil {
		if err := cfg.Elastic.Validate(); err != nil {
			return nil, err
		}
		instances = cfg.Elastic.Max
	}
	if instances <= 0 || cfg.QueueDepth <= 0 || cfg.Service == nil {
		return nil, fmt.Errorf("cluster: incomplete config")
	}
	// The rack is a one-pool MultiCore: dispatch and coalesce flow through
	// the N-pool core so every served request's queue delay — arrival to
	// dispatch — lands in the same per-pool wait windows the hybrid sim
	// records, read by the same balancer as the engine's.
	d, err := newDriver(rack{
		pools: []serve.PoolSpec{{
			Name: simPlatform, Class: sched.ClassCPU,
			Workers: instances, QueueDepth: cfg.QueueDepth, Policy: cfg.Policy,
		}},
		order:          []int{0},
		estimateWindow: cfg.EstimateWindow, estimateWarmup: cfg.EstimateWarmup,
		elastic: cfg.Elastic, faults: cfg.Faults,
		maxBatch: cfg.MaxBatch, batchLinger: cfg.BatchLinger, batchSLO: cfg.BatchSLO,
		sampleEvery: cfg.SampleEvery, horizon: tr.Duration + 2*time.Minute,
	}, seed)
	if err != nil {
		return nil, err
	}
	mc, former := d.mc, d.formers[0]
	var obs *metrics.Observatory
	if cfg.AdaptiveEstimates {
		obs = metrics.NewObservatory(cfg.EstimateWindow, cfg.EstimateWarmup)
		if former != nil {
			former.SetEstimator(func(payload string, static time.Duration) time.Duration {
				return obs.ServiceQuantile(payload, simPlatform, static, 0.95)
			})
		}
	}
	st := &Stats{
		Queue:         metrics.Series{Name: "queued"},
		Latency:       metrics.Series{Name: "latency_ms"},
		LatencySample: metrics.NewSample(len(tr.Requests)),
	}

	// Latency accumulator per sampling bucket.
	var bucketSum time.Duration
	var bucketN int
	complete := func(t *sched.HybridTask) {
		lat := d.now() - t.Arrived
		st.Completed++
		if cfg.BatchSLO > 0 && lat <= cfg.BatchSLO {
			st.WithinSLO++
		}
		st.LatencySample.Add(lat)
		bucketSum += lat
		bucketN++
	}
	d.service = func(_ int, lead *sched.HybridTask, _ []sched.HybridTask) time.Duration {
		return cfg.Service(lead.Payload, d.rng)
	}
	d.settle = func(_ int, lead *sched.HybridTask, rest []sched.HybridTask, service time.Duration) {
		st.Batches++
		if obs != nil {
			// The digest learns the true service time at completion —
			// the same observe-on-complete the live engine does.
			obs.Record(lead.Payload, simPlatform, service)
		}
		complete(lead)
		for i := range rest {
			complete(&rest[i])
		}
	}
	d.sample = func(at time.Duration) {
		st.Queue.Add(at, float64(mc.QueueLen()))
		if bucketN > 0 {
			st.Latency.Add(at, float64(bucketSum.Milliseconds())/float64(bucketN))
			bucketSum, bucketN = 0, 0
		}
	}

	d.arrive = func(i int) {
		req := tr.Requests[i]
		task := sched.HybridTask{ID: req.ID, Arrived: d.now(), Payload: req.Benchmark}
		if cfg.StaticEstimate != nil {
			// The rack's single simulated pool is CPU-class, so the
			// CPU estimate is the one the former's slack pricing reads.
			task.CPUService = cfg.StaticEstimate(req.Benchmark)
		}
		d.submit(0, task)
	}

	if err := d.run(len(tr.Requests), func(i int) time.Duration { return tr.Requests[i].At }); err != nil {
		return nil, err
	}
	st.Dropped = mc.Dropped()
	if former != nil {
		st.Formed = former.Formed()
	}
	if w := mc.WaitWindow(0); w != nil {
		st.WaitP50 = w.Quantile(0.50)
		st.WaitP95 = w.Quantile(0.95)
		st.WaitP99 = w.Quantile(0.99)
	}
	st.ColdStarts, st.Suspends, st.IdleCost = d.coldStarts, d.suspends, d.idleCost
	st.Faults = mc.Faults()
	st.Requeued = mc.Requeued()
	st.Stranded = mc.QueueLen()
	if st.Completed+st.Dropped+st.Stranded != len(tr.Requests) {
		return nil, fmt.Errorf("cluster: lost requests: %d completed + %d dropped + %d stranded != %d arrived",
			st.Completed, st.Dropped, st.Stranded, len(tr.Requests))
	}
	if st.Stranded > 0 && len(cfg.Faults) == 0 {
		return nil, fmt.Errorf("cluster: %d requests stranded without a fault script", st.Stranded)
	}
	return st, nil
}
