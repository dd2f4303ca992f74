// engine.go is the goroutine half of the serving core: the concurrent
// invocation engine behind the gateway. Per-platform worker pools over the
// shared scheduling state machines, admission control on a bounded queue
// with the pluggable policies of internal/sched, request batching
// (coalescing at dispatch, and the queue-level SLO-aware former), two-way
// queue rebalancing (submit-time spillover, drain-time stealing, both on
// the wait-keyed AdaptiveBalance latch), per-drive
// occupancy for DSCS executions, and the latency/wait observatories behind
// the serve_latency_* and serve_queue_delay_* gauges. The discrete-event
// at-scale simulation (internal/cluster) drives the same cores and former
// from its virtual clock, so the simulated rack and the live
// HTTP path share one scheduler implementation. Engine time and every
// timer — each pool's wake timer, quiesce deadlines — come from clock.go.
//
// This file holds the options, the pool and Engine types, construction,
// the accessors and Close; admit.go, worker.go, elastic.go, estimate.go,
// drives.go and fault.go hold the rest by concern.

package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dscs/internal/faas"
	"dscs/internal/metrics"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// Engine errors surfaced to callers (the gateway maps them to HTTP codes).
var (
	// ErrQueueFull is the admission-control rejection: the platform's
	// queue is at its bound.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed reports a submit after Close.
	ErrClosed = errors.New("serve: engine closed")
	// ErrExecutionPanicked wraps a panic inside one execution
	// (Options.Execute or Runner.Invoke): every request of the batch fails
	// with it, and the engine keeps serving.
	ErrExecutionPanicked = errors.New("serve: execution panicked")
)

// DefaultMaxBatch caps request coalescing. Figure 14 shows DSA throughput
// still improving at batch 8 while batch-1 latency stays the common case;
// beyond that the latency cost of waiting outweighs occupancy gains for
// interactive serving.
const DefaultMaxBatch = 8

// Options tune the engine.
type Options struct {
	// Workers is the pool size per platform (0 means 4; negative is an
	// error). With Elastic set it is ignored.
	Workers int
	// Elastic arms the elastic worker lifecycle: each pool's warm capacity
	// floats between Elastic.Min and Elastic.Max, paying Elastic.ColdStart
	// to warm a slot and suspending surplus slots idle for
	// Elastic.IdleLinger, as Elastic.Mode's autoscaler (reactive or
	// predictive; fixed pins Max) directs (PoolCore.AttachElastic). The
	// pool spawns Max goroutines; how many may dispatch at once is the
	// lifecycle's warm count. Nil keeps the classic fixed pool
	// bit-identical.
	Elastic *scale.Config
	// QueueDepth bounds each platform's admission queue (0 means 256;
	// negative is an error).
	QueueDepth int
	// PolicyName selects queued work for free workers by policy name
	// ("fcfs", "criticality", "dag-aware"; see PolicyByName). Empty is
	// FCFS, the paper's deployed policy.
	PolicyName string
	// MaxBatch caps same-benchmark request coalescing per execution
	// (0 means DefaultMaxBatch; 1 disables batching; negative is an error).
	MaxBatch int
	// BatchLinger attaches a queue-level BatchFormer to every pool when
	// MaxBatch > 1: same-benchmark arrivals group across the whole queue
	// before dispatch, and a batch is released once it reaches MaxBatch,
	// its oldest member has waited BatchLinger, or that member's BatchSLO
	// slack is exhausted. The hold counts as queue delay. 0, the default,
	// coalesces only what already queued; negative is an error.
	BatchLinger time.Duration
	// BatchSLO is each request's deadline budget for the former: a forming
	// batch dispatches no later than its oldest member's arrival + BatchSLO
	// - expected service, so occupancy never costs an SLO (0 bounds holds
	// by BatchLinger alone). Setting it without a former, or negative, is
	// an error.
	BatchSLO time.Duration
	// AdaptiveBalance arms queue rebalancing keyed on wait delay: every
	// dispatch records the served request's queue delay (arrival to
	// dispatch) into its pool's wait digest, and work rebalances — DSCS
	// submissions spill to a CPU pool at submit time, an idle worker
	// steals any peer pool's backlog (same class included) at drain time —
	// once the donor's adopted wait-p95 has diverged above the target's
	// past the hysteresis latch (the metrics.Digest.Adopt bands — enter at
	// 1.5x, release within 1.2x, after EstimateWarmup dispatches — over one
	// metrics.Latch per pool pair). A dead pool's backlog moves with no
	// wait evidence at all. Off (the default), the pools stay isolated.
	AdaptiveBalance bool
	// SpilloverTo names the CPU-class pool spilled work lands on. Empty
	// picks among every CPU-class pool per submission.
	SpilloverTo string
	// AdaptiveEstimates prices scheduling decisions with live latency
	// digests (metrics.Observatory, per {benchmark, platform}) instead of
	// the static graph-derived estimate once a benchmark has enough
	// observations on a pool: the former's BatchSLO slack uses the
	// observed p95 (with warmup and hysteresis, Digest.Adopt) and the
	// policies' service estimates blend toward the observed p50. The
	// blends are published by completions at the serve_latency_* gauge
	// cadence, so submission pricing lags the digests by at most one
	// publish interval (1 ms per {benchmark, platform} while completions
	// arrive). The static estimate stays as the cold-start prior.
	AdaptiveEstimates bool
	// EstimateWarmup is the per-{benchmark, platform} completion count
	// below which live digests defer to the static prior (0 means
	// metrics.DefaultWarmup; negative is an error).
	EstimateWarmup int
	// EstimateWindow is each latency digest's sliding window, in
	// observations (0 means metrics.DefaultWindow; negative is an error).
	// The autoscaler's digests take Elastic.Window instead.
	EstimateWindow int
	// Telemetry receives the engine's metrics; pass the gateway's
	// registry to surface them on /metrics (default: a fresh registry).
	Telemetry *sched.Telemetry
	// Execute overrides how a worker runs one coalesced batch. The
	// benchmark's traced run injects a no-op here to measure the scheduling
	// hot path without the simulated execution cost. Nil runs Runner.Invoke.
	Execute func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error)
	// HedgeFactor arms hedged dispatch when >= 1: an execution that has run
	// longer than HedgeFactor x the adopted service-p95 for its benchmark on
	// its pool gets a second dispatch on a healthy peer. The first completion
	// wins; the loser's result is discarded (counted under
	// serve_hedges_fired_total / serve_hedges_won_total). 0 disables.
	HedgeFactor float64
	// Faults schedules fault injection on the engine's live clock: each
	// event fires At after NewEngine returns, killing or recovering the
	// named pool or drive (trace.ParseFaultScript builds the slice from the
	// -fault-script CLI spelling). Targets are validated at construction.
	Faults []trace.FaultEvent
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.EstimateWarmup <= 0 {
		o.EstimateWarmup = metrics.DefaultWarmup
	}
	if o.EstimateWindow <= 0 {
		o.EstimateWindow = metrics.DefaultWindow
	}
	if o.Telemetry == nil {
		o.Telemetry = sched.NewTelemetry()
	}
	return o
}

// checkOptions rejects sizing and batching options the engine would
// otherwise ignore or rewrite into a default. It runs before withDefaults:
// 0 selects a default, a negative is an error; MaxBatch 0 means
// DefaultMaxBatch, so only MaxBatch 1 leaves the former off.
func checkOptions(o Options) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Workers", o.Workers}, {"QueueDepth", o.QueueDepth},
		{"EstimateWarmup", o.EstimateWarmup}, {"EstimateWindow", o.EstimateWindow},
	} {
		if f.v < 0 {
			return fmt.Errorf("serve: %s %d must be >= 0 (0 means the default)", f.name, f.v)
		}
	}
	switch {
	case o.MaxBatch < 0:
		return fmt.Errorf("serve: MaxBatch %d must be >= 0 (0 means %d)", o.MaxBatch, DefaultMaxBatch)
	case o.BatchLinger < 0:
		return fmt.Errorf("serve: BatchLinger %v must be >= 0", o.BatchLinger)
	case o.BatchSLO < 0:
		return fmt.Errorf("serve: BatchSLO %v must be >= 0", o.BatchSLO)
	case o.BatchSLO > 0 && (o.BatchLinger == 0 || o.MaxBatch == 1):
		return fmt.Errorf("serve: BatchSLO %v bounds the batch former, which needs BatchLinger > 0 and MaxBatch > 1", o.BatchSLO)
	}
	return nil
}

// PolicyByName maps a CLI/API policy name to its implementation.
func PolicyByName(name string) (sched.Policy, error) {
	switch name {
	case "", "fcfs":
		return sched.FCFSPolicy{}, nil
	case "criticality":
		return sched.CriticalityPolicy{}, nil
	case "dag-aware", "dag":
		return sched.DAGAwarePolicy{}, nil
	}
	return nil, fmt.Errorf("serve: unknown policy %q (try fcfs, criticality, dag-aware)", name)
}

// PolicyNames lists the accepted PolicyByName inputs.
func PolicyNames() []string { return []string{"fcfs", "criticality", "dag-aware"} }

// Invocation is one served request with its engine-side telemetry.
type Invocation struct {
	Result   faas.Result
	Platform string
	// Queued is the time the request waited for a worker.
	Queued time.Duration
	// BatchRequests counts the requests coalesced into this execution
	// (1 = no batching); BatchSize is the combined model batch executed.
	BatchRequests int
	BatchSize     int
}

// pool is one platform's worker pool: the shared PoolCore plus the
// goroutine machinery the simulator doesn't need.
type pool struct {
	name string
	// idx is the pool's position in Engine.order — its balancer index.
	idx    int
	runner *faas.Runner
	class  sched.InstanceClass

	mu     sync.Mutex
	cond   *sync.Cond
	core   *PoolCore
	closed bool

	// ingress is the sharded staging front of the submit path: submissions
	// stage on a per-P shard (GOMAXPROCS of them) and drain into the pool
	// core in batches, so submitters contend only on their shard. scratch
	// is the drain buffer, reused under p.mu.
	ingress *ingress
	scratch []ingressEntry
	// batches is the free list newBatch takes from and putBatch returns
	// to, under p.mu.
	batches []*batchState
	// parked counts workers in (or entering) cond.Wait. The parked
	// increment and the staged check are sequentially consistent atomics,
	// so either the parking worker sees a staged entry or its submitter
	// sees the parked worker. waking is the pool's one wakeup in flight:
	// of the submitters that see parked > 0, only the one that claims it
	// (takeWake) fences and signals.
	parked atomic.Int32
	waking atomic.Bool

	// deadBit mirrors core.dead for lock-free readers: the submit path's
	// rescue wakeup and the spill/steal scans check health without taking
	// p.mu. Written only under p.mu (FailPool/RecoverPool/Close), so it is
	// always coherent with the core's transitions.
	deadBit atomic.Bool

	// wake is the pool's one timer, armed at the earlier of the
	// lifecycle's next self-transition and a forming group's due instant
	// (wakeAtLocked). wakeAt is the armed instant (engine-clock basis, -1
	// when nothing is armed). Both are guarded by p.mu.
	wake   *time.Timer
	wakeAt time.Duration
	// coldStartsPub tracks how many lifecycle cold starts have been
	// published to the counters (guarded by p.mu).
	coldStartsPub int

	// Pre-resolved telemetry handles: completions and queue mutations touch
	// one atomic store each instead of re-walking the registry map.
	gDepth    sched.GaugeHandle
	gBatchOcc sched.GaugeHandle
	gDelayP50 sched.GaugeHandle
	gDelayP95 sched.GaugeHandle
	gDelayP99 sched.GaugeHandle
	gWorkers  sched.GaugeHandle
	gWarm     sched.GaugeHandle
	gCold     sched.GaugeHandle
	gWarming  sched.GaugeHandle
	cDropped  sched.CounterHandle
	cFormed   sched.CounterHandle
	cColdSt   sched.CounterHandle
	// cSpillTo and cStealFrom hold the directed per-pair flow counters,
	// resolved for every possible peer at construction so the submit and
	// steal paths never build a label string per event (the PR 6 handle
	// discipline; a map read allocates nothing). cSpillTo is keyed by
	// spill target, cStealFrom by donor. A missing key yields the zero
	// handle, whose Inc is a no-op.
	cSpillTo   map[string]sched.CounterHandle
	cStealFrom map[string]sched.CounterHandle
	// wait is the pool's queue-delay window: every dispatch records each
	// served request's arrival→dispatch wait into it (recordWaits), always
	// — it backs the serve_queue_delay_* gauges — and the balancer reads it
	// through the engine's pool view. Nil until the pool's first dispatch
	// and again from its death until its next one.
	wait atomic.Pointer[metrics.Digest]
	// delayPublish is the engine time (nanos) from which the next
	// serve_queue_delay_* gauge refresh may run — the publish rate limit
	// (publishDue). The digests themselves stay exact; only how often their
	// window quantiles are re-read onto /metrics is bounded.
	delayPublish atomic.Int64
	// free mirrors "a warm worker is unoccupied" (core.Busy() <
	// core.Workers()) for the balancer's hasFree, so spill decisions price
	// an idle peer without taking its lock. Written only under p.mu, by
	// syncFree, after every transition that moves either count. It sits
	// here, away from parked, which every submission loads: workers flip
	// it at dispatch and completion, and beside parked each flip would
	// evict the submitters' copy of that line.
	free atomic.Bool
}

// Engine is the concurrent serving core. Safe for concurrent use.
type Engine struct {
	opt   Options
	tel   *sched.Telemetry
	pools map[string]*pool
	// order lists the pools sorted by name (pool.idx indexes it): the
	// numbering the balancer knows them by, so its lowest-index tie-breaks
	// are lowest-name here. spillCPU and dscsPools are the same order
	// filtered by class (the pool set is immutable after construction, so
	// the submit path never rebuilds these).
	order     []*pool
	spillCPU  []*pool
	dscsPools []*pool
	// spillTo is the configured Options.SpilloverTo pool (nil: none named).
	spillTo *pool
	// bal makes the spill/steal decisions Options.AdaptiveBalance keys on
	// the pools' queue-delay windows (pool.wait). The engine is its pool
	// view (healthy, depth, hasFree, and the wait windows).
	bal balancer
	// drives arbitrates DSCS-class executions over the physical drives.
	drives *driveSet
	// estimates memoizes service estimates per benchmark slug. It lives
	// on the engine — a package-level cache would leak one run's pricing
	// into another engine's policies (or a test's redefined slug).
	estimates sync.Map // slug -> *serviceEstimate
	// obs is the latency observatory: per-{benchmark, platform} digests
	// recorded on every completion. Always recording (it backs the
	// serve_latency_* gauges); consumed by pricing only with
	// Options.AdaptiveEstimates.
	obs    *metrics.Observatory
	start  time.Time
	nextID atomic.Int64
	wg     sync.WaitGroup
	once   sync.Once
	// exec runs one coalesced batch (Options.Execute, or Runner.Invoke).
	exec func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error)
	// inflight counts admitted-but-undelivered requests so fire-and-forget
	// callers can drain the engine: Quiesce waits on drained, under
	// drainMu, and quiescers counts those waiters for deliver.
	inflight  atomic.Int64
	quiescers atomic.Int32
	drainMu   sync.Mutex
	drained   *sync.Cond
	// requests are the request free lists, one shard per P (admit.go).
	requests []requestShard
	// latGauges caches the per-{benchmark, platform} latency gauge handles
	// resolved by observe (invalidated by ForgetEstimate, which Unsets the
	// underlying series).
	latGauges sync.Map // latKey -> *latHandles
	// Pre-resolved engine-wide handles for the per-completion counters.
	cSubmitted   sched.CounterHandle
	cCompleted   sched.CounterHandle
	cBatches     sched.CounterHandle
	cBatchedReqs sched.CounterHandle
	cWaitMS      sched.CounterHandle
	cDroppedAll  sched.CounterHandle
	cFormedAll   sched.CounterHandle
	cStealAll    sched.CounterHandle
	cSpillAll    sched.CounterHandle
	cDriveWait   sched.CounterHandle
	cColdAll     sched.CounterHandle
	// Failure-path counters: injected faults, batches returned to their
	// queue by a mid-execution pool death, hedged dispatches fired and won.
	cFaults      sched.CounterHandle
	cRequeues    sched.CounterHandle
	cHedgesFired sched.CounterHandle
	cHedgesWon   sched.CounterHandle
	// faultTimers are the armed Options.Faults injections; Close stops them
	// so a scripted fault never fires into a drained engine.
	faultTimers []*time.Timer
	// Per-drive occupancy handles, indexed like drives.ids.
	driveBusy []sched.GaugeHandle
	driveAcq  []sched.CounterHandle
	// Workflow driver state (workflow.go): the admitted-workflow counter
	// behind object-key namespacing, the stages-in-flight gauge backing,
	// and the end-to-end makespan digest behind serve_workflow_makespan_*.
	wfID        atomic.Int64
	wfInflight  atomic.Int64
	wfMakespans *metrics.Digest
}

// NewEngine builds one worker pool per runner (the platform.All lineup in
// the default environment) and starts its workers.
func NewEngine(runners map[string]*faas.Runner, opt Options) (*Engine, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("serve: no runners")
	}
	policy, err := PolicyByName(opt.PolicyName)
	if err != nil {
		return nil, err
	}
	if err := checkOptions(opt); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if err := CheckHedgeFactor(opt.HedgeFactor); err != nil {
		return nil, err
	}
	e := &Engine{
		opt:   opt,
		tel:   opt.Telemetry,
		pools: make(map[string]*pool, len(runners)),
		obs:   metrics.NewObservatory(opt.EstimateWindow, opt.EstimateWarmup),
		start: wallEpoch(),
	}
	e.drained = sync.NewCond(&e.drainMu)
	e.requests = make([]requestShard, runtime.GOMAXPROCS(0))
	e.wfMakespans = metrics.NewDigest(opt.EstimateWindow)
	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)
	// With the elastic lifecycle every slot gets a goroutine up front; how
	// many may dispatch at once is the lifecycle's warm count, so suspended
	// capacity is a parked goroutine, not a missing one.
	poolWorkers := opt.Workers
	if opt.Elastic != nil {
		poolWorkers = opt.Elastic.Max
	}
	var dscsStores []*objstore.Store
	for idx, name := range names {
		r := runners[name]
		class := classFor(r.Platform)
		core, err := NewPoolCore(poolWorkers, opt.QueueDepth, class, policy)
		if err != nil {
			return nil, err
		}
		p := &pool{name: name, idx: idx, runner: r, class: class, core: core, wakeAt: -1}
		p.cond = sync.NewCond(&p.mu)
		if opt.Elastic != nil {
			if err := core.AttachElastic(*opt.Elastic, e.now()); err != nil {
				return nil, err
			}
		}
		p.ingress = newIngress(runtime.GOMAXPROCS(0), opt.QueueDepth)
		p.gDepth = e.tel.GaugeHandle("serve_queue_depth{platform=" + name + "}")
		e.syncView(p)
		p.gBatchOcc = e.tel.GaugeHandle("serve_batch_occupancy{platform=" + name + "}")
		delay := "{platform=" + name + ",class=" + class.String() + "}"
		p.gDelayP50 = e.tel.GaugeHandle("serve_queue_delay_p50" + delay)
		p.gDelayP95 = e.tel.GaugeHandle("serve_queue_delay_p95" + delay)
		p.gDelayP99 = e.tel.GaugeHandle("serve_queue_delay_p99" + delay)
		p.cDropped = e.tel.CounterHandle("serve_dropped_total{platform=" + name + "}")
		p.cFormed = e.tel.CounterHandle("serve_batch_formed_total{platform=" + name + "}")
		e.pools[name] = p
		e.order = append(e.order, p)
		if class == sched.ClassCPU {
			e.spillCPU = append(e.spillCPU, p)
		} else {
			e.dscsPools = append(e.dscsPools, p)
			if r.Store != nil {
				dscsStores = append(dscsStores, r.Store)
			}
		}
		// serve_workers tracks live warm capacity through a handle — it
		// refreshes on every lifecycle transition instead of being set
		// once at construction (on a fixed pool it is simply constant).
		p.gWorkers = e.tel.GaugeHandle("serve_workers{platform=" + name + "}")
		p.gWorkers.Set(float64(core.Workers()))
		if lc := core.Lifecycle(); lc != nil {
			p.gWarm = e.tel.GaugeHandle("serve_workers_warm{platform=" + name + "}")
			p.gCold = e.tel.GaugeHandle("serve_workers_cold{platform=" + name + "}")
			p.gWarming = e.tel.GaugeHandle("serve_workers_warming{platform=" + name + "}")
			p.cColdSt = e.tel.CounterHandle("serve_cold_starts_total{platform=" + name + "}")
			p.gWarm.Set(float64(lc.Warm()))
			p.gCold.Set(float64(lc.Cold()))
			p.gWarming.Set(float64(lc.Warming()))
		}
	}
	e.bal.init(e, len(names), opt.EstimateWarmup)
	if opt.AdaptiveBalance {
		if opt.SpilloverTo != "" {
			t, ok := e.pools[opt.SpilloverTo]
			if !ok {
				return nil, fmt.Errorf("serve: unknown spillover target %q", opt.SpilloverTo)
			}
			if t.class != sched.ClassCPU {
				return nil, fmt.Errorf("serve: spillover target %q is not a CPU-class pool", opt.SpilloverTo)
			}
			e.spillTo = t
		}
		// Pre-resolve a handle for every directed pair the spill path (DSCS
		// pool → CPU pool) and the steal path (any pool → any other:
		// dead-pool rescue crosses classes) can take, so neither builds a
		// label per moved request. On a lineup with no CPU-class pool
		// nothing spills; same-class pools still steal from each other.
		for _, p := range e.dscsPools {
			p.cSpillTo = make(map[string]sched.CounterHandle, len(e.spillCPU))
			for _, q := range e.spillCPU {
				p.cSpillTo[q.name] = e.tel.CounterHandle("serve_spillover_total{from=" + p.name + ",to=" + q.name + "}")
			}
		}
		for _, p := range e.pools {
			p.cStealFrom = make(map[string]sched.CounterHandle, len(e.pools)-1)
			for _, d := range e.pools {
				if d == p {
					continue
				}
				p.cStealFrom[d.name] = e.tel.CounterHandle("serve_steal_total{from=" + d.name + ",to=" + p.name + "}")
			}
		}
	}
	if opt.MaxBatch > 1 && opt.BatchLinger > 0 {
		for _, p := range e.pools {
			f := NewBatchFormer(opt.MaxBatch, opt.BatchLinger, opt.BatchSLO, p.class)
			if opt.AdaptiveEstimates {
				// The former prices SLO slack with this pool's observed
				// p95 once the digest warms up; the task's static
				// estimate stays the cold-start prior.
				poolName := p.name
				f.SetEstimator(func(payload string, static time.Duration) time.Duration {
					return e.obs.ServiceQuantile(payload, poolName, static, 0.95)
				})
			}
			p.core.AttachFormer(f)
		}
	}
	e.drives = newDriveSet(dscsStores)
	for _, id := range e.drives.ids {
		e.driveBusy = append(e.driveBusy, e.tel.GaugeHandle("serve_drive_busy{drive="+id+"}"))
		e.driveAcq = append(e.driveAcq, e.tel.CounterHandle("serve_drive_acquired_total{drive="+id+"}"))
	}
	// Resolving a handle registers its series, so every engine-wide
	// counter — the armed-feature ones included — shows on /metrics at 0
	// before its first event, as the per-pool gauges above do.
	e.cSubmitted = e.tel.CounterHandle("serve_submitted_total")
	e.cCompleted = e.tel.CounterHandle("serve_completed_total")
	e.cBatches = e.tel.CounterHandle("serve_batches_total")
	e.cBatchedReqs = e.tel.CounterHandle("serve_batched_requests_total")
	e.cWaitMS = e.tel.CounterHandle("serve_wait_ms_total")
	e.cDroppedAll = e.tel.CounterHandle("serve_dropped_total")
	e.cFormedAll = e.tel.CounterHandle("serve_batch_formed_total")
	e.cStealAll = e.tel.CounterHandle("serve_steal_total")
	e.cSpillAll = e.tel.CounterHandle("serve_spillover_total")
	e.cDriveWait = e.tel.CounterHandle("serve_drive_contention_total")
	e.cColdAll = e.tel.CounterHandle("serve_cold_starts_total")
	e.cFaults = e.tel.CounterHandle("serve_faults_total")
	e.cRequeues = e.tel.CounterHandle("serve_requeues_total")
	e.cHedgesFired = e.tel.CounterHandle("serve_hedges_fired_total")
	e.cHedgesWon = e.tel.CounterHandle("serve_hedges_won_total")
	e.exec = opt.Execute
	if e.exec == nil {
		e.exec = func(r *faas.Runner, b *workload.Benchmark, o faas.Options) (faas.Result, error) {
			return r.Invoke(b, o)
		}
	}
	if err := e.validateFaults(opt.Faults); err != nil {
		return nil, err
	}
	for _, p := range e.pools {
		for i := 0; i < poolWorkers; i++ {
			e.wg.Add(1)
			go e.worker(p)
		}
	}
	// Arm the fault script last: an injection must never observe a
	// half-constructed engine.
	for _, ev := range opt.Faults {
		ev := ev
		e.faultTimers = append(e.faultTimers,
			afterFunc(ev.At, func() { e.applyFault(ev) }))
	}
	return e, nil
}

// classFor maps a platform to its scheduling class: the in-storage DSA pool
// is the scarce accelerated capacity the policies steer work toward.
func classFor(c platform.Compute) sched.InstanceClass {
	if c.Class() == platform.InStorageDSA {
		return sched.ClassDSCS
	}
	return sched.ClassCPU
}

// Telemetry returns the engine's metric registry.
func (e *Engine) Telemetry() *sched.Telemetry { return e.tel }

// Platforms lists the pools, sorted.
func (e *Engine) Platforms() []string {
	names := make([]string, len(e.order))
	for i, p := range e.order {
		names[i] = p.name
	}
	return names
}

// Has reports whether a platform pool exists.
func (e *Engine) Has(platformName string) bool {
	_, ok := e.pools[platformName]
	return ok
}

// QueueLen reports one platform's queue occupancy (0 for unknown names).
// Staged ingress entries drain first, so the reader sees the same depth a
// single-queue engine would.
func (e *Engine) QueueLen(platformName string) int {
	p, ok := e.pools[platformName]
	if !ok {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e.drainLocked(p)
	return p.core.QueueLen()
}

// Dropped totals admission rejections across pools: the cores' own counts
// plus offers bounced at the ingress bound.
func (e *Engine) Dropped() int {
	total := 0
	for _, p := range e.pools {
		p.mu.Lock()
		total += p.core.Dropped()
		p.mu.Unlock()
		total += p.ingress.droppedCount()
	}
	return total
}

// Conservation checks every pool's bookkeeping invariant (staged work
// drains first — it is not yet the core's to account).
func (e *Engine) Conservation() error {
	for _, p := range e.pools {
		p.mu.Lock()
		e.drainLocked(p)
		err := p.core.Conservation()
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%s pool: %w", p.name, err)
		}
	}
	return nil
}

// poolDepth reads a pool's total backlog — staged plus queued — in two
// atomic loads, no lock. The spill and steal scans use it so rebalancing
// decisions never serialize on the pool mutexes they are routing around.
func (e *Engine) poolDepth(p *pool) int { return p.ingress.pending() }

// healthy, depth and hasFree are the balancer's view of pool i: three
// lock-free mirrors, each written under p.mu alongside the core transition
// it reflects (deadBit, the ingress depth, the free-slot bit), so no
// balance decision waits on a pool mutex it is routing around. wait reads
// the pool's wait digest, which takes no pool lock either: it loads the
// digest once, so a read racing the pool's death takes both its count and
// its quantile from the forgotten digest or both from none.
func (e *Engine) healthy(i int) bool { return e.poolHealthy(e.order[i]) }
func (e *Engine) depth(i int) int    { return e.poolDepth(e.order[i]) }
func (e *Engine) hasFree(i int) bool { return e.order[i].free.Load() }

func (e *Engine) wait(i int, q float64) (int64, time.Duration) {
	if dg := e.order[i].wait.Load(); dg != nil {
		return dg.Count(), dg.Quantile(q)
	}
	return 0, 0
}

// poolHealthy reads a pool's health bit for the spill/steal/hedge scans
// and the balancer's view. It reads the lock-free mirror: rebalancing
// decisions must not serialize on the pool mutexes they are routing
// around (decision paths holding p.mu read the core directly).
func (e *Engine) poolHealthy(p *pool) bool {
	return !p.deadBit.Load()
}

// Close drains every queue, stops the workers, and fails any submission
// racing the shutdown. Idempotent.
func (e *Engine) Close() {
	e.once.Do(func() {
		// Disarm the fault script first: a scripted kill must not race the
		// drain below (a timer mid-fire holds no pool lock yet, so the
		// closed checks in the fault path make any straggler a no-op).
		for _, t := range e.faultTimers {
			t.Stop()
		}
		for _, p := range e.pools {
			p.mu.Lock()
			p.closed = true
			if p.wake != nil {
				p.wake.Stop()
			}
			if !p.core.Healthy() {
				// A drain outranks a fault: a dead pool's queue must still be
				// served (its tasks carry blocked submitters), so revive the
				// core — like Freeze below, shutdown wins every race.
				p.core.Recover(e.now())
				p.deadBit.Store(false)
			}
			if lc := p.core.Lifecycle(); lc != nil {
				// Drain semantics: queued work must still be served, so
				// suspension stops and warming finishes instantly — a
				// scaled-to-zero pool gets one slot back to empty its
				// queue rather than stranding requests behind cold
				// capacity.
				lc.Freeze(e.now())
				p.core.AdvanceLifecycle(e.now())
			}
			e.syncView(p)
			// Closing the shards (under p.mu, which every drain also
			// holds) leaves no window for a staged entry to strand: offers
			// racing this section either landed in the flush or fail with
			// ErrClosed at their shard.
			flushed := p.ingress.close(p.scratch)
			p.scratch = flushed[:0:0]
			p.cond.Broadcast()
			p.mu.Unlock()
			for i := range flushed {
				e.deliver(flushed[i].req, outcome{err: ErrClosed})
			}
		}
		// Unblock workers waiting for a physical drive; their in-flight
		// executions finish unarbitrated.
		e.drives.close()
		e.wg.Wait()
		// Workers exit only with empty queues, and every queued task carries
		// its request in Ref — once the queues are drained, no request can
		// be left behind, so there is no side table to sweep.
	})
}
