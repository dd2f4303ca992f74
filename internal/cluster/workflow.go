// workflow.go replays workflow traces — invocation DAGs whose stage
// outputs become stage inputs as object-store objects — against the same
// serve core the request sims drive. Each DSCS drive fronts its own pool
// (the in-storage DSA is the drive's compute), an optional CPU tier
// mirrors the hybrid rack, and a real objstore.Store holds every
// inter-stage object, so placement decisions read the actual replica map:
// a stage scheduled on the drive holding its input reads through the
// drive's internal path; any other placement pays the fabric. One entry
// point covers both evaluation shapes — CPUInstances=0 is the
// drives-only rack of the Figure 13 regime, CPUInstances>0 the CPU+DSCS
// split of Figure 14 — and a Locality toggle swaps the placement policy
// between the replica-map-aware placer and a blind rotation, which is the
// comparison the locality goldens pin.
package cluster

import (
	"fmt"
	"time"

	"dscs/internal/csd"
	"dscs/internal/metrics"
	"dscs/internal/objstore"
	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/trace"
	"dscs/internal/units"
	"dscs/internal/workflow"
	"dscs/internal/workload"
)

// cpuPool names the optional CPU tier's pool in fault scripts and specs.
const cpuPool = "cpu"

// WorkflowSimConfig parameterizes RunWorkflows.
type WorkflowSimConfig struct {
	// Drives is the DSCS drive count; drive i fronts pool "drive<i>" with
	// WorkersPerDrive executors (the in-storage DSAs).
	Drives, WorkersPerDrive int
	// CPUInstances staffs the "cpu" fallback pool; 0 omits the tier
	// entirely (the drives-only rack regime).
	CPUInstances int
	// QueueDepth bounds each pool's admission queue.
	QueueDepth int
	// Service is the per-benchmark execution-time model (cpu, dscs); input
	// fetches and output writes are priced by the object store on top.
	Service HybridServiceModel
	// Jitter is the lognormal sigma on sampled service times (0 keeps the
	// model exact — the goldens' determinism lever).
	Jitter float64
	// Locality picks stage placement: true consults the replica map and
	// falls back to least-priced wait (workflow.Placer); false rotates
	// blindly across pools (workflow.RoundRobin).
	Locality bool
	// MaxBatch arms inter-stage batching: same-benchmark stages queued on
	// one pool — parallel fan-out shards especially — coalesce onto one
	// dispatch up to this count (0 or 1 disables).
	MaxBatch int
	// BatchLinger attaches a per-pool serve.BatchFormer when MaxBatch > 1,
	// the live engine's rule: stages landing together group across the
	// queue and release at MaxBatch, after BatchLinger, or when BatchSLO's
	// slack runs out. 0 coalesces only what already queued.
	BatchLinger, BatchSLO time.Duration
	// SampleEvery sets the queue-occupancy sampling period.
	SampleEvery time.Duration
	// MakespanSLO tallies workflows whose end-to-end makespan fit the
	// budget (0 disables the tally).
	MakespanSLO time.Duration
	// Faults is the scripted fault schedule: pool events target "drive<i>"
	// or "cpu" (workers stop; the queue survives), drive events target
	// node "drive<i>" in the object store (replicas fail over and the
	// locality placer routes around the hole). The two are orthogonal, as
	// on the live engine.
	Faults []trace.FaultEvent
}

// WorkflowStats is the outcome of one workflow replay.
type WorkflowStats struct {
	// Workflows counts admitted graphs; Settled those whose every stage
	// reached a terminal state; Succeeded those that completed every stage.
	Workflows, WorkflowsSettled, WorkflowsSucceeded int
	// Stage ledger: every admitted stage settles as exactly one of these.
	Stages, StagesCompleted, StagesDropped, StagesStranded int
	// LocalStages ran on the drive holding their (dominant) input;
	// RemoteStages paid the fabric for it.
	LocalStages, RemoteStages int
	// LocalBytes were served through a drive's internal path; FabricBytes
	// moved over the network to feed stages. Their split is the locality
	// win the goldens pin.
	LocalBytes, FabricBytes units.Bytes
	// Batches counts executions (<= StagesCompleted with batching on);
	// Formed counts batches the queue-level formers released.
	Batches, Formed int
	// MakespanSample holds every succeeded workflow's end-to-end span.
	MakespanSample           *metrics.Sample
	MakespanP50, MakespanP95 time.Duration
	// WithinSLO counts succeeded workflows inside MakespanSLO.
	WithinSLO int
	// Faults counts applied fault events; Requeued the in-flight tasks a
	// pool kill returned to its queue; FetchFailures the stages stranded
	// because no healthy replica of an input survived.
	Faults, Requeued, FetchFailures int
	// Queue is total queued stages over time.
	Queue metrics.Series
}

// workflowStore builds the replay's object store: one DSCS node per drive
// (IDs matching the pool names) plus two plain-SSD replica targets.
func workflowStore(drives int, seed uint64) (*objstore.Store, error) {
	var nodes []*objstore.Node
	for i := 0; i < drives; i++ {
		d, err := csd.New(csd.Default())
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("drive%d", i), Kind: objstore.DSCSDrive, CSD: d,
		})
	}
	for i := 0; i < 2; i++ {
		d, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("ssd-%d", i), Kind: objstore.PlainSSD, SSD: d,
		})
	}
	return objstore.New(objstore.Default(), nodes, sim.NewRNG(seed))
}

// wfState wraps one workflow's graph state with its replay bookkeeping.
type wfState struct {
	run     *workflow.Run
	counted bool
}

// wfStageRef rides each stage task's Ref: which run and stage the task is,
// and the I/O bill priced at submission.
type wfStageRef struct {
	ws    *wfState
	idx   int
	bench *workload.Benchmark
	fetch time.Duration // summed remote-input fetch time
}

// RunWorkflows replays the workflow trace and returns the stats. The
// deterministic levers are the ones the request sims use: a seeded RNG for
// jitter, and every object-store transfer priced at the q=0.5 analytic
// quantile (no RNG draws), so a Jitter=0 run is exactly reproducible.
func RunWorkflows(wtr *trace.WorkflowTrace, cfg WorkflowSimConfig, seed uint64) (*WorkflowStats, error) {
	if wtr == nil || len(wtr.Workflows) == 0 {
		return nil, fmt.Errorf("cluster: empty workflow trace")
	}
	if cfg.Drives <= 0 || cfg.WorkersPerDrive <= 0 || cfg.QueueDepth <= 0 || cfg.Service == nil {
		return nil, fmt.Errorf("cluster: incomplete workflow config")
	}

	// Pools: one per drive, plus the optional CPU tier.
	specs := make([]serve.PoolSpec, 0, cfg.Drives+1)
	for i := 0; i < cfg.Drives; i++ {
		specs = append(specs, serve.PoolSpec{
			Name: fmt.Sprintf("drive%d", i), Class: sched.ClassDSCS,
			Workers: cfg.WorkersPerDrive, QueueDepth: cfg.QueueDepth,
			Policy: sched.CriticalityPolicy{},
		})
	}
	if cfg.CPUInstances > 0 {
		specs = append(specs, serve.PoolSpec{
			Name: cpuPool, Class: sched.ClassCPU,
			Workers: cfg.CPUInstances, QueueDepth: cfg.QueueDepth,
			Policy: sched.CriticalityPolicy{},
		})
	}
	pools := len(specs)
	order := make([]int, pools)
	for i := range order {
		order[i] = i
	}
	// Inter-stage batching is a queue-level former per pool, so parallel
	// fan-out shards landing together release as one execution.
	d, err := newDriver(rack{
		pools: specs, order: order, faults: cfg.Faults,
		maxBatch: cfg.MaxBatch, batchLinger: cfg.BatchLinger, batchSLO: cfg.BatchSLO,
		sampleEvery: cfg.SampleEvery, horizon: wtr.Duration + 2*time.Minute,
	}, seed)
	if err != nil {
		return nil, err
	}
	mc := d.mc
	store, err := workflowStore(cfg.Drives, seed+1)
	if err != nil {
		return nil, err
	}

	// The two placement policies under comparison.
	placer := &workflow.Placer{
		Pools: pools,
		Home: func(key string) int {
			// Drive nodes carry their pool's name.
			if node, _, ok := store.DSCSReplicaHealthy(key); ok {
				return mc.Index(node.ID)
			}
			return -1
		},
		Healthy: mc.Healthy,
		Idle:    mc.Idle,
		Wait:    mc.PricedWait,
	}
	blind := &workflow.RoundRobin{Pools: pools, Healthy: mc.Healthy}

	st := &WorkflowStats{
		Workflows: len(wtr.Workflows),
		Stages:    wtr.Stages(),
		Queue:     metrics.Series{Name: "queued_stages"},
	}

	noteSettled := func(ws *wfState) {
		if ws.counted || !ws.run.Settled() {
			return
		}
		ws.counted = true
		st.WorkflowsSettled++
		if !ws.run.Succeeded() {
			return
		}
		st.WorkflowsSucceeded++
		if ms, ok := ws.run.Makespan(); ok {
			d.record = append(d.record, ms)
			if cfg.MakespanSLO > 0 && ms <= cfg.MakespanSLO {
				st.WithinSLO++
			}
		}
	}

	nextTaskID := 0
	submitStage := func(ws *wfState, idx int) {
		now := d.now()
		stage := ws.run.Stage(idx)
		ref := &wfStageRef{ws: ws, idx: idx, bench: workload.BySlug(stage.Benchmark)}
		inputs := ws.run.InputKeys(idx)
		// Place by the dominant input: the biggest object is the one worth
		// staying next to. Fan-in side inputs are billed individually below.
		domKey, domSize := "", units.Bytes(-1)
		for _, key := range inputs {
			if obj, ok := store.Lookup(key); ok && obj.Size > domSize {
				domKey, domSize = key, obj.Size
			}
		}
		var pl workflow.Placement
		if cfg.Locality {
			pl = placer.Place(domKey)
		} else {
			pl = blind.Place()
		}
		pool := pl.Pool
		if pool < 0 {
			// No healthy pool: queues are durable, so admit on pool 0 and
			// let dispatch resume on recovery.
			pool = 0
		}
		// Bill each input: served local if this pool's drive holds its
		// healthy DSCS replica, fetched over the fabric otherwise.
		local := false
		for _, key := range inputs {
			obj, ok := store.Lookup(key)
			if ok && placer.Home(key) == pool {
				st.LocalBytes += obj.Size
				if key == domKey {
					local = true
				}
				continue
			}
			fetch, _, err := store.GetAt(key, 0.5)
			if err != nil {
				// No healthy replica anywhere: the stage can never
				// assemble its input, so it strands (and cascades).
				st.FetchFailures++
				st.StagesStranded += ws.run.Strand(idx, now)
				noteSettled(ws)
				return
			}
			ref.fetch += fetch
			if ok {
				st.FabricBytes += obj.Size
			}
		}
		if local {
			st.LocalStages++
		} else {
			st.RemoteStages++
		}
		cpu, dscs, _ := cfg.Service(stage.Benchmark)
		task := sched.HybridTask{
			ID: nextTaskID, Arrived: ws.run.UnlockedAt(idx),
			Payload: stage.Benchmark, CPUService: cpu, DSCSService: dscs,
			Ref: ref,
		}
		nextTaskID++
		if !d.submit(pool, task) {
			st.StagesDropped++
			st.StagesStranded += ws.run.Drop(idx, now)
			noteSettled(ws)
		}
	}

	// unlock submits a newly unlocked stage, honoring its offset floor.
	unlock := func(ws *wfState, idx int) {
		at := ws.run.UnlockedAt(idx)
		if at > d.now() {
			d.at(at, func() {
				submitStage(ws, idx)
				d.pump()
			})
			return
		}
		submitStage(ws, idx)
	}

	d.service = func(pool int, lead *sched.HybridTask, rest []sched.HybridTask) time.Duration {
		service := lead.Service(specs[pool].Class)
		if cfg.Jitter > 0 {
			service = sim.LogNormal{Median: service, Sigma: cfg.Jitter}.Sample(d.rng)
		}
		// The batch shares one execution (that is the point of batching);
		// each member's remote-input fetches serialize on top of it.
		service += lead.Ref.(*wfStageRef).fetch
		for _, t := range rest {
			service += t.Ref.(*wfStageRef).fetch
		}
		return service
	}
	// written retires one stage: it writes its output object — the replica
	// map now says where its dependents belong (the q=0.5 write draws no
	// RNG) — and once that lands, completes the stage and feeds the unlock
	// path. A refused write (an empty output) takes no time: PutAt reports
	// zero latency with every error.
	written := func(t *sched.HybridTask) {
		ref := t.Ref.(*wfStageRef)
		putD, _, _ := store.PutAt(ref.ws.run.OutputKey(ref.idx),
			ref.bench.IntermediateBytes, true, 0.5)
		d.at(d.now()+putD, func() {
			st.StagesCompleted++
			for _, j := range ref.ws.run.Complete(ref.idx, d.now()) {
				unlock(ref.ws, j)
			}
			noteSettled(ref.ws)
			d.pump()
		})
	}
	d.settle = func(_ int, lead *sched.HybridTask, rest []sched.HybridTask, _ time.Duration) {
		st.Batches++
		written(lead)
		for i := range rest {
			written(&rest[i])
		}
	}
	d.sample = func(int) { st.Queue.Add(d.now(), float64(mc.QueueLen())) }
	// A drive event reshapes the replica map under the locality placer's
	// feet; pool events are the driver's, and the two are orthogonal.
	d.driveFault = func(ev trace.FaultEvent) {
		if ev.Kind == trace.FaultDriveDown {
			if store.FailNode(ev.Target) == nil {
				store.ReReplicate(ev.Target)
			}
		} else {
			store.RecoverNode(ev.Target)
		}
	}

	// Admit the trace: each arrival seeds its root input objects (the
	// caller's upload, out of band) and unlocks the roots.
	states := make([]*wfState, 0, len(wtr.Workflows))
	var admitErr error
	for _, w := range wtr.Workflows {
		run, err := workflow.NewRun(w.ID, w.At, w.Spec)
		if err != nil {
			return nil, err
		}
		for _, st := range w.Spec.Stages {
			if workload.BySlug(st.Benchmark) == nil {
				return nil, fmt.Errorf("cluster: workflow %d stage %q runs unknown benchmark %q",
					w.ID, st.ID, st.Benchmark)
			}
		}
		states = append(states, &wfState{run: run})
	}
	d.arrive = func(i int) {
		ws := states[i]
		for _, i := range ws.run.Spec().Roots() {
			b := workload.BySlug(ws.run.Stage(i).Benchmark)
			if _, _, err := store.PutAt(workflow.InputKey(ws.run.ID(), ws.run.Stage(i).ID),
				b.InputBytes, true, 0.5); err != nil && admitErr == nil {
				admitErr = err
			}
		}
		for _, i := range ws.run.Start(d.now()) {
			unlock(ws, i)
		}
	}

	err = d.run(len(states), func(i int) time.Duration { return wtr.Workflows[i].At })
	if admitErr != nil {
		return nil, admitErr
	}
	if err != nil {
		return nil, err
	}

	// Close out: whatever the horizon cut off strands, then the ledgers
	// must balance — per workflow and across the pool set (the driver
	// checked the latter).
	now := d.now()
	for _, ws := range states {
		st.StagesStranded += ws.run.StrandRemaining(now)
		noteSettled(ws)
		if err := ws.run.Conservation(); err != nil {
			return nil, err
		}
		if !ws.run.Settled() {
			return nil, fmt.Errorf("cluster: workflow %d never settled", ws.run.ID())
		}
	}
	if got := st.StagesCompleted + st.StagesDropped + st.StagesStranded; got != st.Stages {
		return nil, fmt.Errorf("cluster: workflow stage ledger leaks: %d completed + %d dropped + %d stranded != %d admitted",
			st.StagesCompleted, st.StagesDropped, st.StagesStranded, st.Stages)
	}
	// Every scripted event fires before the clock drains.
	st.Faults, st.Requeued = len(cfg.Faults), mc.Requeued()
	for _, f := range d.formers {
		if f != nil {
			st.Formed += f.Formed()
		}
	}
	st.MakespanSample = metrics.SampleOf(d.record)
	st.MakespanP50 = st.MakespanSample.Percentile(0.50)
	st.MakespanP95 = st.MakespanSample.Percentile(0.95)
	return st, nil
}
