// workflow.go is the live half of the workflow subsystem: it drives one
// trace.WorkflowSpec through the engine's pools, stage by stage, as the
// graph unlocks. The clock-free DAG bookkeeping lives in
// internal/workflow (the sims drive the same Run from virtual time); this
// file owns only the goroutine fan-out, the objstore I/O between stages,
// and the serve_workflow_* telemetry.
//
// Placement follows the data, by the same workflow.Placer the simulations
// run: a stage whose dominant input has a healthy replica on a DSCS drive
// is at home on a DSCS-class pool — the in-storage platform computes beside
// the replica, so the input never crosses the fabric — falling back to the
// least-priced-wait healthy pool of any class (lowest name on a tie) when
// the home side is busier than a peer or dead. Remote inputs
// pay the store's failover read before the stage submits, and the bytes
// are billed to serve_workflow_fabric_bytes_total either way. Stage
// offsets and fetch latencies are engine-time timers (clock.go's
// afterFunc) around real executions, the instants a sim schedules as
// events; the clock-free graph state lives in internal/workflow.

package serve

import (
	"fmt"
	"sync"
	"time"

	"dscs/internal/faas"
	"dscs/internal/objstore"
	"dscs/internal/trace"
	"dscs/internal/units"
	"dscs/internal/workflow"
	"dscs/internal/workload"
)

// WorkflowStageOutcome reports how one stage settled: the pool that served
// it (empty if it never dispatched), whether placement was local to the
// input's replica, its terminal state, and the error that dropped or
// stranded it.
type WorkflowStageOutcome struct {
	ID       string
	Platform string
	Local    bool
	State    workflow.State
	Err      string
}

// WorkflowResult is one workflow's settled ledger. Completed + Dropped +
// Stranded always equals the stage count — the engine refuses to return a
// workflow that has not fully settled.
type WorkflowResult struct {
	ID        int
	Makespan  time.Duration
	Succeeded bool
	Completed int
	Dropped   int
	Stranded  int
	// LocalStages ran beside a healthy DSCS replica of their dominant
	// input; RemoteStages paid a fabric read. LocalBytes/FabricBytes split
	// the input traffic the same way.
	LocalStages  int
	RemoteStages int
	LocalBytes   units.Bytes
	FabricBytes  units.Bytes
	Stages       []WorkflowStageOutcome
}

// wfDriver is one workflow's in-flight state: the shared Run behind a
// mutex (it is not concurrency-safe), the per-stage outcomes, and the
// byte ledger the result reports.
type wfDriver struct {
	e      *Engine
	run    *workflow.Run
	store  *objstore.Store
	placer workflow.Placer
	bench  []*workload.Benchmark
	opt    faas.Options

	mu       sync.Mutex
	wg       sync.WaitGroup
	outcomes []WorkflowStageOutcome

	localStages, remoteStages int
	localBytes, fabricBytes   units.Bytes
}

// SubmitWorkflow admits one invocation graph and drives it to settlement:
// root stages submit immediately (each root's input object is seeded into
// the store first), every completion writes its output object and unlocks
// the dependents waiting on it, and a refused or failed stage strands its
// downstream closure rather than leak it. The call blocks until every
// stage has settled and returns the full ledger; per-stage scheduler age
// is measured from unlock time, because stages submit only when they
// unlock.
func (e *Engine) SubmitWorkflow(spec *trace.WorkflowSpec, opt faas.Options) (WorkflowResult, error) {
	if spec == nil {
		return WorkflowResult{}, fmt.Errorf("serve: nil workflow spec")
	}
	if err := opt.Validate(); err != nil {
		return WorkflowResult{}, err
	}
	benches := make([]*workload.Benchmark, len(spec.Stages))
	for i, st := range spec.Stages {
		if benches[i] = workload.BySlug(st.Benchmark); benches[i] == nil {
			return WorkflowResult{}, fmt.Errorf("serve: workflow stage %q names unknown benchmark %q", st.ID, st.Benchmark)
		}
	}
	store := e.workflowStore()
	if store == nil {
		return WorkflowResult{}, fmt.Errorf("serve: no pool has an object store")
	}
	run, err := workflow.NewRun(int(e.wfID.Add(1)), e.now(), spec)
	if err != nil {
		return WorkflowResult{}, err
	}
	d := &wfDriver{
		e: e, run: run, store: store, bench: benches, opt: opt,
		outcomes: make([]WorkflowStageOutcome, len(spec.Stages)),
		placer: workflow.Placer{
			Pools:   len(e.order),
			Home:    func(key string) int { return e.homePool(store, key) },
			Healthy: e.healthy, Idle: e.bal.Idle, Wait: e.bal.PricedWait,
		},
	}
	for i, st := range spec.Stages {
		d.outcomes[i] = WorkflowStageOutcome{ID: st.ID, State: workflow.Blocked}
	}
	e.tel.Inc("serve_workflows_total", 1)
	e.tel.Inc("serve_workflow_stages_total", float64(len(spec.Stages)))

	// Seed each root's input object before anything unlocks: the harness
	// invariant is that no stage dispatches before all its input objects
	// exist in the store.
	for _, i := range spec.Roots() {
		if _, _, err := store.PutAt(workflow.InputKey(run.ID(), spec.Stages[i].ID),
			benches[i].InputBytes, true, opt.Quantile); err != nil {
			return WorkflowResult{}, fmt.Errorf("serve: seeding workflow input for stage %q: %w", spec.Stages[i].ID, err)
		}
	}

	d.mu.Lock()
	d.launchLocked(run.Start(e.now()))
	d.mu.Unlock()
	d.wg.Wait()

	if err := run.Conservation(); err != nil {
		return WorkflowResult{}, err
	}
	makespan, settled := run.Makespan()
	if !settled {
		return WorkflowResult{}, fmt.Errorf("serve: workflow %d finished its stages without settling", run.ID())
	}
	e.tel.Inc("serve_workflows_settled_total", 1)
	if run.Succeeded() {
		e.tel.Inc("serve_workflows_completed_total", 1)
	}
	e.wfMakespans.Record(makespan)
	e.tel.SetDuration("serve_workflow_makespan_p50", e.wfMakespans.Quantile(0.50))
	e.tel.SetDuration("serve_workflow_makespan_p95", e.wfMakespans.Quantile(0.95))
	return WorkflowResult{
		ID: run.ID(), Makespan: makespan, Succeeded: run.Succeeded(),
		Completed: run.Completed(), Dropped: run.DroppedCount(), Stranded: run.StrandedCount(),
		LocalStages: d.localStages, RemoteStages: d.remoteStages,
		LocalBytes: d.localBytes, FabricBytes: d.fabricBytes,
		Stages: d.outcomes,
	}, nil
}

// workflowStore picks the object store workflow data lives in — the DSCS
// platform's store when one exists (that is the replica map locality
// consults), any pool's otherwise. In the default environment every
// runner shares one store, so the choice only matters for bespoke tests.
func (e *Engine) workflowStore() *objstore.Store {
	for _, p := range e.dscsPools {
		if p.runner.Store != nil {
			return p.runner.Store
		}
	}
	for _, p := range e.spillCPU {
		if p.runner.Store != nil {
			return p.runner.Store
		}
	}
	return nil
}

// launchLocked schedules each newly unlocked stage at its unlock instant,
// the offset floor. Callers hold d.mu; the unlocked slice is the Run's
// reusable buffer, so indices are captured before the lock is released.
func (d *wfDriver) launchLocked(unlocked []int) {
	for _, i := range unlocked {
		d.outcomes[i].State = workflow.Ready
		d.wg.Add(1)
		afterFunc(d.run.UnlockedAt(i)-d.e.now(), func() { d.stage(i) })
	}
}

// homePool is the placer's replica map: the least-priced healthy DSCS
// pool while the input at key has a healthy replica on a DSCS drive (every
// DSCS pool computes beside the store's drives), -1 otherwise.
func (e *Engine) homePool(store *objstore.Store, key string) int {
	home := -1
	if _, _, ok := store.DSCSReplicaHealthy(key); !ok {
		return home
	}
	var homeWait time.Duration
	for _, c := range e.dscsPools {
		if !e.poolHealthy(c) {
			continue
		}
		if w := e.bal.PricedWait(c.idx); home < 0 || w < homeWait {
			home, homeWait = c.idx, w
		}
	}
	return home
}

// dominantInput returns the largest input object's key — the read worth
// placing against. Sizes come from the store catalog; an input that is
// somehow missing weighs zero (the fetch below will surface the error).
func (d *wfDriver) dominantInput(keys []string) string {
	dom, domSize := keys[0], units.Bytes(-1)
	for _, k := range keys {
		if obj, ok := d.store.Lookup(k); ok && obj.Size > domSize {
			dom, domSize = k, obj.Size
		}
	}
	return dom
}

// stage places one unlocked stage against its dominant input's replica
// and bills its inputs; the submit half runs once the fabric reads for
// remote inputs have completed.
func (d *wfDriver) stage(i int) {
	e := d.e
	keys := d.run.InputKeys(i)
	placed := d.placer.Place(d.dominantInput(keys))
	if placed.Pool < 0 {
		d.settle(i, "", false, fmt.Errorf("no healthy pool"), true)
		d.wg.Done()
		return
	}
	pl, local := e.order[placed.Pool], placed.Local

	// Bill every input: a healthy DSCS replica read by a locally placed
	// stage is served in place, anything else crosses the fabric via the
	// store's failover path before the stage may run.
	var localBytes, fabricBytes units.Bytes
	var fetch time.Duration
	for _, k := range keys {
		size := units.Bytes(0)
		if obj, ok := d.store.Lookup(k); ok {
			size = obj.Size
		}
		if _, _, ok := d.store.DSCSReplicaHealthy(k); ok && local {
			localBytes += size
			continue
		}
		fd, _, err := d.store.GetWithFailover(k, d.opt.Quantile)
		if err != nil {
			d.settle(i, pl.name, local, fmt.Errorf("input %s unreadable: %w", k, err), true)
			d.wg.Done()
			return
		}
		fetch += fd
		fabricBytes += size
	}
	afterFunc(fetch, func() { d.submit(i, pl, local, localBytes, fabricBytes) })
}

// submit runs a placed stage whose inputs have arrived: submit, write the
// output object, unlock dependents.
func (d *wfDriver) submit(i int, pl *pool, local bool, localBytes, fabricBytes units.Bytes) {
	defer d.wg.Done()
	e := d.e
	inflight := e.wfInflight.Add(1)
	e.tel.Set("serve_workflow_stages_inflight", float64(inflight))
	_, err := e.Submit(pl.name, d.bench[i], d.opt)
	inflight = e.wfInflight.Add(-1)
	e.tel.Set("serve_workflow_stages_inflight", float64(inflight))
	if err != nil {
		d.settle(i, pl.name, local, err, false)
		return
	}
	if _, _, err := d.store.PutAt(d.run.OutputKey(i), d.bench[i].IntermediateBytes, true, d.opt.Quantile); err != nil {
		d.settle(i, pl.name, local, fmt.Errorf("writing output: %w", err), true)
		return
	}

	d.mu.Lock()
	if local {
		d.localStages++
		d.localBytes += localBytes
	} else {
		d.remoteStages++
	}
	d.fabricBytes += fabricBytes
	d.outcomes[i].Platform, d.outcomes[i].Local = pl.name, local
	d.outcomes[i].State = workflow.Done
	d.launchLocked(d.run.Complete(i, e.now()))
	d.mu.Unlock()
	if local {
		e.tel.Inc("serve_workflow_stages_local_total", 1)
		e.tel.Inc("serve_workflow_local_bytes_total", float64(localBytes))
	} else {
		e.tel.Inc("serve_workflow_stages_remote_total", 1)
	}
	e.tel.Inc("serve_workflow_fabric_bytes_total", float64(fabricBytes))
	e.tel.Inc("serve_workflow_stages_completed_total", 1)
}

// settle records a stage that did not complete. Stranding (an unreadable
// input, no healthy pool) and dropping (admission refused the submit)
// both cascade: the downstream closure can never assemble its inputs, so
// it settles now instead of leaking.
func (d *wfDriver) settle(i int, platform string, local bool, cause error, strand bool) {
	e := d.e
	d.mu.Lock()
	d.outcomes[i].Platform, d.outcomes[i].Local = platform, local
	d.outcomes[i].Err = cause.Error()
	var n int
	if strand {
		n = d.run.Strand(i, e.now())
		d.outcomes[i].State = workflow.Stranded
		e.tel.Inc("serve_workflow_stages_stranded_total", float64(n))
	} else {
		n = d.run.Drop(i, e.now())
		d.outcomes[i].State = workflow.Dropped
		e.tel.Inc("serve_workflow_stages_dropped_total", 1)
		e.tel.Inc("serve_workflow_stages_stranded_total", float64(n))
	}
	// Mark the cascaded closure in the outcome table so callers see which
	// stages went down with this one.
	if n > 0 {
		for j := range d.outcomes {
			if d.outcomes[j].State != workflow.Stranded && d.run.State(j) == workflow.Stranded {
				d.outcomes[j].State = workflow.Stranded
				d.outcomes[j].Err = "stranded by " + d.run.Stage(i).ID
			}
		}
	}
	d.mu.Unlock()
}

// WorkflowMakespanQuantile reads the engine-wide end-to-end makespan
// digest behind the serve_workflow_makespan_* gauges.
func (e *Engine) WorkflowMakespanQuantile(p float64) time.Duration {
	return e.wfMakespans.Quantile(p)
}
