// driver.go is the one event pump behind Run, both RunHybrid layouts and
// RunWorkflows. The four differ in topology — which pools exist, where an
// arrival lands, what an execution costs and what its completion settles —
// and keep only that. The clock, the seeded stream, the serve.MultiCore,
// formers, lifecycles and autoscalers, the fault script with its
// cancel/requeue ledger, hedging, the dispatch loop, the sampler and the
// closing conservation check live here once.
//
// Same-instant events run in scheduling order (sim.Engine), so the order
// in which this file schedules is behaviour: faults, then arrivals (one
// sim.Engine.Arrivals stream, which takes its sequence numbers at the call),
// then the sampler; per execution the hedge timer before the completion;
// service times sampled at dispatch.
//
// Every execution is a record from the driver's free list, so a replay
// allocates nothing per execution. A record's callbacks — completion, hedge
// timer, lender lease — are bound once, when the record is made, and the
// record counts what can still reach it: its pending completion, a pending
// hedge timer or lease, and its inflight slot. It returns to the free list
// only when the last of these lets go, so an event that fires late (the
// completion of a cancelled execution, the lease of a hedge that lost)
// never finds the record serving another execution.
package cluster

import (
	"fmt"
	"time"

	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/trace"
)

// rack is a topology's data: the pool set and the features armed on it.
type rack struct {
	pools []serve.PoolSpec
	// order is the dispatch preference: a pump fills the pools' free
	// workers in this order.
	order []int
	// estimateWindow and estimateWarmup tune the per-pool wait windows.
	estimateWindow, estimateWarmup int
	// elastic makes every staffed pool's capacity elastic
	// (serve.PoolCore.AttachElastic); per pool, Max is the worker count and
	// Min is clamped to it.
	elastic *scale.Config
	faults  []trace.FaultEvent
	// maxBatch > 1 coalesces same-benchmark queued tasks onto a dispatch;
	// a batchLinger beside it also attaches a serve.BatchFormer to every
	// pool, the one way a pool holds work back to batch it — the rule the
	// live engine applies to MaxBatch and BatchLinger.
	maxBatch              int
	batchLinger, batchSLO time.Duration
	// The sampler ticks every sampleEvery across [0, horizon]; the lifecycle
	// tallies close at horizon too, so every configuration's idle cost
	// covers the same span, drain tail included.
	sampleEvery, horizon time.Duration
}

// execution is one dispatched batch's record. pool is the dispatch pool,
// the accounting owner throughout; rest is the record's own copy of the
// coalesced tasks; service is the sampled execution time. done marks a
// completion already credited (by the primary or a winning hedge),
// cancelled a pool-down requeue — the completion event still fires but
// retires nothing.
type execution struct {
	d               *driver
	lead            sched.HybridTask
	rest            []sched.HybridTask
	pool            int
	service         time.Duration
	done, cancelled bool
	// refs counts the pending completion, a pending hedge timer or lender
	// lease, and the inflight slot; at zero the record is free.
	refs int
	// The lease of a launched hedge: the lender pool, its fault count at
	// the launch (a lender that died meanwhile voids the result), and the
	// duplicate's execution time.
	lender, lenderFaults int
	leased               time.Duration
	// fire, hedgeFire and leaseFire are complete, hedgeDue and leaseDone,
	// bound once when the record is made.
	fire, hedgeFire, leaseFire func()
}

// driver owns the clock. The callbacks are the topology's half;
// rebalance, patience and driveFault are optional.
type driver struct {
	rack
	engine  *sim.Engine
	rng     *sim.RNG
	mc      *serve.MultiCore
	formers []*serve.BatchFormer // nil entries: pool dispatches unformed

	// arrive routes arrival i (d.submit); the driver pumps after it.
	arrive func(i int)
	// service samples one execution's duration on pool at dispatch; the
	// lead and the coalesced rest share it.
	service func(pool int, lead *sched.HybridTask, rest []sched.HybridTask) time.Duration
	// settle books a finished execution; pool served it (the lender when a
	// hedge won). It must not retain lead or rest past the call: they are
	// the execution record's.
	settle func(pool int, lead *sched.HybridTask, rest []sched.HybridTask, service time.Duration)
	sample func(at time.Duration)
	// rebalance moves queued work between pools once no pool can dispatch
	// and reports how many tasks moved.
	rebalance func() int
	// patience is how long an execution may run before a duplicate
	// dispatches on a peer; nil disables hedging.
	patience func(pool int, lead *sched.HybridTask) time.Duration
	// driveFault applies a storage-node event; nil rejects them.
	driveFault func(ev trace.FaultEvent)

	// lastWake dedups former wakes per pool: scheduled events are never
	// cancelled, so an instant already armed will fire and re-pump.
	lastWake     []time.Duration
	lastLifeWake time.Duration
	// pumpFire and lifeFire are pump and the lifecycle wake, bound once.
	pumpFire, lifeFire func()

	// free holds the execution records no event can reach any more; lead
	// and rest are dispatch's batch scratch: the core writes the dispatched
	// task straight into lead, and execute copies it into a record once.
	free []*execution
	lead sched.HybridTask
	rest []sched.HybridTask
	// track keeps inflight, the fault and hedge models' executions in
	// dispatch order. live counts executions neither done nor cancelled,
	// peak the most ever live at once; the slice never outgrows peak.
	track      bool
	inflight   []*execution
	live, peak int

	dispatched []int // executions started, per pool
	hedgesWon  int
	// Lifecycle tallies summed over the pools at the horizon: warming
	// transitions paid, slots suspended, the warm-but-idle integral.
	coldStarts, suspends int
	idleCost             time.Duration
}

func newDriver(r rack, seed uint64) (*driver, error) {
	mc, err := serve.NewMultiCore(r.pools)
	if err != nil {
		return nil, err
	}
	mc.SetWaitTuning(r.estimateWindow, r.estimateWarmup)
	if r.sampleEvery <= 0 {
		r.sampleEvery = 5 * time.Second
	}
	d := &driver{
		rack: r, engine: sim.NewEngine(), rng: sim.NewRNG(seed), mc: mc,
		formers:      make([]*serve.BatchFormer, len(r.pools)),
		lastWake:     make([]time.Duration, len(r.pools)),
		dispatched:   make([]int, len(r.pools)),
		lastLifeWake: -1,
	}
	for i := range d.lastWake {
		d.lastWake[i] = -1
	}
	d.pumpFire = d.pump
	d.lifeFire = func() {
		// A lifecycle wake fires at the instant it was armed for.
		if d.lastLifeWake == d.engine.Now() {
			d.lastLifeWake = -1
		}
		d.pump()
	}
	if r.maxBatch > 1 && r.batchLinger > 0 {
		for i, spec := range r.pools {
			d.formers[i] = serve.NewBatchFormer(r.maxBatch, r.batchLinger, r.batchSLO, spec.Class)
			mc.Pool(i).AttachFormer(d.formers[i])
		}
	}
	if r.elastic != nil {
		// The lifecycle the live engine drives with wall-clock timers;
		// here its events are virtual.
		for i := range r.pools {
			pool := mc.Pool(i)
			if pool.Workers() == 0 {
				continue
			}
			ec := *r.elastic
			ec.Max = pool.Workers()
			ec.Min = min(ec.Min, ec.Max)
			if err := pool.AttachElastic(ec, 0); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

func (d *driver) now() time.Duration { return d.engine.Now() }

// at schedules a topology-owned timer on the driver's clock.
func (d *driver) at(t time.Duration, fn func()) { d.engine.At(t, fn) }

// submit admits a task onto a pool's backlog. The autoscaler sees offered
// load (dropped arrivals still describe the demand to warm for); the
// former observes what was admitted.
func (d *driver) submit(pool int, t sched.HybridTask) bool {
	if a := d.mc.Pool(pool).Autoscaler(); a != nil {
		a.ObserveArrival(t.Payload, d.engine.Now())
	}
	if !d.mc.SubmitTo(pool, t) {
		return false
	}
	if f := d.formers[pool]; f != nil {
		f.Observe(t, 1)
	}
	return true
}

// run replays arrivals 0..arrivals-1, drains the clock, closes the
// lifecycle tallies at the horizon and checks the core's ledger.
func (d *driver) run(arrivals int, arrivalAt func(i int) time.Duration) error {
	for _, ev := range d.faults {
		// A drive is the storage node fronting a DSCS pool, where modelled.
		i := d.mc.Index(ev.Target)
		if i < 0 || (!ev.Kind.Pool() && (d.driveFault == nil || d.pools[i].Class != sched.ClassDSCS)) {
			return fmt.Errorf("cluster: fault %q targets no pool or drive of this simulation", ev)
		}
	}
	d.track = len(d.faults) > 0 || d.patience != nil
	for _, ev := range d.faults {
		ev := ev
		d.engine.At(ev.At, func() { d.applyFault(ev) })
	}
	d.engine.Arrivals(arrivals, arrivalAt, func(i int) {
		d.arrive(i)
		d.pump()
	})
	// A tick fires at the instant it was armed for.
	tick := func() { d.sample(d.engine.Now()) }
	for t := time.Duration(0); t <= d.horizon; t += d.sampleEvery {
		d.engine.At(t, tick)
	}
	d.engine.Run()
	for i := 0; i < d.mc.Pools(); i++ {
		p := d.mc.Pool(i)
		if lc := p.Lifecycle(); lc != nil {
			p.AdvanceLifecycle(d.horizon)
			d.coldStarts += lc.ColdStarts()
			d.suspends += lc.Suspends()
			d.idleCost += lc.IdleCost()
		}
	}
	return d.mc.Conservation()
}

// advanceScale is the elastic drive, the engine's advanceElasticLocked on
// the virtual clock: every elastic pool's serve.PoolCore.Rescale (the
// lifecycle advance and the core's per-pool decision gate), then a wake
// armed at the earliest lifecycle self-transition — the live engine's
// lifecycle timer.
func (d *driver) advanceScale() {
	if d.elastic == nil {
		return
	}
	now := d.engine.Now()
	var next time.Duration
	armed := false
	for i := 0; i < d.mc.Pools(); i++ {
		p := d.mc.Pool(i)
		lc := p.Lifecycle()
		if lc == nil {
			continue
		}
		p.Rescale(now, func() time.Duration {
			w, _ := d.mc.WarmedWait(i)
			return w
		})
		if evt, ok := lc.NextEvent(); ok && (!armed || evt < next) {
			next, armed = evt, true
		}
	}
	if armed && next != d.lastLifeWake {
		d.lastLifeWake = next
		d.engine.At(next, d.lifeFire)
	}
}

// pump dispatches until no pool can, then lets the topology rebalance and
// goes again while that moves work.
func (d *driver) pump() {
	d.advanceScale()
	for {
		for _, i := range d.order {
			for d.dispatch(i) {
			}
		}
		if d.rebalance == nil || d.rebalance() == 0 {
			return
		}
	}
}

// dispatch starts one execution on pool i if it has a free worker and
// releasable work. A former releases only due batches (without one
// DispatchFormed is Dispatch); when nothing is due yet an event is armed at
// the earliest due instant — the live engine's timed worker wait.
func (d *driver) dispatch(i int) bool {
	now := d.engine.Now()
	lead := &d.lead
	ok, wake, wakeOK := d.mc.DispatchFormed(i, now, lead)
	if !ok {
		if wakeOK && wake != d.lastWake[i] {
			d.lastWake[i] = wake
			d.engine.At(wake, d.pumpFire)
		}
		return false
	}
	d.dispatched[i]++
	var rest []sched.HybridTask
	if d.maxBatch > 1 {
		payload := lead.Payload
		// Coalesce returns the core's scratch; keep a copy.
		d.rest = append(d.rest[:0], d.mc.Coalesce(i, now, d.maxBatch-1,
			func(t sched.HybridTask) bool { return t.Payload == payload })...)
		rest = d.rest
	}
	d.execute(i, lead, rest)
	return true
}

// execute retires a gathered batch after one service time: the lead's
// sample prices the whole coalesced execution, as on the live engine.
func (d *driver) execute(pool int, lead *sched.HybridTask, rest []sched.HybridTask) {
	service := d.service(pool, lead, rest)
	ex := d.take()
	ex.lead, ex.rest, ex.pool, ex.service = *lead, append(ex.rest, rest...), pool, service
	ex.refs = 1
	if d.live++; d.live > d.peak {
		d.peak = d.live
	}
	if d.track {
		if len(d.inflight) >= d.peak {
			d.compact()
		}
		d.inflight = append(d.inflight, ex)
		ex.refs++
		if d.patience != nil {
			// The sim knows the true service time, so the timer arms only
			// when the primary will outlive its patience; the live engine's
			// fires blind and finds the primary done, same outcome.
			if p := d.patience(pool, &ex.lead); p > 0 && p < service {
				ex.refs++
				d.engine.After(p, ex.hedgeFire)
			}
		}
	}
	d.engine.After(service, ex.fire)
}

// take hands out a free execution record, making one — callbacks bound —
// when none is free.
func (d *driver) take() *execution {
	if n := len(d.free); n > 0 {
		ex := d.free[n-1]
		d.free = d.free[:n-1]
		return ex
	}
	ex := &execution{d: d}
	ex.fire, ex.hedgeFire, ex.leaseFire = ex.complete, ex.hedgeDue, ex.leaseDone
	return ex
}

// release drops one reference to ex and frees the record with the last.
func (d *driver) release(ex *execution) {
	if ex.refs--; ex.refs > 0 {
		return
	}
	ex.rest, ex.done, ex.cancelled = ex.rest[:0], false, false
	d.free = append(d.free, ex)
}

// compact drops finished executions from inflight, keeping dispatch order.
func (d *driver) compact() {
	kept := d.inflight[:0]
	for _, ex := range d.inflight {
		if ex.done || ex.cancelled {
			d.release(ex)
		} else {
			kept = append(kept, ex)
		}
	}
	d.inflight = kept
}

// complete is the primary's completion event.
func (ex *execution) complete() {
	d := ex.d
	if ex.done || ex.cancelled {
		d.release(ex)
		return
	}
	ex.done = true
	d.live--
	d.mc.Complete(ex.pool, 1+len(ex.rest))
	if a := d.mc.Pool(ex.pool).Autoscaler(); a != nil {
		a.ObserveService(ex.lead.Payload, ex.service)
	}
	d.settle(ex.pool, &ex.lead, ex.rest, ex.service)
	d.release(ex)
	d.pump()
}

// hedgeDue is the patience timer: the primary is a straggler.
func (ex *execution) hedgeDue() {
	ex.d.hedge(ex)
	ex.d.release(ex)
}

// hedge duplicates one straggling execution: the first healthy peer with a
// free worker lends it outside the submission ledger
// (serve.PoolCore.Hedge) and races the primary. The dispatch pool stays the
// accounting owner — a winning hedge completes the primary's ledger and
// frees its worker; the loser's event only returns the borrowed one.
func (d *driver) hedge(ex *execution) {
	if ex.done || ex.cancelled {
		return
	}
	for j := 0; j < d.mc.Pools(); j++ {
		if j == ex.pool || !d.mc.Healthy(j) || !d.mc.Pool(j).Hedge() {
			continue
		}
		ex.lender, ex.lenderFaults = j, d.mc.Pool(j).Faults()
		ex.leased = d.service(j, &ex.lead, ex.rest)
		ex.refs++
		d.engine.After(ex.leased, ex.leaseFire)
		return
	}
}

// leaseDone ends a hedge's lease. It runs out on schedule even if the
// lender died mid-hedge; only the result is discarded.
func (ex *execution) leaseDone() {
	d := ex.d
	lender := d.mc.Pool(ex.lender)
	lender.HedgeDone()
	if lender.Faults() == ex.lenderFaults && !ex.done && !ex.cancelled {
		ex.done = true
		d.live--
		d.hedgesWon++
		d.mc.Complete(ex.pool, 1+len(ex.rest))
		d.settle(ex.lender, &ex.lead, ex.rest, ex.leased)
	}
	d.release(ex)
	d.pump()
}

// applyFault drives the scripted schedule. A pool-down cancels the pool's
// in-flight executions (a hedge it lent a worker to notices by the pool's
// fault count): each Requeue frees the worker its dispatch occupied and
// returns its tasks by arrival order — at-most-once, the submission ledger
// never moves — and a former re-observes them at submit weight so their
// groups re-form. A pool-up resumes dispatch over the preserved backlog.
func (d *driver) applyFault(ev trace.FaultEvent) {
	if !ev.Kind.Pool() {
		d.driveFault(ev)
		return
	}
	now := d.engine.Now()
	i := d.mc.Index(ev.Target)
	if ev.Kind == trace.FaultPoolUp {
		d.mc.RecoverPool(i, now)
		d.pump()
		return
	}
	if !d.mc.Healthy(i) {
		return
	}
	d.mc.FailPool(i, now)
	kept := d.inflight[:0]
	for _, ex := range d.inflight {
		switch {
		case ex.done || ex.cancelled:
			d.release(ex)
		case ex.pool != i:
			kept = append(kept, ex)
		default:
			ex.cancelled = true
			d.live--
			tasks := append([]sched.HybridTask{ex.lead}, ex.rest...)
			d.mc.Requeue(i, tasks)
			if f := d.formers[i]; f != nil {
				for _, t := range tasks {
					f.Observe(t, 1)
				}
			}
			d.release(ex)
		}
	}
	d.inflight = kept
	if d.rebalance != nil {
		// Peers steal orphans the moment they exist; without a rebalancer
		// nothing can move before the pool-up.
		d.pump()
	}
}
