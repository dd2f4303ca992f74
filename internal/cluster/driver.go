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
	// estimateWindow and estimateWarmup tune the per-pool wait digests.
	estimateWindow, estimateWarmup int
	// elastic gives every staffed pool a serve.Lifecycle and an autoscaler;
	// per pool, Max is the worker count and Min is clamped to it.
	elastic *scale.Config
	faults  []trace.FaultEvent
	// maxBatch > 1 coalesces same-benchmark queued tasks onto a dispatch;
	// formBatches also attaches a serve.BatchFormer to every pool.
	maxBatch              int
	formBatches           bool
	batchLinger, batchSLO time.Duration
	// The sampler ticks every sampleEvery across [0, horizon]; the lifecycle
	// tallies close at horizon too, so every configuration's idle cost
	// covers the same span, drain tail included.
	sampleEvery, horizon time.Duration
}

// execution is one in-flight dispatch under the fault and hedge models,
// allocated only when one of them is armed. pool is the dispatch pool, the
// accounting owner throughout. done marks a completion already credited
// (by the primary or a winning hedge), cancelled a pool-down requeue — the
// completion event still fires but retires nothing.
type execution struct {
	lead            sched.HybridTask
	rest            []sched.HybridTask
	pool            int
	done, cancelled bool
}

// driver owns the clock. The callbacks are the topology's half; hold,
// poolDown, rebalance, patience and driveFault are optional.
type driver struct {
	rack
	engine  *sim.Engine
	rng     *sim.RNG
	mc      *serve.MultiCore
	formers []*serve.BatchFormer // nil entries: pool dispatches unformed
	ascs    []*scale.Autoscaler  // nil entries: fixed capacity (no elastic, or an unstaffed pool)

	// arrive routes arrival i (d.submit); the driver pumps after it.
	arrive func(i int)
	// service samples one execution's duration on pool at dispatch; the
	// lead and the coalesced rest share it.
	service func(pool int, lead sched.HybridTask, rest []sched.HybridTask) time.Duration
	// settle books a finished execution; pool served it (the lender when a
	// hedge won).
	settle func(pool int, lead sched.HybridTask, rest []sched.HybridTask, service time.Duration)
	sample func(at time.Duration)
	// hold may keep a dispatched batch open instead of executing it now
	// (the per-dispatch linger window); it then owes d.execute.
	hold func(pool int, lead sched.HybridTask, rest []sched.HybridTask) bool
	// poolDown runs after a pool browns out, before its executions requeue.
	poolDown func(pool int)
	// rebalance moves queued work between pools once no pool can dispatch
	// and reports how many tasks moved.
	rebalance func() int
	// patience is how long an execution may run before a duplicate
	// dispatches on a peer; nil disables hedging.
	patience func(pool int, lead sched.HybridTask) time.Duration
	// driveFault applies a storage-node event; nil rejects them.
	driveFault func(ev trace.FaultEvent)

	// lastWake dedups former wakes per pool: scheduled events are never
	// cancelled, so an instant already armed will fire and re-pump.
	lastWake                 []time.Duration
	lastLifeWake, lastDecide time.Duration

	track    bool
	inflight []*execution

	dispatched []int // executions started, per pool
	hedgesWon  int
	// Lifecycle tallies summed over the pools at the horizon: warming
	// transitions paid, slots suspended, the warm-but-idle integral.
	coldStarts, suspends int
	idleCost             time.Duration
}

// scaleInterval rate-limits autoscaler decisions like the live engine's
// (the digest quantile reads are not per-event work).
const scaleInterval = 100 * time.Millisecond

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
		ascs:         make([]*scale.Autoscaler, len(r.pools)),
		lastWake:     make([]time.Duration, len(r.pools)),
		dispatched:   make([]int, len(r.pools)),
		lastLifeWake: -1, lastDecide: -1,
	}
	for i := range d.lastWake {
		d.lastWake[i] = -1
	}
	if r.formBatches && r.maxBatch > 1 {
		for i, spec := range r.pools {
			d.formers[i] = serve.NewBatchFormer(r.maxBatch, r.batchLinger, r.batchSLO, spec.Class)
			mc.Pool(i).AttachFormer(d.formers[i])
		}
	}
	if r.elastic != nil {
		if err := d.attachLifecycles(*r.elastic); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// attachLifecycles arms the serve.Lifecycle the live engine drives with
// wall-clock timers — here its events are virtual.
func (d *driver) attachLifecycles(base scale.Config) error {
	for i := range d.ascs {
		pool := d.mc.Pool(i)
		if pool.Workers() == 0 {
			continue
		}
		ec := base
		ec.Max = pool.Workers()
		if ec.Min > ec.Max {
			ec.Min = ec.Max
		}
		if err := ec.Validate(); err != nil {
			return err
		}
		initial := ec.Min
		if ec.Mode == scale.ModeFixed {
			initial = ec.Max
		}
		lc, err := serve.NewLifecycle(serve.LifecycleConfig{
			Min: ec.Min, Max: ec.Max,
			ColdStart: ec.ColdStart, IdleLinger: ec.IdleLinger,
		}, initial, 0)
		if err != nil {
			return err
		}
		if err := pool.AttachLifecycle(lc, 0); err != nil {
			return err
		}
		if d.ascs[i], err = scale.New(ec, d.mc.Spec(i).Name); err != nil {
			return err
		}
	}
	return nil
}

func (d *driver) now() time.Duration { return d.engine.Now() }

// at schedules a topology-owned timer on the driver's clock.
func (d *driver) at(t time.Duration, fn func()) { d.engine.At(t, fn) }

// submit admits a task onto a pool's backlog. The autoscaler sees offered
// load (dropped arrivals still describe the demand to warm for); the
// former observes what was admitted.
func (d *driver) submit(pool int, t sched.HybridTask) bool {
	if a := d.ascs[pool]; a != nil {
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
	for t := time.Duration(0); t <= d.horizon; t += d.sampleEvery {
		at := t
		d.engine.At(at, func() { d.sample(at) })
	}
	d.engine.Run()
	d.mc.AdvanceLifecycles(d.horizon)
	for i := 0; i < d.mc.Pools(); i++ {
		if lc := d.mc.Pool(i).Lifecycle(); lc != nil {
			d.coldStarts += lc.ColdStarts()
			d.suspends += lc.Suspends()
			d.idleCost += lc.IdleCost()
		}
	}
	return d.mc.Conservation()
}

// advanceScale is the elastic drive: fold virtual time into every
// lifecycle (warming slots come ready, expired lingers suspend), re-decide
// each autoscaler's target, and arm a wake at the earliest lifecycle
// self-transition — the live engine's lifecycle timer on the virtual
// clock. A starved pool (backlog, no free capacity) bypasses the rate limit.
func (d *driver) advanceScale() {
	if d.elastic == nil {
		return
	}
	now := d.engine.Now()
	d.mc.AdvanceLifecycles(now)
	starved := false
	for i, a := range d.ascs {
		p := d.mc.Pool(i)
		if a != nil && p.QueueLen() > 0 && p.Busy() >= p.Workers() {
			starved = true
			break
		}
	}
	if starved || d.lastDecide < 0 || now-d.lastDecide >= scaleInterval {
		d.lastDecide = now
		for i, a := range d.ascs {
			if a == nil {
				continue
			}
			p := d.mc.Pool(i)
			waitP95, _ := d.mc.WarmedWait(i)
			if desired := a.Desired(now, p.Busy(), p.QueueLen(), waitP95); desired != p.Lifecycle().Desired() {
				p.ScaleTo(desired, now)
			}
		}
	}
	if evt, ok := d.mc.NextLifecycleEvent(); ok && evt != d.lastLifeWake {
		d.lastLifeWake = evt
		d.engine.At(evt, func() {
			if d.lastLifeWake == evt {
				d.lastLifeWake = -1
			}
			d.pump()
		})
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
	lead, ok, wake, wakeOK := d.mc.DispatchFormed(i, now)
	if !ok {
		if wakeOK && wake != d.lastWake[i] {
			d.lastWake[i] = wake
			d.engine.At(wake, d.pump)
		}
		return false
	}
	d.dispatched[i]++
	var rest []sched.HybridTask
	if d.maxBatch > 1 {
		payload := lead.Payload
		// Coalesce returns the core's scratch; keep a copy.
		rest = append(rest, d.mc.Coalesce(i, now, d.maxBatch-1,
			func(t sched.HybridTask) bool { return t.Payload == payload })...)
	}
	if d.hold == nil || !d.hold(i, lead, rest) {
		d.execute(i, lead, rest)
	}
	return true
}

// execute retires a gathered batch after one service time: the lead's
// sample prices the whole coalesced execution, as on the live engine.
func (d *driver) execute(pool int, lead sched.HybridTask, rest []sched.HybridTask) {
	service := d.service(pool, lead, rest)
	var ex *execution
	if d.track {
		ex = &execution{lead: lead, rest: rest, pool: pool}
		d.inflight = append(d.inflight, ex)
		if d.patience != nil {
			// The sim knows the true service time, so the timer arms only
			// when the primary will outlive its patience; the live engine's
			// fires blind and finds the primary done, same outcome.
			if p := d.patience(pool, lead); p > 0 && p < service {
				d.engine.After(p, func() { d.hedge(ex) })
			}
		}
	}
	d.engine.After(service, func() {
		if ex != nil {
			if ex.done || ex.cancelled {
				return
			}
			ex.done = true
		}
		d.mc.Complete(pool, 1+len(rest))
		if a := d.ascs[pool]; a != nil {
			a.ObserveService(lead.Payload, service)
		}
		d.settle(pool, lead, rest, service)
		d.pump()
	})
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
		lender := d.mc.Pool(j)
		faults := lender.Faults()
		elapsed := d.service(j, ex.lead, ex.rest)
		d.engine.After(elapsed, func() {
			// The lease runs out on schedule even if the lender died
			// mid-hedge; only the result is discarded.
			lender.HedgeDone()
			if lender.Faults() == faults && !ex.done && !ex.cancelled {
				ex.done = true
				d.hedgesWon++
				d.mc.Complete(ex.pool, 1+len(ex.rest))
				d.settle(j, ex.lead, ex.rest, elapsed)
			}
			d.pump()
		})
		return
	}
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
	if d.poolDown != nil {
		d.poolDown(i)
	}
	kept := d.inflight[:0]
	for _, ex := range d.inflight {
		switch {
		case ex.done || ex.cancelled:
		case ex.pool != i:
			kept = append(kept, ex)
		default:
			ex.cancelled = true
			tasks := append([]sched.HybridTask{ex.lead}, ex.rest...)
			d.mc.Requeue(i, tasks)
			if f := d.formers[i]; f != nil {
				for _, t := range tasks {
					f.Observe(t, 1)
				}
			}
		}
	}
	d.inflight = kept
	if d.rebalance != nil {
		// Peers steal orphans the moment they exist; without a rebalancer
		// nothing can move before the pool-up.
		d.pump()
	}
}
