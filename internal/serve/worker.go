// worker.go is the engine's drain half: the worker loop (dispatch, batch
// gathering, stealing, execution, delivery) and its batches.

package serve

import (
	"time"

	"dscs/internal/faas"
	"dscs/internal/sched"
)

// reqBatch is the model batch one request asks for.
func reqBatch(o faas.Options) int {
	if o.Batch < 1 {
		return 1
	}
	return o.Batch
}

// taskBatch is the model batch of the request a queue task carries.
func taskBatch(t sched.HybridTask) int { return reqBatch(t.Ref.(*request).opt) }

// coalescable reports whether two requests may share one execution: same
// cold-start behavior, same network quantile, same chain shape. The
// benchmark match is checked against the queue task's payload.
func coalescable(a, b faas.Options) bool {
	return a.Cold == b.Cold && a.Quantile == b.Quantile &&
		a.ExtraAccelFuncs == b.ExtraAccelFuncs
}

// batchState is one execution's gathered requests: the dispatched lead
// plus every compatible same-benchmark request coalesced at dispatch.
type batchState struct {
	lead    *request
	payload string
	batch   int // combined model batch
	// tasks holds the dispatched queue tasks themselves, lead first, each
	// carrying its request in Ref: the requeue path returns them to the
	// queue (arrival stamps, pricing) when the pool dies mid-batch.
	tasks []sched.HybridTask
	// waits holds the batch's clamped queue delays, computed once at
	// dispatch (recordWaits) and reused by the delivery loop — the digest
	// staging and the per-request outcomes read the same values.
	waits []time.Duration
}

// putBatch returns an executed batch to the pool's free list; it clears
// the tasks so a recycled batch never pins served requests for the GC.
// Callers hold p.mu, as newBatch's callers do, so the list needs no lock of
// its own and, unlike a sync.Pool, survives a GC.
func (p *pool) putBatch(bs *batchState) {
	clear(bs.tasks)
	bs.tasks = bs.tasks[:0]
	bs.waits = bs.waits[:0]
	bs.lead, bs.payload, bs.batch = nil, "", 0
	p.batches = append(p.batches, bs)
}

// newBatch resolves a dispatched task to its request (carried in the
// task's Ref — no side-table lookup) and coalesces compatible
// same-benchmark requests that already queued, up to MaxBatch model-batch
// units. Coalesce removes queued tasks just as Dispatch does, so the
// caller refreshes the depth gauge after. Callers hold p.mu.
//
//dscslint:hotpath
func (e *Engine) newBatch(p *pool, task sched.HybridTask) *batchState {
	lead := task.Ref.(*request)
	var bs *batchState
	if n := len(p.batches); n > 0 {
		bs = p.batches[n-1]
		p.batches[n-1] = nil
		p.batches = p.batches[:n-1]
	} else {
		bs = &batchState{tasks: make([]sched.HybridTask, 0, DefaultMaxBatch)}
	}
	bs.lead, bs.payload = lead, task.Payload
	bs.tasks = append(bs.tasks[:0], task)
	bs.batch = reqBatch(lead.opt)
	budget := e.opt.MaxBatch - bs.batch
	if budget <= 0 {
		return bs
	}
	taken := p.core.Coalesce(budget, func(t sched.HybridTask) bool {
		if t.Payload != bs.payload {
			return false
		}
		r := t.Ref.(*request)
		if !coalescable(r.opt, lead.opt) {
			return false
		}
		if reqBatch(r.opt) > budget {
			return false
		}
		budget -= reqBatch(r.opt)
		return true
	})
	for _, t := range taken {
		bs.tasks = append(bs.tasks, t)
		bs.batch += reqBatch(t.Ref.(*request).opt)
	}
	return bs
}

// requeueLocked returns a dispatched batch that did not run to p's queue
// and its forming group (PoolCore.Requeue; formed: this dispatch closed
// one). Callers hold p.mu.
func (e *Engine) requeueLocked(p *pool, bs *batchState, formed bool) {
	p.core.Requeue(bs.tasks, formed)
	e.syncView(p)
	p.putBatch(bs)
}

// stealInto pulls queued work from a donor pool into p — the drain-time
// half of rebalancing, complementing submit-time spillover. The donor is
// the deepest pool of any class (same-class platforms rebalance too) whose
// adopted wait-p95 gap over p has latched, or a dead pool with a backlog.
// How much moves is p's PoolCore.StealBudget, which is also the gate on
// calling it. The caller holds p.mu; stealInto releases it and retakes
// both pool locks in name order (the engine-wide lock order), so two pools
// stealing from each other cannot deadlock. It returns how many requests
// moved; p.mu is held again on return.
//
//dscslint:hotpath
func (e *Engine) stealInto(p *pool) int {
	p.mu.Unlock()
	i, ok := e.bal.StealDonor(p.idx, nil)
	if !ok {
		p.mu.Lock()
		return 0
	}
	donor := e.order[i]
	first, second := p, donor
	if second.name < first.name {
		first, second = second, first
	}
	first.mu.Lock()
	second.mu.Lock()
	moved := 0
	// The donor's staged backlog is stealable too — it just hasn't crossed
	// into the core yet. Drain it (under both locks, safely ordered) so the
	// steal sees the donor's full depth.
	e.drainLocked(donor)
	// Re-check under both locks: p may have died or taken work, the
	// backlog may have drained, or the engine may be closing, since the
	// unlocked scan. (The latch itself is not re-checked — it just tripped,
	// and hysteresis means a single completion cannot have released it.)
	budget := p.core.StealBudget(e.opt.MaxBatch)
	if budget > 0 && !p.closed && !donor.closed && donor.core.QueueLen() > 0 {
		moved = len(p.core.StealFrom(donor.core, budget))
		if moved > 0 {
			// Sibling workers of the thief pool may be parked; the stolen
			// backlog is work for them too.
			p.cond.Broadcast()
			e.cStealAll.Inc(float64(moved))
			p.cStealFrom[donor.name].Inc(float64(moved))
			// A steal extracts queued tasks just like Coalesce does: both
			// pools' depth gauges (and ingress mirrors) must follow.
			e.syncView(donor)
			e.syncView(p)
		}
	}
	donor.mu.Unlock()
	return moved
}

// dispatch selects p's next task at now, honoring an attached batch
// former. Callers hold p.mu. When nothing dispatches, wake (valid when
// waitOK) is the instant a forming batch comes due — the worker arms the
// pool's wake timer there and parks. formed reports whether
// this dispatch released a formed group (as opposed to group-less work:
// post-close leftovers, stolen-in tasks, or the shutdown drain), so the
// serve_batch_formed_total counter matches BatchFormer.Formed and the
// simulation's Stats.Formed.
//
//dscslint:hotpath
func (e *Engine) dispatch(p *pool, now time.Duration) (task sched.HybridTask, ok bool, wake time.Duration, waitOK, formed bool) {
	f := p.core.Former()
	if f == nil || p.closed {
		// No former, or draining at shutdown: serve immediately, holding
		// nothing back.
		task, ok = p.core.Dispatch(now)
		return task, ok, 0, false, false
	}
	before := f.Formed()
	task, ok, wake, waitOK = p.core.DispatchFormed(now)
	return task, ok, wake, waitOK, ok && f.Formed() > before
}

// worker is one pool goroutine: dispatch via the shared core, coalesce a
// batch (under BatchLinger, waiting on the former's queue-level batch,
// parked until an arrival or the pool's wake timer), stealing a peer's
// backlog under AdaptiveBalance on the pool's StealBudget, execute
// run-to-completion, deliver outcomes.
func (e *Engine) worker(p *pool) {
	defer e.wg.Done()
	p.mu.Lock()
	for {
		e.drainLocked(p)
		e.advanceElasticLocked(p)
		now := e.now()
		task, ok, wake, waitOK, formed := e.dispatch(p, now)
		if !ok {
			// A batch is forming: park until it fills (the filling arrival
			// signals) or comes due (the wake timer).
			if waitOK {
				e.wakeAtLocked(p, wake)
			} else if p.closed {
				p.mu.Unlock()
				return
			}
			// Only a pool with a StealBudget steals. A dead pool, one with
			// anything queued (a forming batch, payloads held for a busy
			// drive) and a goroutine with no free slot park at once: looping
			// on a backlog they cannot run would spin, a dead pool's without
			// releasing p.mu and so starving the peers that would rescue it.
			// FailPool/RecoverPool and the wake timer broadcast, a drive
			// release signals, and a completing worker loops on its own.
			if e.opt.AdaptiveBalance && p.core.StealBudget(e.opt.MaxBatch) > 0 {
				stole := e.stealInto(p)
				// Re-check before parking: stealInto dropped p.mu, so a
				// submission may have signaled into the gap and its wakeup
				// would otherwise be lost.
				if stole > 0 || p.core.Dispatchable() || p.closed {
					continue
				}
			}
			// Park. The parked count is incremented before the staged
			// re-check: a submitter that just staged an entry either sees
			// parked > 0 (and its token claimant fences a Signal) or this
			// load sees its entry — the Dekker pairing that makes the
			// lock-free offer path wakeup-safe. The wake token clears
			// before the re-check and on every return from Wait (takeWake).
			// A dead peer's backlog pairs the same way with wakePeers.
			p.parked.Add(1)
			p.waking.Store(false)
			if p.ingress.staged.Load() > 0 || e.rescueWaiting(p) {
				p.parked.Add(-1)
				continue
			}
			p.cond.Wait()
			p.waking.Store(false)
			p.parked.Add(-1)
			continue
		}
		bs := e.newBatch(p, task)
		// Queue delay ends at this dispatch. Under BatchLinger it includes
		// the former's hold: the request sat queued while its group formed;
		// a DSCS request's includes the wait for its drive. (The simulation
		// records at core dispatch the same way.)
		dispatched := e.now()
		e.syncView(p)
		if p.core.Busy() < p.core.Workers() && p.core.Dispatchable() && p.takeWake() {
			// Hand the wake on: a parked sibling could run the backlog now,
			// and its submitters may all have skipped their Signal. Under
			// p.mu every parked worker is in cond.Wait: no fence needed.
			p.cond.Signal()
		}
		p.mu.Unlock()

		// A DSCS batch runs on the drive holding its input, one batch per
		// drive at a time (run-to-completion, Section 5.3). A busy drive
		// holds the batch back in this queue, its payload blocked until a
		// drive frees, so the wait is queue delay. The retry under p.mu
		// keeps a release from falling between the failed Acquire and the
		// Block. A batch with no healthy DSCS replica runs conventionally,
		// off the drives, as does a draining pool's whose drive is busy.
		d, _ := p.runner.DriveFor(bs.lead.bench, bs.batch)
		dr := e.drives[d]
		if dr != nil && !d.Acquire() {
			p.mu.Lock()
			if !d.Acquire() {
				dr = nil
				if !p.closed {
					p.core.Block(bs.payload)
					e.requeueLocked(p, bs, formed)
					e.cDriveWait.Inc(1)
					continue
				}
			}
			p.mu.Unlock()
		}
		if dr != nil {
			dr.busy.Set(1)
			dr.acq.Inc(1)
		}
		e.recordWaits(p, bs, dispatched)
		if e.opt.AdaptiveBalance {
			// This dispatch just updated the pool's wait digest — the
			// signal the balance latch reads. If a backlog remains, parked
			// peers must re-check it: with no further arrivals to signal
			// them, a freshly tripped latch would otherwise go unheard.
			// The backlog is the lock-free depth mirror.
			e.wakePeers(p, p.ingress.pending())
		}

		opt := bs.lead.opt
		opt.Batch = bs.batch
		res, err := e.execHedged(p, bs.lead.bench, opt, bs.payload)

		if dr != nil {
			dr.busy.Set(0)
			d.Release()
			e.unblockDrives(p) // a peer DSCS pool may wait on this drive
		}
		p.mu.Lock()
		if dr != nil {
			p.core.Unblock() // this worker loops next: no wakeup needed
		}
		if !p.core.Healthy() && !p.closed {
			// The pool died while this batch was executing. The execution's
			// result is void — a killed worker delivers nothing — but the
			// requests are still owed exactly one delivery each, so the
			// batch's tasks return to the queue (in arrival order, ahead of
			// younger work) and stay in-flight until a surviving pool steals
			// them or this one recovers. Conservation still accounts each
			// request exactly once.
			n := len(bs.tasks)
			e.requeueLocked(p, bs, formed)
			p.mu.Unlock()
			e.cRequeues.Inc(float64(n))
			// The requeued backlog is rescue work: wake peers to steal it.
			e.wakePeers(p, n)
			p.mu.Lock()
			continue
		}
		p.core.Complete(len(bs.tasks))
		e.syncFree(p)
		p.mu.Unlock()
		if err == nil {
			e.observe(bs.payload, p.name, res.Total(), dispatched)
			if a := p.core.Autoscaler(); a != nil {
				// The predictive floor prices demand with observed
				// service times; completions are where they exist.
				a.ObserveService(bs.payload, res.Total())
			}
		}
		e.cBatches.Inc(1)
		e.cBatchedReqs.Inc(float64(len(bs.tasks)))
		p.gBatchOcc.Set(float64(bs.batch))
		e.cCompleted.Inc(float64(len(bs.tasks)))
		if formed {
			e.cFormedAll.Inc(1)
			p.cFormed.Inc(1)
		}
		// The waits were computed at dispatch time in recordWaits; charge
		// the counter once for the whole batch and hand each request its
		// own value.
		var waitMS float64
		for i := range bs.tasks {
			wait := bs.waits[i]
			waitMS += float64(wait) / float64(time.Millisecond)
			e.deliver(bs.tasks[i].Ref.(*request), outcome{res: res, err: err, platform: p.name, queued: wait,
				batchRequests: len(bs.tasks), batchSize: bs.batch})
		}
		e.cWaitMS.Inc(waitMS)
		p.mu.Lock()
		p.putBatch(bs)
	}
}
