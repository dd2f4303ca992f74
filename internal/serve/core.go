// core.go is the clock-free half of the serving engine: a pure
// admission/dispatch state machine over the bounded queue and pluggable
// scheduling policies of internal/sched. It owns no goroutines and no
// clocks, which is the point — the live Engine drives it from worker
// goroutines under a lock, and the at-scale discrete-event simulation
// (internal/cluster) drives the very same implementation from its virtual
// clock, so the simulated rack and the real HTTP path share one scheduler.

package serve

import (
	"fmt"
	"time"

	"dscs/internal/scale"
	"dscs/internal/sched"
)

// PoolCore is the scheduling state machine for one worker pool: a bounded
// HybridQueue drained by a pluggable policy into a fixed set of
// run-to-completion workers. Not safe for concurrent use on its own; the
// Engine serializes access, and the simulator is single-threaded.
type PoolCore struct {
	queue  *sched.HybridQueue
	policy sched.Policy
	class  sched.InstanceClass

	free, total int
	// running counts tasks currently executing. With batching it can
	// exceed busy workers: one worker serves every coalesced task.
	running   int
	submitted int
	completed int
	// overCompleted counts Complete calls that arrived with every worker
	// already free — a caller bug (double-complete) that would otherwise
	// cancel out of the conservation sum and hide silently.
	overCompleted int
	// sharedQueue marks a core whose queue more than one pool drains
	// (PoolSpec.Backlog); its per-core Conservation skips the submission
	// balance, which only holds across the sharers (MultiCore.Conservation).
	sharedQueue bool
	// former, when attached, gates DispatchFormed: the queue-level batch
	// former that groups arrivals ahead of dispatch.
	former *BatchFormer
	// stolenIn/stolenOut count tasks moved by the rebalancing pull path.
	stolenIn, stolenOut int
	// scratch is the reused extraction buffer behind Coalesce,
	// DispatchFormed's due-group pull and StealFrom, so the batching and
	// rebalancing hot paths never allocate. Serialized by whatever
	// serializes the core.
	scratch []sched.HybridTask
	// lc and asc, when attached (AttachElastic), make the pool's capacity
	// elastic: total/free track the lifecycle's warm count instead of
	// staying fixed at construction, and asc picks the count lc converges
	// to. Nil keeps the fixed-pool behavior bit-identical. Both are set
	// before the pool serves and never change, so the live engine's
	// submitters read asc without the pool lock.
	lc  *Lifecycle
	asc *scale.Autoscaler
	// decidedAt stamps the last autoscale decision, the start of
	// Rescale's rate limit (AttachElastic starts it).
	decidedAt time.Duration
	// dead marks a browned-out pool. The queue is the durable half (it
	// keeps admitting and holding work, like a safekeeper's log); the
	// workers are the ephemeral half — dispatch is gated off and in-flight
	// work is expected back via Requeue. Capacity accounting (total/free)
	// is untouched so recovery resumes at the pre-fault size.
	dead bool
	// faults counts Fail transitions.
	faults int
	// overRequeued counts Requeue calls that arrived with every worker
	// already free — a caller bug (double-requeue of one execution) that
	// Conservation surfaces instead of clamping away, mirroring
	// overCompleted.
	overRequeued int
	// hedging counts workers currently occupied by hedged duplicate
	// dispatches. A hedge borrows a free worker without touching the
	// submission ledger: the original pool stays the accounting owner of
	// the request, so Conservation sums are unaffected. overHedged counts
	// HedgeDone calls with no hedge outstanding.
	hedging, hedges, overHedged int
}

// NewPoolCore builds a pool of the given worker count and admission bound.
// A nil policy defaults to the paper's deployed FCFS.
func NewPoolCore(workers, queueDepth int, class sched.InstanceClass, policy sched.Policy) (*PoolCore, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("serve: non-positive worker count")
	}
	q, err := sched.NewHybridQueue(queueDepth)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		policy = sched.FCFSPolicy{}
	}
	return &PoolCore{
		queue: q, policy: policy, class: class,
		free: workers, total: workers,
	}, nil
}

// AttachElastic makes the pool's capacity elastic under cfg: it builds
// the pool's lifecycle and autoscaler — the one construction the live
// engine and the sims share. A fixed-mode pool starts warm at Max, a
// reactive or predictive one at Min, and from now on total and free
// track the lifecycle's warm slot count. The pool must
// be idle (nothing dispatched yet): capacity changes hand busy workers
// over only through AdvanceLifecycle, which never suspends an occupied
// slot. On error the pool stays fixed.
func (c *PoolCore) AttachElastic(cfg scale.Config, now time.Duration) error {
	if c.Busy() != 0 {
		return fmt.Errorf("serve: elastic capacity attached to a busy pool (%d busy)", c.Busy())
	}
	initial := cfg.Min
	if cfg.Mode == scale.ModeFixed {
		initial = cfg.Max
	}
	lc, err := newLifecycle(cfg, initial, now)
	if err != nil {
		return err
	}
	asc, err := scale.New(cfg)
	if err != nil {
		return err
	}
	c.lc, c.asc, c.decidedAt = lc, asc, now
	c.total = lc.advance(now, 0)
	c.free = c.total
	return nil
}

// Lifecycle returns the attached lifecycle (nil for a fixed pool).
func (c *PoolCore) Lifecycle() *Lifecycle { return c.lc }

// Autoscaler returns the attached autoscaler (nil for a fixed pool). Its
// observation methods are safe for concurrent use.
func (c *PoolCore) Autoscaler() *scale.Autoscaler { return c.asc }

// AdvanceLifecycle folds elapsed time into the attached lifecycle —
// warming slots come ready, lingering slots suspend — and resizes the
// pool to the resulting warm capacity, preserving busy workers. It
// reports whether capacity changed (the caller re-drives dispatch and
// refreshes gauges when it did). A fixed pool is a no-op. Rescale runs
// it at every scheduling event; alone it serves the transitions that
// must not decide (a fault, a drain, a run's closing tally).
func (c *PoolCore) AdvanceLifecycle(now time.Duration) bool {
	return c.lc != nil && c.resize(c.lc.advance(now, c.Busy()))
}

// resize moves the pool to warm capacity, preserving busy workers, and
// reports whether it changed.
func (c *PoolCore) resize(warm int) bool {
	if warm == c.total {
		return false
	}
	c.free += warm - c.total
	c.total = warm
	return true
}

// scaleDecideInterval rate-limits autoscale decisions per pool, on
// whichever clock drives the core: the digest quantile reads behind a
// decision are not per-event work. A starved pool bypasses the limit —
// that is the one state where waiting a millisecond to scale costs
// latency for certain.
const scaleDecideInterval = time.Millisecond

// starved reports an elastic pool with backlog and no free capacity.
func (c *PoolCore) starved() bool {
	return c.asc != nil && c.QueueLen() > 0 && c.Busy() >= c.Workers()
}

// Rescale drives the pool's capacity to now: it advances the lifecycle
// (AdvanceLifecycle) and then, at most once per scaleDecideInterval since
// the last decision or AttachElastic, asks the autoscaler for the desired
// capacity from the pool's occupancy and adopted queue-wait p95 and hands
// a moved target to the lifecycle. A starved pool decides at once; a dead
// pool, or a frozen lifecycle (the engine's Close drain), never decides.
// It reports whether capacity changed; a fixed pool ignores it. waitP95
// reads the pool's warmed wait-p95 (zero while unwarmed); it is called
// only when the autoscaler reads waits (scale.Autoscaler.ReadsWait), so a
// mode without the surge latch pays no quantile read. Both drivers call
// it at every scheduling event, on the clock they pass Dispatch.
func (c *PoolCore) Rescale(now time.Duration, waitP95 func() time.Duration) bool {
	changed := c.AdvanceLifecycle(now)
	if c.lc == nil || c.dead || c.lc.frozen || (now-c.decidedAt < scaleDecideInterval && !c.starved()) {
		return changed
	}
	c.decidedAt = now
	var wait time.Duration
	if c.asc.ReadsWait() {
		wait = waitP95()
	}
	desired := c.asc.Desired(now, c.Busy(), c.QueueLen(), wait)
	if desired == c.lc.Desired() {
		return changed
	}
	return c.resize(c.lc.retarget(desired, now)) || changed
}

// Fail browns the pool out at now: dispatch (and hedging, and stealing
// into it) stops, the queue keeps admitting and holding work, and an
// attached lifecycle is quenched — pending warming slots are cancelled so
// no timer resurrects capacity into a dead pool, and idle slots stop
// lingering toward suspension. Idempotent while dead.
func (c *PoolCore) Fail(now time.Duration) {
	if c.dead {
		return
	}
	c.dead = true
	c.faults++
	if c.lc != nil {
		c.AdvanceLifecycle(now)
		c.lc.Quench(now)
		c.AdvanceLifecycle(now)
	}
}

// Recover ends a brown-out at now. An attached lifecycle is unquenched:
// capacity lost to the quench re-warms toward the desired size, paying
// cold starts. Idempotent while healthy.
func (c *PoolCore) Recover(now time.Duration) {
	if !c.dead {
		return
	}
	c.dead = false
	if c.lc != nil {
		c.lc.Unquench(now)
		c.AdvanceLifecycle(now)
	}
}

// Healthy reports whether the pool is dispatching (not browned out).
func (c *PoolCore) Healthy() bool { return !c.dead }

// Faults counts Fail transitions.
func (c *PoolCore) Faults() int { return c.faults }

// Requeue returns one execution's in-flight tasks to the queue — the
// at-most-once completion path for work orphaned by a killed worker. The
// execution's worker is freed (guarded exactly like Complete: a second
// Requeue of the same execution is counted, not clamped) and the tasks
// re-enter by (Arrived, ID), bypassing the admission bound — a fault must
// never turn into a drop. The submission ledger is untouched: the tasks
// were admitted once and are still owed exactly one completion.
// A batch former attached to the pool is NOT re-observed here; callers
// that form batches re-Observe the tasks themselves (weights differ by
// caller).
func (c *PoolCore) Requeue(tasks []sched.HybridTask) {
	if len(tasks) == 0 {
		return
	}
	if c.free < c.total {
		c.free++
	} else {
		c.overRequeued++
	}
	c.running -= len(tasks)
	c.queue.RestoreAll(tasks)
}

// Hedge borrows a free worker for a hedged duplicate dispatch. It fails
// on a dead pool or with no worker free. The borrow is outside the
// submission ledger — the original pool remains the accounting owner of
// the hedged request — so Conservation's sums never see it; only the
// worker occupancy does, released by HedgeDone whether the hedge won or
// lost.
func (c *PoolCore) Hedge() bool {
	if c.dead || c.free == 0 {
		return false
	}
	c.free--
	c.hedging++
	c.hedges++
	return true
}

// HedgeDone releases a worker borrowed by Hedge. A release with no hedge
// outstanding is a caller bug surfaced by Conservation.
func (c *PoolCore) HedgeDone() {
	if c.hedging <= 0 {
		c.overHedged++
		return
	}
	c.hedging--
	c.free++
}

// Hedges counts Hedge borrows granted.
func (c *PoolCore) Hedges() int { return c.hedges }

// AttachFormer gives the pool a queue-level batch former; DispatchFormed
// consults it. Callers must then Observe every admitted task on it.
func (c *PoolCore) AttachFormer(f *BatchFormer) { c.former = f }

// Former returns the attached batch former (nil when none).
func (c *PoolCore) Former() *BatchFormer { return c.former }

// Submit admits a task; it reports false (drop) at the queue bound.
//
//dscslint:hotpath
func (c *PoolCore) Submit(t sched.HybridTask) bool {
	if !c.queue.Submit(t) {
		return false
	}
	c.submitted++
	return true
}

// Dispatch hands the policy-selected task to a free worker, if both exist.
// now is the caller's clock (wall time on the live engine, virtual time in
// the simulator) on the same basis as HybridTask.Arrived; the policies use
// it for starvation aging. It ignores an attached BatchFormer (the
// engine's shutdown drain serves through it).
//
//dscslint:hotpath
func (c *PoolCore) Dispatch(now time.Duration) (t sched.HybridTask, ok bool) {
	ok, _, _ = c.dispatch(now, &t, false)
	return t, ok
}

// DispatchFormed is Dispatch gated by the attached BatchFormer: the
// policy's pick dispatches only when its forming group is ready at now (it
// reached the target size, lingered out, or ran out of deadline slack).
// An unready pick is restored to the queue; if another payload's group is
// due, its oldest member dispatches instead. When nothing dispatches, wake
// (valid when wakeOK) is the earliest instant a forming group comes due,
// so the caller knows when to drive the core again — a timed wait on the
// engine, a scheduled event in the simulation. Without an attached former
// it behaves exactly like Dispatch.
//
//dscslint:hotpath
func (c *PoolCore) DispatchFormed(now time.Duration) (t sched.HybridTask, ok bool, wake time.Duration, wakeOK bool) {
	ok, wake, wakeOK = c.dispatch(now, &t, true)
	return t, ok, wake, wakeOK
}

// dispatch is the one dispatch implementation behind Dispatch,
// DispatchFormed and MultiCore's dispatches. It writes the dispatched task
// through t — caller-owned storage, so the task is copied once, from its
// queue slot, however many layers hand it on — and *t is meaningful only
// when ok. formed gates the pick by an attached former (DispatchFormed);
// without one, or with formed false, the policy's pick dispatches as is.
//
//dscslint:hotpath
func (c *PoolCore) dispatch(now time.Duration, t *sched.HybridTask, formed bool) (ok bool, wake time.Duration, wakeOK bool) {
	if c.free == 0 || c.dead || !sched.PickInto(c.policy, c.queue, c.class, now, t) {
		return false, 0, false
	}
	if f := c.former; formed && f != nil {
		if !f.Ready(t.Payload, now) {
			c.queue.Restore(*t)
			if !c.takeDue(now, t) {
				wake, wakeOK = f.NextDue()
				return false, wake, wakeOK
			}
		}
		f.Close(t.Payload)
	}
	c.free--
	c.running++
	return true, 0, false
}

// takeDue serves a group that is due at now when the policy's preference
// is still forming: the due group's oldest queued member moves into *t. A
// group whose members all left the queue by another door is stale — it is
// dropped and the next due group tried. It reports false when no group is
// due.
func (c *PoolCore) takeDue(now time.Duration, t *sched.HybridTask) bool {
	for {
		payload, due := c.former.DuePayload(now)
		if !due {
			return false
		}
		taken := c.queue.TakeWhereInto(c.scratch[:0], 1, func(x sched.HybridTask) bool { return x.Payload == payload })
		c.scratch = taken
		if len(taken) > 0 {
			*t = taken[0]
			return true
		}
		c.former.Drop(payload) // stale group: no queued member left
	}
}

// StealFrom moves up to max of donor's oldest queued tasks onto c's queue
// — the pull half of queue rebalancing, complementing submit-time
// spillover with drain-time balance. Tasks keep their Arrived instants, so
// the starvation aging bound (sched.AgingMultiple) follows them across
// classes, and they merge into c's queue by arrival order so the thief's
// oldest-first invariant holds too. Submission accounting moves with the
// tasks: the donor no longer counts them, the thief does, and a donor-side
// batch former sheds them. The move is capped at the thief's queue room —
// a rebalance must never turn into a drop. It returns the moved tasks in
// the thief's reused scratch, under Coalesce's validity contract.
//
//dscslint:hotpath
func (c *PoolCore) StealFrom(donor *PoolCore, max int) []sched.HybridTask {
	if donor == nil || donor == c || donor.queue == c.queue || c.dead {
		// A dead thief must not import work into a grave; a dead donor is
		// fine — stealing from it is how its backlog gets rescued.
		return nil
	}
	if room := c.queue.Room(); max > room {
		max = room
	}
	moved := donor.queue.TakePrefixInto(c.scratch[:0], max, nil)
	c.scratch = moved
	for _, t := range moved {
		c.queue.Restore(t)
		if donor.former != nil {
			donor.former.Shed(t.Payload, 1)
		}
	}
	donor.submitted -= len(moved)
	donor.stolenOut += len(moved)
	c.submitted += len(moved)
	c.stolenIn += len(moved)
	return moved
}

// Coalesce removes up to max additional queued tasks matching the
// predicate and assigns them to the worker that just dispatched — the
// request-batching step. It must follow a successful Dispatch. The
// returned slice is the core's reused scratch: it stays valid until the
// next Coalesce, DispatchFormed or StealFrom on this core, so callers
// consume it before driving the core again (every call site does — they
// run under the same lock that serializes the core).
//
//dscslint:hotpath
func (c *PoolCore) Coalesce(max int, match func(sched.HybridTask) bool) []sched.HybridTask {
	taken := c.queue.TakeWhereInto(c.scratch[:0], max, match)
	c.scratch = taken
	c.running += len(taken)
	return taken
}

// Complete retires n tasks (one execution, n coalesced requests) and frees
// their worker. A Complete with no worker busy is a caller bug: it is
// counted as an over-completion and surfaced by Conservation instead of
// being silently clamped away.
func (c *PoolCore) Complete(n int) {
	if c.free < c.total {
		c.free++
	} else {
		c.overCompleted++
	}
	c.running -= n
	c.completed += n
}

// QueueLen reports queue occupancy.
func (c *PoolCore) QueueLen() int { return c.queue.Len() }

// QueueFull reports whether the next Submit would drop.
func (c *PoolCore) QueueFull() bool { return c.queue.Full() }

// Dropped counts admission rejections.
func (c *PoolCore) Dropped() int { return c.queue.Dropped() }

// Busy reports occupied workers.
func (c *PoolCore) Busy() int { return c.total - c.free }

// Workers reports the pool size.
func (c *PoolCore) Workers() int { return c.total }

// Running reports tasks currently executing (>= Busy with batching).
func (c *PoolCore) Running() int { return c.running }

// Completed reports retired tasks.
func (c *PoolCore) Completed() int { return c.completed }

// Conservation checks the bookkeeping invariant: every admitted task is
// queued, executing, completed, or requeued-then-owed-a-completion —
// exactly once. No Complete arrived without a matching Dispatch, no
// execution retired more tasks than were assigned to it, no execution was
// requeued twice, and hedge borrows all went back.
func (c *PoolCore) Conservation() error {
	if c.overCompleted > 0 {
		return fmt.Errorf("serve: conservation violated: %d completions with no busy worker (double-complete)",
			c.overCompleted)
	}
	if c.overRequeued > 0 {
		return fmt.Errorf("serve: conservation violated: %d requeues with no busy worker (double-requeue)",
			c.overRequeued)
	}
	if c.overHedged > 0 {
		return fmt.Errorf("serve: conservation violated: %d hedge releases with no hedge outstanding", c.overHedged)
	}
	if c.running < 0 {
		return fmt.Errorf("serve: conservation violated: %d tasks running (over-complete)", c.running)
	}
	if c.free > c.total {
		return fmt.Errorf("serve: conservation violated: %d workers free of %d total", c.free, c.total)
	}
	if c.sharedQueue {
		return nil // the submission balance is checked by the MultiCore
	}
	accounted := c.queue.Len() + c.running + c.completed
	if c.submitted != accounted {
		return fmt.Errorf("serve: conservation violated: %d submitted != %d queued + %d running + %d completed",
			c.submitted, c.queue.Len(), c.running, c.completed)
	}
	return nil
}
