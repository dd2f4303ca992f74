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
	// dead marks a browned-out pool. The queue is the durable half (it
	// keeps admitting and holding work, like a safekeeper's log); the
	// workers are the ephemeral half — dispatch is gated off and in-flight
	// work is expected back via Requeue. Capacity accounting (total/free)
	// is untouched so recovery resumes at the pre-fault size.
	dead bool
	// faults counts Fail transitions; requeued counts tasks returned to
	// the queue by Requeue.
	faults, requeued int
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

// Policy returns the pool's scheduling policy.
func (c *PoolCore) Policy() sched.Policy { return c.policy }

// AttachElastic makes the pool's capacity elastic under cfg: it builds
// the lifecycle and the autoscaler for the pool called name — the one
// construction the live engine and the sims share. A fixed-mode pool
// starts warm at Max, a reactive or predictive one at Min, and from now
// on total and free track the lifecycle's warm slot count. The pool must
// be idle (nothing dispatched yet): capacity changes hand busy workers
// over only through AdvanceLifecycle, which never suspends an occupied
// slot. On error the pool stays fixed.
func (c *PoolCore) AttachElastic(cfg scale.Config, name string, now time.Duration) error {
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
	asc, err := scale.New(cfg, name)
	if err != nil {
		return err
	}
	c.lc, c.asc = lc, asc
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
// refreshes gauges when it did). A fixed pool is a no-op. Callers drive
// it at every scheduling event on the same clock they pass Dispatch.
func (c *PoolCore) AdvanceLifecycle(now time.Duration) bool {
	if c.lc == nil {
		return false
	}
	warm := c.lc.advance(now, c.Busy())
	if warm == c.total {
		return false
	}
	c.free += warm - c.total
	c.total = warm
	return true
}

// Starved reports an elastic pool with backlog and no free capacity: the
// one state where deferring a scale decision costs latency for certain,
// so both drivers let it bypass their decision rate limit.
func (c *PoolCore) Starved() bool {
	return c.asc != nil && c.QueueLen() > 0 && c.Busy() >= c.Workers()
}

// Rescale is the autoscale decision: the autoscaler's desired capacity at
// now, from the pool's occupancy and its adopted queue-wait p95 (zero
// while unwarmed), goes to the lifecycle when the target moved. It
// reports whether capacity changed. A fixed pool ignores it. The caller
// owns the cadence — how often to decide, and whether a closed or dead
// pool decides at all.
func (c *PoolCore) Rescale(now, waitP95 time.Duration) bool {
	if c.asc == nil {
		return false
	}
	desired := c.asc.Desired(now, c.Busy(), c.QueueLen(), waitP95)
	if desired == c.lc.Desired() {
		return false
	}
	return c.scaleTo(desired, now)
}

// scaleTo forwards a new desired capacity to the attached lifecycle at
// now and applies any immediate resize (zero cold start, or a shrink
// whose linger already expired).
func (c *PoolCore) scaleTo(desired int, now time.Duration) bool {
	c.lc.advance(now, c.Busy())
	c.lc.SetDesired(desired, now)
	return c.AdvanceLifecycle(now)
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

// Requeued counts tasks returned to the queue by Requeue.
func (c *PoolCore) Requeued() int { return c.requeued }

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
	c.requeued += len(tasks)
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

// StolenIn and StolenOut count tasks moved by the rebalancing pull path.
func (c *PoolCore) StolenIn() int  { return c.stolenIn }
func (c *PoolCore) StolenOut() int { return c.stolenOut }

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

// OverCompleted counts Complete calls that found every worker already free.
func (c *PoolCore) OverCompleted() int { return c.overCompleted }

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

// BatchWindow is the deadline-aware half of request batching: when a
// dispatched lead task's batch is below the profitable size, the dispatcher
// may linger until the deadline to let same-benchmark arrivals fill it,
// instead of coalescing only what already queued. It is clock-free — the
// live engine feeds it wall time while the discrete-event simulation feeds
// it virtual time, so both exercise the same linger decision.
type BatchWindow struct {
	// Deadline is the instant the dispatcher stops waiting.
	Deadline time.Duration
	// Target is the profitable batch size; Size is gathered so far.
	Target, Size int
}

// NewBatchWindow opens a linger window at now for a batch that currently
// holds size of target.
func NewBatchWindow(now, linger time.Duration, target, size int) BatchWindow {
	return BatchWindow{Deadline: now + linger, Target: target, Size: size}
}

// Open reports whether the dispatcher should keep lingering at now: the
// batch is below target and the deadline has not passed.
func (w BatchWindow) Open(now time.Duration) bool {
	return w.Size < w.Target && now < w.Deadline
}

// Add records n more gathered requests.
func (w *BatchWindow) Add(n int) { w.Size += n }
