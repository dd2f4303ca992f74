// hybrid.go implements the paper's "future directions for optimized
// scheduling" (Section 5.3) over a heterogeneous pool of CPU and
// DSCS-capable instances:
//
//   - FCFS: the paper's deployed policy, class-blind.
//   - Criticality-aware: long-running functions go to DSCS instances, where
//     acceleration buys the most; short functions stay on CPUs.
//
// The at-scale simulation (internal/cluster) replays traces against each
// policy; the paper hypothesizes and our reproduction confirms that the
// criticality refinement beats plain FCFS when DSCS capacity is scarce.

package sched

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// InstanceClass is a pool partition.
type InstanceClass int

// Instance classes.
const (
	ClassCPU InstanceClass = iota
	ClassDSCS
)

// String names the class.
func (c InstanceClass) String() string {
	if c == ClassDSCS {
		return "dscs"
	}
	return "cpu"
}

// HybridTask is one request with its class-specific expectations.
type HybridTask struct {
	ID      int
	Arrived time.Duration
	Payload string

	// CPUService and DSCSService are the expected service times per class.
	CPUService, DSCSService time.Duration
	// AccelFuncs counts acceleratable functions in the application's DAG.
	// No policy reads it: every application the system deploys has the
	// same accelerated prefix, so a count-first order ranks exactly as
	// CriticalityPolicy. It stays only while the benchmark harness names
	// it.
	AccelFuncs int

	// Ref is an opaque caller attachment that rides the task through
	// queues, steals, and coalescing. The serving engine hangs its
	// per-request record here so dispatch resolves the request with a
	// field read instead of a side-table lookup; queues and policies
	// ignore it, and the simulations leave it nil.
	Ref any
}

// Service is the expected service time on the given instance class.
func (t HybridTask) Service(class InstanceClass) time.Duration {
	if class == ClassDSCS {
		return t.DSCSService
	}
	return t.CPUService
}

// Policy selects which queued task a freed instance should run. It only
// decides: PickInto removes the selected task, writing it straight from
// its queue slot into the caller's destination, so a 72-byte task is
// copied once per dispatch however many layers hand it on.
type Policy interface {
	Name() string
	// Select reports the queue position (0 = head, arrival order) of the
	// task the given instance class should run next; ok is false when the
	// queue has nothing for it. It must not modify the queue. now is the
	// caller's clock (wall time on the live engine, virtual time in the
	// discrete-event simulation) on the same basis as HybridTask.Arrived;
	// policies use it to bound how long a task may be passed over.
	Select(q *HybridQueue, class InstanceClass, now time.Duration) (i int, ok bool)
}

// PickInto removes p's selection for the given class from q and writes it
// to *dst, reporting false (and leaving *dst untouched) when there is
// nothing to run. It is the one pick implementation: the serving core
// dispatches through it, and every policy's by-value Pick wraps it.
//
//dscslint:hotpath
func PickInto(p Policy, q *HybridQueue, class InstanceClass, now time.Duration, dst *HybridTask) bool {
	i, ok := p.Select(q, class, now)
	if ok {
		q.removeAt(i, dst)
	}
	return ok
}

// AgingMultiple bounds starvation under the estimate-ordered policy: once
// the oldest queued task has waited longer than AgingMultiple times its own
// expected service time on the picking class, it is scheduled next
// regardless of the policy's preference. Without this bound the ClassCPU
// side of CriticalityPolicy degenerates to pure shortest-job-first, and a
// steady stream of short requests starves a long one forever.
const AgingMultiple = 8

// agedHead reports whether the oldest queued task has waited past the
// aging bound for the given class. The queue preserves arrival order, so
// the head (position 0) is always the oldest.
func agedHead(q *HybridQueue, class InstanceClass, now time.Duration) bool {
	head := &q.live()[0]
	return now-head.Arrived > AgingMultiple*head.Service(class)
}

// HybridQueue is the bounded shared queue. The live window is
// tasks[head:]: a head dequeue — the FCFS fast path every dispatch takes —
// advances the index instead of sliding the whole backlog down, and the
// backlog compacts once the dead prefix is as long as the live window.
// That keeps head removal amortized O(1) where the previous slide was O(n)
// per dispatch — at depth 4096 the slide was the single largest cost on
// the serve hot path, dwarfing the scheduler itself. Storage grows only
// through grow: a full backing array whose live window fits in half of it
// slides the window down instead of growing, and otherwise grows by half,
// copying only the live window. So the backing array stays under three
// times the peak backlog, whatever the depth and however far the head has
// advanced, and reaching a peak of P > 8 tasks replaces it at most
// ⌈log1.5(P/4)⌉ times after its first allocation. Every slot outside the
// live window is the zero task, so a task that left the queue is not kept
// reachable through its Payload or Ref.
type HybridQueue struct {
	tasks   []HybridTask // live window is tasks[head:]
	head    int
	depth   int
	dropped int
}

// NewHybridQueue bounds the queue.
func NewHybridQueue(depth int) (*HybridQueue, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("sched: non-positive queue depth")
	}
	return &HybridQueue{depth: depth}, nil
}

// live is the queued window in arrival order. Index i here is the caller's
// queue position i (removeAt shares the convention).
func (q *HybridQueue) live() []HybridTask { return q.tasks[q.head:] }

// Submit enqueues; it reports false (drop) at the bound.
//
//dscslint:hotpath
func (q *HybridQueue) Submit(t HybridTask) bool {
	if q.Len() >= q.depth {
		q.dropped++
		return false
	}
	if len(q.tasks) == cap(q.tasks) {
		q.grow()
	}
	q.tasks = append(q.tasks, t)
	return true
}

// minQueueCap is the backing array's first allocation.
const minQueueCap = 8

// grow makes room for one more task at the tail of a full backing array
// without disturbing the live window's order; it may move the window (and
// head) down. A live window that fits in half of the array slides to the
// front, clearing the vacated tail; otherwise the array is replaced by one
// half again as large holding only the live window. Both are paid for by
// the submissions or removals that filled it (at least a third of the
// array), so appends stay amortized O(1), and neither copies the dead
// prefix.
//
// The factor is one and a half, not two, because what a queue allocates
// over a run is a step function of its peak backlog: the sum of the arrays
// it passed through. Doubling from minQueueCap would put those steps at
// the same powers of two for every run, each one doubling the sum, so two
// seeded replays whose peaks straddle one would allocate twice as much as
// each other. Growing by half makes each step half again instead. Growing by a
// quarter would smooth the steps further, but its arrays sum to five
// times the final one where growing by half sums to three.
func (q *HybridQueue) grow() {
	live := q.Len()
	if q.head > 0 && live <= cap(q.tasks)/2 {
		n := copy(q.tasks, q.tasks[q.head:])
		clear(q.tasks[n:])
		q.tasks = q.tasks[:n]
		q.head = 0
		return
	}
	c := cap(q.tasks)
	tasks := make([]HybridTask, live, max(c+c/2+1, minQueueCap))
	copy(tasks, q.tasks[q.head:])
	q.tasks = tasks
	q.head = 0
}

// Len is the queue occupancy.
func (q *HybridQueue) Len() int { return len(q.tasks) - q.head }

// Full reports whether the next Submit would drop.
func (q *HybridQueue) Full() bool { return q.Len() >= q.depth }

// Room is the number of Submits the bound still admits.
//
//dscslint:hotpath
func (q *HybridQueue) Room() int {
	if n := q.Len(); n < q.depth {
		return q.depth - n
	}
	return 0
}

// Any reports whether some queued task matches the predicate.
func (q *HybridQueue) Any(match func(HybridTask) bool) bool {
	return slices.ContainsFunc(q.live(), match)
}

// Dropped counts rejected tasks.
func (q *HybridQueue) Dropped() int { return q.dropped }

// Head returns the oldest queued task without removing it. The queue
// preserves arrival order, so the head is what the starvation aging bound
// (AgingMultiple) is measured against.
//
//dscslint:hotpath
func (q *HybridQueue) Head() (HybridTask, bool) {
	if q.Len() == 0 {
		return HybridTask{}, false
	}
	return q.live()[0], true
}

// compact reclaims the dead prefix once it is at least as long as the
// live window (an empty queue always qualifies). Amortized O(1): copying
// the L live tasks down is paid for by the L or more head-dequeues that
// built the prefix, and keying on the window rather than the bound keeps a
// deep queue with a short backlog from growing toward its bound.
func (q *HybridQueue) compact() {
	if n := q.Len(); q.head >= n {
		if n > 0 { // an emptied queue has nothing to move or clear
			copy(q.tasks, q.tasks[q.head:])
			clear(q.tasks[q.head:]) // the moved tasks' old slots; head >= n
		}
		q.tasks = q.tasks[:n]
		q.head = 0
	}
}

// removeAt extracts queue position i (0 = head) into *dst, preserving
// arrival order of the rest. Head removal advances the window; interior
// removal (the estimate-ordered policies' picks) slides only the tasks
// behind i.
func (q *HybridQueue) removeAt(i int, dst *HybridTask) {
	if i == 0 {
		*dst = q.tasks[q.head]
		q.tasks[q.head] = HybridTask{} // release the payload for the GC
		q.head++
		q.compact()
		return
	}
	at := q.head + i
	*dst = q.tasks[at]
	last := len(q.tasks) - 1
	copy(q.tasks[at:], q.tasks[at+1:])
	q.tasks[last] = HybridTask{}
	q.tasks = q.tasks[:last]
}

// TakeWhereInto removes up to max queued tasks matching the predicate,
// preserving arrival order, and appends them to dst. The serving engine
// uses it to coalesce same-benchmark invocations into one batched
// execution, handing a reused scratch buffer so coalescing never
// allocates. Once max matches are taken the remainder is kept wholesale —
// one memmove instead of a per-task scan.
//
//dscslint:hotpath
func (q *HybridQueue) TakeWhereInto(dst []HybridTask, max int, match func(HybridTask) bool) []HybridTask {
	if max <= 0 {
		return dst
	}
	taken := dst
	base := len(dst)
	liveView := q.live()
	kept := liveView[:0]
	i := 0
	for ; i < len(liveView); i++ {
		if len(taken)-base == max {
			break
		}
		if match(liveView[i]) {
			taken = append(taken, liveView[i])
		} else {
			kept = append(kept, liveView[i])
		}
	}
	if len(kept) == 0 {
		// Everything scanned was taken — a contiguous head prefix, the
		// shape every same-benchmark burst produces. Advance the window
		// instead of sliding the untouched remainder down: at depth 4096
		// that slide (with per-element write barriers) was half the serve
		// pipeline's CPU.
		clear(q.tasks[q.head : q.head+i])
		q.head += i
		q.compact()
		return taken
	}
	if i < len(liveView) {
		kept = append(kept, liveView[i:]...)
	}
	clear(liveView[len(kept):]) // the slid tasks' old slots
	q.tasks = q.tasks[:q.head+len(kept)]
	return taken
}

// TakePrefixInto removes up to max tasks from the head of the queue,
// stopping at the first task the predicate rejects, and appends them to
// dst — the steal path hands a reused scratch buffer here so rebalancing
// never allocates. A rebalancing pull drains the oldest backlog
// contiguously, so the donor queue keeps its arrival order and the aging
// bound stays measured against a genuine oldest task. A nil predicate
// accepts everything.
//
//dscslint:hotpath
func (q *HybridQueue) TakePrefixInto(dst []HybridTask, max int, match func(HybridTask) bool) []HybridTask {
	liveView := q.live()
	n := 0
	for n < max && n < len(liveView) {
		if match != nil && !match(liveView[n]) {
			break
		}
		n++
	}
	if n == 0 {
		return dst
	}
	dst = append(dst, liveView[:n]...)
	clear(q.tasks[q.head : q.head+n])
	q.head += n
	q.compact()
	return dst
}

// Restore reinserts a task that was removed (a policy pick the caller
// decided not to dispatch, or a task arriving via a steal), placing it by
// (Arrived, ID) so the queue's oldest-first invariant holds. It bypasses
// the admission bound: the task was already admitted somewhere, and a
// rebalance must never turn into a drop. A task older than the whole
// backlog reoccupies the dead prefix in O(1) when there is one.
//
//dscslint:hotpath
func (q *HybridQueue) Restore(t HybridTask) {
	liveView := q.live()
	i := sort.Search(len(liveView), func(i int) bool {
		if liveView[i].Arrived != t.Arrived {
			return liveView[i].Arrived > t.Arrived
		}
		return liveView[i].ID > t.ID
	})
	if i == 0 && q.head > 0 {
		q.head--
		q.tasks[q.head] = t
		return
	}
	if len(q.tasks) == cap(q.tasks) {
		q.grow()
	}
	at := q.head + i // grow may have moved the window
	q.tasks = append(q.tasks, HybridTask{})
	copy(q.tasks[at+1:], q.tasks[at:])
	q.tasks[at] = t
}

// RestoreAll reinserts a batch of removed tasks — the requeue op for
// in-flight work orphaned by a killed worker. Each task lands by
// (Arrived, ID), so arrival order and the AgingMultiple starvation bound
// survive a requeue regardless of how the batch was grouped. Batches
// arrive oldest-first (dispatch order); inserting back-to-front lets the
// older tasks take Restore's O(1) dead-prefix fast path.
//
//dscslint:hotpath
func (q *HybridQueue) RestoreAll(tasks []HybridTask) {
	for i := len(tasks) - 1; i >= 0; i-- {
		q.Restore(tasks[i])
	}
}

// FCFSPolicy is the deployed policy: head of line, any class.
type FCFSPolicy struct{}

// Name implements Policy.
func (FCFSPolicy) Name() string { return "fcfs" }

// Select implements Policy.
//
//dscslint:hotpath
func (FCFSPolicy) Select(q *HybridQueue, _ InstanceClass, _ time.Duration) (int, bool) {
	return 0, q.Len() > 0
}

// CriticalityPolicy sends the longest-running work (by CPU-time
// expectation) to DSCS instances and the shortest to CPUs, with an
// arrival-age bound (AgingMultiple) so neither extreme starves.
type CriticalityPolicy struct{}

// Name implements Policy.
func (CriticalityPolicy) Name() string { return "criticality" }

// Select implements Policy.
//
//dscslint:hotpath
func (CriticalityPolicy) Select(q *HybridQueue, class InstanceClass, now time.Duration) (int, bool) {
	if q.Len() == 0 {
		return 0, false
	}
	if agedHead(q, class, now) {
		return 0, true
	}
	liveView := q.live()
	best := 0
	for i := 1; i < len(liveView); i++ {
		if class == ClassDSCS {
			if liveView[i].CPUService > liveView[best].CPUService {
				best = i
			}
		} else {
			if liveView[i].CPUService < liveView[best].CPUService {
				best = i
			}
		}
	}
	return best, true
}

// Pick removes and returns the selected task (PickInto by value).
func (p CriticalityPolicy) Pick(q *HybridQueue, class InstanceClass, now time.Duration) (t HybridTask, ok bool) {
	ok = PickInto(p, q, class, now, &t)
	return t, ok
}
