// hybrid.go implements the paper's "future directions for optimized
// scheduling" (Section 5.3) over a heterogeneous pool of CPU and
// DSCS-capable instances:
//
//   - FCFS: the paper's deployed policy, class-blind.
//   - Criticality-aware: long-running functions go to DSCS instances, where
//     acceleration buys the most; short functions stay on CPUs.
//   - DAG-aware: applications with more acceleratable functions in their
//     chain get DSCS priority.
//
// The at-scale simulation (internal/cluster) replays traces against each
// policy; the paper hypothesizes and our reproduction confirms that both
// refinements beat plain FCFS when DSCS capacity is scarce.

package sched

import (
	"fmt"
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

// AgingMultiple bounds starvation under the estimate-ordered policies: once
// the oldest queued task has waited longer than AgingMultiple times its own
// expected service time on the picking class, it is scheduled next
// regardless of the policy's preference. Without this bound the ClassCPU
// side of CriticalityPolicy/DAGAwarePolicy degenerates to pure
// shortest-job-first, and a steady stream of short requests starves a long
// one forever.
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
// the serve hot path, dwarfing the scheduler itself — while the backing
// array stays bounded at about twice the peak backlog, whatever the depth.
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
	q.tasks = append(q.tasks, t)
	return true
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
	if q.head >= q.Len() {
		n := copy(q.tasks, q.tasks[q.head:])
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
	q.tasks = append(q.tasks[:at], q.tasks[at+1:]...)
}

// TakeWhere removes and returns up to max queued tasks matching the
// predicate, preserving arrival order. The serving engine uses it to
// coalesce same-benchmark invocations into one batched execution. Once max
// matches are taken the remainder is kept wholesale — one memmove instead
// of a per-task scan.
func (q *HybridQueue) TakeWhere(max int, match func(HybridTask) bool) []HybridTask {
	return q.TakeWhereInto(nil, max, match)
}

// TakeWhereInto is TakeWhere appending into dst — the batching hot path
// hands a reused scratch buffer here so coalescing never allocates.
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
	at := q.head + i
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

// Pick removes and returns the selected task (PickInto by value).
func (p FCFSPolicy) Pick(q *HybridQueue, class InstanceClass, now time.Duration) (t HybridTask, ok bool) {
	ok = PickInto(p, q, class, now, &t)
	return t, ok
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

// DAGAwarePolicy prioritizes applications with many acceleratable
// functions for DSCS instances (they amortize the in-storage chain best),
// with the same arrival-age bound as CriticalityPolicy.
type DAGAwarePolicy struct{}

// Name implements Policy.
func (DAGAwarePolicy) Name() string { return "dag-aware" }

// Select implements Policy.
//
//dscslint:hotpath
func (DAGAwarePolicy) Select(q *HybridQueue, class InstanceClass, now time.Duration) (int, bool) {
	if q.Len() == 0 {
		return 0, false
	}
	if agedHead(q, class, now) {
		return 0, true
	}
	liveView := q.live()
	best := 0
	for i := 1; i < len(liveView); i++ {
		ti, tb := &liveView[i], &liveView[best]
		if class == ClassDSCS {
			if ti.AccelFuncs > tb.AccelFuncs ||
				(ti.AccelFuncs == tb.AccelFuncs && ti.CPUService > tb.CPUService) {
				best = i
			}
		} else {
			if ti.AccelFuncs < tb.AccelFuncs ||
				(ti.AccelFuncs == tb.AccelFuncs && ti.CPUService < tb.CPUService) {
				best = i
			}
		}
	}
	return best, true
}

// Pick removes and returns the selected task (PickInto by value).
func (p DAGAwarePolicy) Pick(q *HybridQueue, class InstanceClass, now time.Duration) (t HybridTask, ok bool) {
	ok = PickInto(p, q, class, now, &t)
	return t, ok
}
