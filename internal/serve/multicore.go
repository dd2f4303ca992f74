// multicore.go is the N-pool core with per-pool backlogs: every pool owns
// its backlog and workers (a PoolCore) — or drains an earlier pool's backlog
// (PoolSpec.Backlog, the classic one-queue-two-classes layout) — with
// submit-time spillover and drain-time stealing between any pair. The
// wait-keyed balance decisions are the embedded balancer's (balancer.go);
// this file keeps each pool's queue-delay window — a single-owner
// metrics.Window, fed each dispatch's wait — and answers the balancer's pool
// view.
// Like the rest of the scheduling core it owns no goroutines and no clock —
// the discrete-event simulations drive it from virtual time.

package serve

import (
	"fmt"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/sched"
)

// PoolSpec describes one MultiCore member pool. Zero workers is allowed (a
// pool may exist purely as a backlog another class drains), but at least
// one worker must exist across the core.
type PoolSpec struct {
	// Name labels the pool (the platform label on wait statistics and
	// telemetry). Must be unique within the core.
	Name string
	// Class is the pool's instance class; policies and service estimates
	// are class-keyed, and rebalancing may cross or stay within a class.
	Class sched.InstanceClass
	// Workers is the pool size; QueueDepth bounds its admission queue.
	Workers, QueueDepth int
	// Policy selects queued work for free workers (nil = FCFS).
	Policy sched.Policy
	// Backlog names an earlier pool whose queue this pool's workers drain
	// instead of owning one (QueueDepth is then unused): every class sees
	// every queued task, so neither idles while work waits. Empty gives the
	// pool its own backlog.
	Backlog string
}

// MultiCore is the N-pool scheduling state machine: per-pool backlogs and
// workers with submit-time spillover and drain-time stealing between any
// pair of pools, so multiple same-class pools (several CPU platforms, say)
// rebalance with the same wait-keyed logic as a CPU/DSCS pair. Not safe for concurrent use on its own; callers
// serialize access (the simulations are single-threaded).
type MultiCore struct {
	// balancer prices, latches and ranks, reading waits through the view.
	balancer
	pools []*PoolCore
	specs []PoolSpec
	// waits holds pool i's queue-delay window: each successful dispatch
	// (and coalesce) records the served task's arrival→dispatch wait into
	// it. Nil until the pool's first dispatch and again after its death;
	// window sizes the windows made from here on.
	waits  []*metrics.Window
	window int
	// submitted counts admissions at the core level exactly once, however
	// many times a task later moves between pools (spill, then steal): the
	// per-pool counters transfer on a steal, this one never does.
	submitted int
	stolen    int
	// faults counts FailPool transitions; requeued counts tasks returned
	// to their queue by Requeue across the pool set.
	faults, requeued int
}

// NewMultiCore builds the N-pool core. Wait windows use the default
// window/warmup; SetWaitTuning retunes them before traffic.
func NewMultiCore(specs []PoolSpec) (*MultiCore, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: empty multi-pool core")
	}
	total := 0
	m := &MultiCore{specs: append([]PoolSpec(nil), specs...)}
	for i, s := range m.specs {
		if s.Name == "" || m.Index(s.Name) != i {
			return nil, fmt.Errorf("serve: multi-pool names must be unique and non-empty (%q)", s.Name)
		}
		if s.Workers < 0 {
			return nil, fmt.Errorf("serve: pool %q has negative workers", s.Name)
		}
		total += s.Workers
		policy := s.Policy
		if policy == nil {
			policy = sched.FCFSPolicy{}
		}
		p := &PoolCore{policy: policy, class: s.Class, free: s.Workers, total: s.Workers}
		if s.Backlog == "" {
			q, err := sched.NewHybridQueue(s.QueueDepth)
			if err != nil {
				return nil, err
			}
			p.queue = q
		} else {
			// An earlier pool that owns its queue: no chains, no cycles.
			owner := m.Index(s.Backlog)
			if owner < 0 || owner >= i || m.specs[owner].Backlog != "" {
				return nil, fmt.Errorf("serve: pool %q drains backlog %q, which is not an earlier pool with its own queue", s.Name, s.Backlog)
			}
			p.queue = m.pools[owner].queue
			p.sharedQueue, m.pools[owner].sharedQueue = true, true
		}
		m.pools = append(m.pools, p)
	}
	if total == 0 {
		return nil, fmt.Errorf("serve: multi-pool core has no workers")
	}
	m.waits = make([]*metrics.Window, len(specs))
	m.balancer.init(m, len(specs), 0)
	return m, nil
}

// healthy, depth, hasFree and wait are the balancer's view of pool i.
func (m *MultiCore) healthy(i int) bool { return m.pools[i].Healthy() }
func (m *MultiCore) depth(i int) int    { return m.pools[i].QueueLen() }
func (m *MultiCore) hasFree(i int) bool { return m.pools[i].free > 0 }

func (m *MultiCore) wait(i int, q float64) (int64, time.Duration) {
	if w := m.waits[i]; w != nil {
		return w.Count(), w.Quantile(q)
	}
	return 0, 0
}

// record charges one served task's queue delay to pool i.
func (m *MultiCore) record(i int, wait time.Duration) {
	w := m.waits[i]
	if w == nil {
		w = metrics.NewWindow(m.window)
		m.waits[i] = w
	}
	w.Record(wait)
}

// WaitWindow exposes pool i's queue-delay window (nil until its first
// dispatch, and again from its death until its next one).
func (m *MultiCore) WaitWindow(i int) *metrics.Window { return m.waits[i] }

// SetWaitTuning retunes the wait windows' size and warmup (defaults
// metrics.DefaultWindow/DefaultWarmup when non-positive). It must be called
// before any dispatch: retuning drops every wait window, and history with it.
func (m *MultiCore) SetWaitTuning(window, warmup int) {
	m.window = window
	clear(m.waits)
	m.tune(warmup)
}

// Pools reports the pool count.
func (m *MultiCore) Pools() int { return len(m.pools) }

// Pool exposes one member pool.
func (m *MultiCore) Pool(i int) *PoolCore { return m.pools[i] }

// Index resolves a pool name to its index (-1 when unknown).
func (m *MultiCore) Index(name string) int {
	for i, s := range m.specs {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// SubmitTo admits a task onto pool i's backlog; it reports false (drop) at
// that backlog's bound.
//
//dscslint:hotpath
func (m *MultiCore) SubmitTo(i int, t sched.HybridTask) bool {
	if !m.pools[i].Submit(t) {
		return false
	}
	m.submitted++
	return true
}

// Dispatch hands pool i's policy pick to one of its free workers and
// records the task's queue delay against the pool. It ignores an attached
// BatchFormer, like PoolCore.Dispatch.
//
//dscslint:hotpath
func (m *MultiCore) Dispatch(i int, now time.Duration) (t sched.HybridTask, ok bool) {
	ok, _, _ = m.dispatch(i, now, &t, false)
	return t, ok
}

// DispatchFormed is Dispatch gated by pool i's attached BatchFormer (see
// PoolCore.DispatchFormed), writing the released task through t: storage
// the caller owns and reuses, so a replay's dispatch copies each task once.
// *t is meaningful only when ok. A released task records its queue delay —
// including the forming hold — against the pool.
//
//dscslint:hotpath
func (m *MultiCore) DispatchFormed(i int, now time.Duration, t *sched.HybridTask) (ok bool, wake time.Duration, wakeOK bool) {
	return m.dispatch(i, now, t, true)
}

// dispatch runs pool i's dispatch (PoolCore.dispatch) and charges a
// released task's queue delay — arrival to dispatch at now — to the pool
// that served it. A task stolen across pools therefore charges the thief
// (the pool that actually freed it), while its Arrived instant survives
// every move.
func (m *MultiCore) dispatch(i int, now time.Duration, t *sched.HybridTask, formed bool) (ok bool, wake time.Duration, wakeOK bool) {
	ok, wake, wakeOK = m.pools[i].dispatch(now, t, formed)
	if ok {
		m.record(i, now-t.Arrived)
	}
	return ok, wake, wakeOK
}

// Coalesce batches up to max matching queued tasks of pool i onto its just
// dispatched worker, recording each coalesced task's queue delay at now
// (coalescing ends a task's wait exactly as a dispatch does).
//
//dscslint:hotpath
func (m *MultiCore) Coalesce(i int, now time.Duration, max int, match func(sched.HybridTask) bool) []sched.HybridTask {
	taken := m.pools[i].Coalesce(max, match)
	for j := range taken {
		m.record(i, now-taken[j].Arrived)
	}
	return taken
}

// Complete retires n tasks from pool i and frees their worker.
func (m *MultiCore) Complete(i, n int) { m.pools[i].Complete(n) }

// FailPool browns pool i out at now (see PoolCore.Fail) and invalidates
// the balance state its history armed: the pool's wait window is dropped
// — a dead pool's recorded waits price a world that no longer exists —
// and every hysteresis latch involving it is released without counting a
// flip, so spill/steal decisions re-derive from live evidence instead of
// the grave's history. Idempotent while dead.
func (m *MultiCore) FailPool(i int, now time.Duration) {
	p := m.pools[i]
	if !p.Healthy() {
		return
	}
	p.Fail(now)
	m.faults++
	m.waits[i] = nil
	m.invalidate(i)
}

// RecoverPool ends pool i's brown-out at now (see PoolCore.Recover). The
// wait window stays forgotten: the recovered pool re-warms its balance
// evidence from scratch.
func (m *MultiCore) RecoverPool(i int, now time.Duration) {
	m.pools[i].Recover(now)
}

// Healthy reports whether pool i is dispatching.
func (m *MultiCore) Healthy(i int) bool { return m.pools[i].Healthy() }

// Requeue returns one execution's in-flight tasks to pool i's queue (see
// PoolCore.Requeue — at-most-once accounting, arrival order preserved).
func (m *MultiCore) Requeue(i int, tasks []sched.HybridTask) {
	m.pools[i].Requeue(tasks)
	m.requeued += len(tasks)
}

// Faults counts FailPool transitions; Requeued counts tasks returned to
// their queue across the pool set.
func (m *MultiCore) Faults() int   { return m.faults }
func (m *MultiCore) Requeued() int { return m.requeued }

// Steal moves up to max of pool from's oldest queued tasks onto pool to's
// backlog (see PoolCore.StealFrom: arrival instants and submission
// accounting move with the tasks, capped at the thief's queue room).
//
//dscslint:hotpath
func (m *MultiCore) Steal(from, to, max int) []sched.HybridTask {
	if from == to {
		return nil
	}
	moved := m.pools[to].StealFrom(m.pools[from], max)
	m.stolen += len(moved)
	return moved
}

// QueueLen totals queue occupancy across pools, a shared backlog counted
// once (on the pool that owns it).
func (m *MultiCore) QueueLen() int {
	n := 0
	for i, p := range m.pools {
		if m.specs[i].Backlog == "" {
			n += p.QueueLen()
		}
	}
	return n
}

// Dropped totals admission rejections across pools, a shared backlog
// counted once.
func (m *MultiCore) Dropped() int {
	n := 0
	for i, p := range m.pools {
		if m.specs[i].Backlog == "" {
			n += p.Dropped()
		}
	}
	return n
}

// Completed totals retired tasks across pools.
func (m *MultiCore) Completed() int {
	n := 0
	for _, p := range m.pools {
		n += p.Completed()
	}
	return n
}

// Stolen counts tasks moved between pools by Steal.
func (m *MultiCore) Stolen() int { return m.stolen }

// Conservation checks the bookkeeping invariant across the pool set: every
// admitted task is queued, executing, or completed on exactly one pool, and
// a task that moved twice (spilled at submit, then stolen at drain) still
// counts exactly once — the core-level submission counter never follows
// moves, so a double-moved task that was double-counted would surface here
// as a sum mismatch.
func (m *MultiCore) Conservation() error {
	poolSubmitted := 0
	for i, p := range m.pools {
		if err := p.Conservation(); err != nil {
			return fmt.Errorf("pool %s: %w", m.specs[i].Name, err)
		}
		poolSubmitted += p.submitted
	}
	if poolSubmitted != m.submitted {
		return fmt.Errorf("serve: multi conservation violated: pools account %d submissions, core admitted %d",
			poolSubmitted, m.submitted)
	}
	accounted := m.QueueLen() + m.running() + m.Completed()
	if m.submitted != accounted {
		return fmt.Errorf("serve: multi conservation violated: %d submitted != %d queued + %d running + %d completed",
			m.submitted, m.QueueLen(), m.running(), m.Completed())
	}
	return nil
}

// running totals tasks currently executing across pools.
func (m *MultiCore) running() int {
	n := 0
	for _, p := range m.pools {
		n += p.Running()
	}
	return n
}
