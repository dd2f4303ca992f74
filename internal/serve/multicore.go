// multicore.go is the N-pool core with per-pool backlogs. It closes the
// load-balancing loop on *queue delay*: every pool owns its backlog and
// workers (a PoolCore), and the core records each task's wait
// time — arrival to dispatch — into a per-pool digest keyed {platform,
// class} (metrics.Observatory). Those wait digests are what the adaptive
// spillover/steal machinery consumes: instead of static queue-depth counts,
// a pool is rebalanced away from when its adopted wait-p95 has diverged
// above a peer's past the metrics hysteresis bands (Digest.Adopt's ratios
// over one metrics.Latch per pool pair), and rebalanced toward while its
// waits stay flat. Like the rest of the
// scheduling core it owns no goroutines and no clock — the discrete-event
// simulations drive it from virtual time, and the live engine applies the
// same wait-gap decision (waitGapLatched) to its own goroutine-backed
// pools.

package serve

import (
	"fmt"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/sched"
)

// WaitQuantile is the queue-delay quantile the balance decisions key on:
// the paper's load-balancing results hinge on tail wait, not mean depth.
const WaitQuantile = 0.95

// PoolSpec describes one MultiCore member pool. Zero workers is allowed (a
// pool may exist purely as a backlog another class drains), but at least
// one worker must exist across the core.
type PoolSpec struct {
	// Name labels the pool (the platform label on wait digests and
	// telemetry). Must be unique within the core.
	Name string
	// Class is the pool's instance class; policies and service estimates
	// are class-keyed, and rebalancing may cross or stay within a class.
	Class sched.InstanceClass
	// Workers is the pool size; QueueDepth bounds its admission queue.
	Workers, QueueDepth int
	// Policy selects queued work for free workers (nil = FCFS).
	Policy sched.Policy
}

// MultiCore is the N-pool scheduling state machine: per-pool backlogs and
// workers with submit-time spillover and drain-time stealing between any
// pair of pools, so multiple same-class pools (several CPU platforms, say)
// rebalance with the same wait-keyed logic as a CPU/DSCS pair. Not safe for concurrent use on its own; callers
// serialize access (the simulations are single-threaded).
type MultiCore struct {
	pools []*PoolCore
	specs []PoolSpec
	// waits is the queue-delay observatory keyed {platform, class}: each
	// successful dispatch (and coalesce) records the served task's
	// arrival→dispatch wait against the pool that served it — a stolen
	// task charges its wait to the thief, not the queue it first landed on.
	waits  *metrics.Observatory
	warmup int64
	// latches holds one adoption latch per directed (donor, peer) pair:
	// Digest.Adopt keeps a single latch per digest, which is right for one
	// stable prior but would make N-way pairwise comparisons share state
	// and depend on evaluation order.
	latches map[[2]int]*metrics.Latch
	// submitted counts admissions at the core level exactly once, however
	// many times a task later moves between pools (spill, then steal): the
	// per-pool counters transfer on a steal, this one never does.
	submitted int
	stolen    int
	// faults counts FailPool transitions; requeued counts tasks returned
	// to their queue by Requeue across the pool set.
	faults, requeued int
}

// NewMultiCore builds the N-pool core. Wait digests use the default
// window/warmup; SetWaitTuning retunes them before traffic.
func NewMultiCore(specs []PoolSpec) (*MultiCore, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: empty multi-pool core")
	}
	total := 0
	seen := make(map[string]bool, len(specs))
	m := &MultiCore{
		specs:   append([]PoolSpec(nil), specs...),
		waits:   metrics.NewObservatory(0, 0),
		warmup:  metrics.DefaultWarmup,
		latches: make(map[[2]int]*metrics.Latch),
	}
	for _, s := range m.specs {
		if s.Name == "" || seen[s.Name] {
			return nil, fmt.Errorf("serve: multi-pool names must be unique and non-empty (%q)", s.Name)
		}
		seen[s.Name] = true
		if s.Workers < 0 {
			return nil, fmt.Errorf("serve: pool %q has negative workers", s.Name)
		}
		total += s.Workers
		q, err := sched.NewHybridQueue(s.QueueDepth)
		if err != nil {
			return nil, err
		}
		policy := s.Policy
		if policy == nil {
			policy = sched.FCFSPolicy{}
		}
		m.pools = append(m.pools, &PoolCore{
			queue: q, policy: policy, class: s.Class,
			free: s.Workers, total: s.Workers,
		})
	}
	if total == 0 {
		return nil, fmt.Errorf("serve: multi-pool core has no workers")
	}
	return m, nil
}

// SetWaitTuning retunes the wait digests' window and warmup (defaults
// metrics.DefaultWindow/DefaultWarmup when non-positive). It must be called
// before any dispatch: retuning replaces the observatory, dropping history.
func (m *MultiCore) SetWaitTuning(window, warmup int) {
	m.waits = metrics.NewObservatory(window, warmup)
	m.warmup = m.waits.Warmup()
	m.latches = make(map[[2]int]*metrics.Latch)
}

// Pools reports the pool count.
func (m *MultiCore) Pools() int { return len(m.pools) }

// Pool exposes one member pool.
func (m *MultiCore) Pool(i int) *PoolCore { return m.pools[i] }

// Spec returns one pool's descriptor.
func (m *MultiCore) Spec(i int) PoolSpec { return m.specs[i] }

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

// recordWait charges a served task's queue delay — arrival to dispatch at
// now — to the pool that served it. A task stolen across pools therefore
// charges the thief (the pool that actually freed it), while its Arrived
// instant survives every move.
func (m *MultiCore) recordWait(i int, now time.Duration, t sched.HybridTask) {
	m.waits.Record(m.specs[i].Name, m.specs[i].Class.String(), now-t.Arrived)
}

// Dispatch hands pool i's policy pick to one of its free workers and
// records the task's queue delay against the pool.
//
//dscslint:hotpath
func (m *MultiCore) Dispatch(i int, now time.Duration) (sched.HybridTask, bool) {
	t, ok := m.pools[i].Dispatch(now)
	if ok {
		m.recordWait(i, now, t)
	}
	return t, ok
}

// DispatchFormed is Dispatch gated by pool i's attached BatchFormer (see
// PoolCore.DispatchFormed); a released task records its queue delay —
// including the forming hold — against the pool.
//
//dscslint:hotpath
func (m *MultiCore) DispatchFormed(i int, now time.Duration) (t sched.HybridTask, ok bool, wake time.Duration, wakeOK bool) {
	t, ok, wake, wakeOK = m.pools[i].DispatchFormed(now)
	if ok {
		m.recordWait(i, now, t)
	}
	return t, ok, wake, wakeOK
}

// Coalesce batches up to max matching queued tasks of pool i onto its just
// dispatched worker, recording each coalesced task's queue delay at now
// (coalescing ends a task's wait exactly as a dispatch does).
//
//dscslint:hotpath
func (m *MultiCore) Coalesce(i int, now time.Duration, max int, match func(sched.HybridTask) bool) []sched.HybridTask {
	taken := m.pools[i].Coalesce(max, match)
	for _, t := range taken {
		m.recordWait(i, now, t)
	}
	return taken
}

// Complete retires n tasks from pool i and frees their worker.
func (m *MultiCore) Complete(i, n int) { m.pools[i].Complete(n) }

// FailPool browns pool i out at now (see PoolCore.Fail) and invalidates
// the balance state its history armed: the pool's wait digest is dropped
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
	m.waits.Forget(m.specs[i].Name)
	for k, l := range m.latches {
		if k[0] == i || k[1] == i {
			l.Reset()
		}
	}
}

// RecoverPool ends pool i's brown-out at now (see PoolCore.Recover). The
// wait digest stays forgotten: the recovered pool re-warms its balance
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

// AdvanceLifecycles drives every attached pool lifecycle to now (see
// PoolCore.AdvanceLifecycle) and reports whether any pool's capacity
// changed — the sims re-drive dispatch when it did. Pools without a
// lifecycle are untouched, so a fixed MultiCore behaves bit-identically.
// Capacity changes move total/free in lockstep, which the balance
// machinery sees immediately: peerWait's idle fast path needs free > 0,
// so a suspended (zero-warm) pool prices at its digest, never at zero.
func (m *MultiCore) AdvanceLifecycles(now time.Duration) bool {
	changed := false
	for _, p := range m.pools {
		if p.AdvanceLifecycle(now) {
			changed = true
		}
	}
	return changed
}

// NextLifecycleEvent reports the earliest pending lifecycle event across
// the pool set — the instant a sim should schedule its next lifecycle
// drive at.
func (m *MultiCore) NextLifecycleEvent() (time.Duration, bool) {
	var at time.Duration
	ok := false
	for _, p := range m.pools {
		lc := p.Lifecycle()
		if lc == nil {
			continue
		}
		if evt, has := lc.NextEvent(); has && (!ok || evt < at) {
			at, ok = evt, true
		}
	}
	return at, ok
}

// WaitDigest exposes pool i's queue-delay digest (nil until its first
// dispatch).
func (m *MultiCore) WaitDigest(i int) *metrics.Digest {
	return m.waits.Digest(m.specs[i].Name, m.specs[i].Class.String())
}

// WaitQuantileOf reads pool i's windowed queue-delay quantile (0 until the
// pool has dispatched).
func (m *MultiCore) WaitQuantileOf(i int, q float64) time.Duration {
	if dg := m.WaitDigest(i); dg != nil {
		return dg.Quantile(q)
	}
	return 0
}

// Overloaded is the adaptive-balance trigger: it reports whether pool
// from's adopted wait-p95 has diverged above pool to's past the hysteresis
// latch (warmup, then enter at 1.5x, release within 1.2x), so the decision
// flips once per genuine imbalance instead of flapping around the
// boundary. Each directed pool pair owns its latch.
//
// Health short-circuits the wait evidence in both directions. Toward a
// dead peer the answer is always no — however overloaded the donor, work
// must not route into a grave. Out of a dead donor the answer is yes the
// moment it holds a backlog: its orphaned and requeued work has no
// workers coming back for it, so it escapes without the latch, the
// warmup, or any digest evidence (a dead pool's digest was forgotten
// anyway).
func (m *MultiCore) Overloaded(from, to int) bool {
	if !m.Healthy(to) {
		return false
	}
	if !m.Healthy(from) {
		return m.pools[from].QueueLen() > 0
	}
	return waitGapLatched(m.WaitDigest(from), m.latch(from, to), m.peerWait(to), m.warmup)
}

// latch returns the directed (from, to) pair's adoption latch, created on
// first use.
func (m *MultiCore) latch(from, to int) *metrics.Latch {
	k := [2]int{from, to}
	l := m.latches[k]
	if l == nil {
		l = &metrics.Latch{}
		m.latches[k] = l
	}
	return l
}

// peerWait prices what moved work would wait on pool i right now: its
// recorded wait-p95 — except that an idle pool (empty backlog, free
// worker) serves new work immediately, so it prices at zero no matter what
// its digest holds. Without the idle fast path a thief's digest poisons
// the gap signal: stolen tasks charge their whole arrival→dispatch wait to
// the pool that served them (the attribution the observability wants), so
// one rescue inflates the rescuer's p95 to the donor's level and the latch
// never re-enters while the backlog regrows.
//
// The health bit is checked before the idle fast path: a dead pool's
// empty backlog and freed workers look exactly like idleness ("idle →
// 0 wait") and would make it the most attractive target in every
// ranking, so it prices at its digest instead — and since FailPool
// forgot that digest, selection must additionally skip dead pools
// (BalanceTarget does; Overloaded refuses dead peers outright).
func (m *MultiCore) peerWait(i int) time.Duration {
	p := m.pools[i]
	if p.Healthy() && p.QueueLen() == 0 && p.free > 0 {
		return 0
	}
	return m.WaitQuantileOf(i, WaitQuantile)
}

// PricedWait exposes peerWait's pricing to external placement policies —
// the workflow locality placer ranks fallback pools with the same signal
// the balance machinery uses, so "least-priced wait" means one thing
// everywhere.
func (m *MultiCore) PricedWait(i int) time.Duration { return m.peerWait(i) }

// Idle reports whether pool i could serve new work immediately: healthy,
// empty backlog, free worker — the locality placer's keep-it-local fast
// path.
func (m *MultiCore) Idle(i int) bool {
	p := m.pools[i]
	return p.Healthy() && p.QueueLen() == 0 && p.free > 0
}

// BalanceTarget picks the pool a submission aimed at from should spill to:
// the eligible peer with the lowest priced wait (peerWait — an idle pool
// prices at zero however contaminated its digest; ties to the lowest
// index), but only when from's adopted wait-p95 gap over that peer has
// latched. A spill routes around a backlog, so a from pool with an empty
// queue never spills — without work queued ahead of it the submission
// dispatches immediately anyway, and microscopic warmed waits beside a
// never-waited peer must not reroute it. A nil eligible accepts every
// other pool.
func (m *MultiCore) BalanceTarget(from int, eligible func(int) bool) (int, bool) {
	if m.pools[from].QueueLen() == 0 {
		return 0, false
	}
	best, found := 0, false
	var bestWait time.Duration
	for i := range m.pools {
		if i == from || (eligible != nil && !eligible(i)) || !m.Healthy(i) {
			continue
		}
		// Rank by the same pricing the Overloaded gate applies: ranking by
		// raw digest p95 would let a rescue-contaminated idle pool sort
		// last and never be selected.
		w := m.peerWait(i)
		if !found || w < bestWait {
			best, bestWait, found = i, w, true
		}
	}
	if !found || !m.Overloaded(from, best) {
		return 0, false
	}
	return best, true
}

// StealDonor picks the pool an idle thief should pull queued work from: the
// eligible peer with the deepest backlog whose adopted wait-p95 gap over
// the thief has latched. A nil eligible accepts every other pool. A dead
// thief never steals; a dead donor with a backlog always qualifies
// (Overloaded's dead-donor fast path) — stealing is how its orphans get
// rescued.
func (m *MultiCore) StealDonor(to int, eligible func(int) bool) (int, bool) {
	if !m.Healthy(to) {
		return 0, false
	}
	donor, found := 0, false
	deepest := 0
	for i, p := range m.pools {
		if i == to || (eligible != nil && !eligible(i)) || p.QueueLen() == 0 {
			continue
		}
		if !m.Overloaded(i, to) {
			continue
		}
		if !found || p.QueueLen() > deepest {
			donor, deepest, found = i, p.QueueLen(), true
		}
	}
	return donor, found
}

// QueueLen totals queue occupancy across pools.
func (m *MultiCore) QueueLen() int {
	n := 0
	for _, p := range m.pools {
		n += p.QueueLen()
	}
	return n
}

// Dropped totals admission rejections across pools.
func (m *MultiCore) Dropped() int {
	n := 0
	for _, p := range m.pools {
		n += p.Dropped()
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

// waitGapLatched is the shared wait-keyed balance decision: whether donor's
// adopted wait-p95 has diverged above the peer's priced wait past the
// hysteresis latch. It applies the Digest.Adopt bands one-sidedly
// (metrics.Latch.Above) over a latch owned by the (donor, peer) pair:
// below warmup nothing moves, and once warmed the latch enters at
// AdoptEnterRatio and releases within AdoptExitRatio — only upward
// divergence ever arms it. A peer priced at zero (idle, or never waited)
// adopts any warmed positive donor wait outright: queueing beside an idle
// pool is the clearest imbalance there is. A donor whose recent window
// holds no waits (p95 zero — work dispatches on arrival) never trips the
// latch, which is exactly the wait-keyed sensitivity the static depth
// counts lack.
func waitGapLatched(donor *metrics.Digest, latch *metrics.Latch, peerWait time.Duration, warmup int64) bool {
	if donor == nil || donor.Count() < warmup {
		return false
	}
	return latch.Above(donor.Quantile(WaitQuantile), peerWait)
}
