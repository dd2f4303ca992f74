// balancer.go is the one copy of the wait-keyed balance decision: MultiCore
// (the simulations) and the Engine (goroutine-backed pools) each own a
// balancer, and neither prices a peer, arms a latch or ranks a donor itself.
//
// The signal is queue delay: every dispatch records the served task's wait —
// arrival to dispatch — into the window digest of the pool that served it,
// held in a dense per-pool slot (a record or a read is an index and an
// atomic load, with no key to hash). Work moves away from a pool once its
// wait-p95 has diverged above what it would wait on a peer, past the
// metrics hysteresis bands (after the warm-up count, enter at
// AdoptEnterRatio, release within AdoptExitRatio) over one metrics.Latch
// per directed pool pair, so the decision flips once per genuine imbalance
// instead of flapping around the boundary.
//
// Pools are numbered by their owner, fixed at construction, and every tie
// goes to the lowest index: among equally priced spill targets, equally
// shallow reroute targets, equally deep donors and (through
// workflow.Placer) equally priced non-home pools. The Engine numbers its
// pools in name order, so there it is lowest name.
//
// The balancer owns no clock and no goroutine, and reads pools only through
// poolView, never with its own mutex held: an owner whose view takes a pool
// lock (the Engine's free-worker read) cannot deadlock against it.
//
// A decision reads each pool's price once: BalanceTarget ranks its peers by
// PricedWait and hands the winner's to the latch, StealDonor prices the
// thief for the first donor that needs it and reuses that for the rest —
// one free-worker read and one digest read per pool per decision, never a
// second look at a pool already priced.

package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"dscs/internal/metrics"
)

// WaitQuantile is the queue-delay quantile the balance decisions key on:
// the paper's load-balancing results hinge on tail wait, not mean depth.
const WaitQuantile = 0.95

// poolView is what the balance decision may know about pool i: whether it
// is dispatching (not browned out), its backlog of admitted work no worker
// has picked up, and whether a warm worker is unoccupied.
type poolView interface {
	healthy(i int) bool
	depth(i int) int
	hasFree(i int) bool
}

// balancer holds the balance state of one fixed pool set.
type balancer struct {
	view poolView
	// waits holds pool i's queue-delay window at index i, nil until the
	// pool's first dispatch and again after its death: a stolen task
	// charges its wait to the thief, not the queue it first landed on.
	// window sizes the windows created from here on.
	waits  []atomic.Pointer[metrics.Digest]
	window int
	warmup int64
	// latches holds one adoption latch per directed (from, to) pair at
	// from*n+to — per pair, not per digest as Digest.Adopt keeps, or N-way
	// comparisons would share state and depend on evaluation order. mu
	// guards it and is held only across a Latch call.
	mu      sync.Mutex
	latches []metrics.Latch
}

// init sizes the balancer for n pools. Non-positive window and warmup take
// the metrics defaults.
func (b *balancer) init(view poolView, n, window, warmup int) {
	b.view = view
	b.waits = make([]atomic.Pointer[metrics.Digest], n)
	b.tune(window, warmup)
}

// tune drops every wait window and releases every latch, dropping history;
// windows created afterwards use the new size. It must run before traffic.
func (b *balancer) tune(window, warmup int) {
	if window <= 0 {
		window = metrics.DefaultWindow
	}
	if warmup <= 0 {
		warmup = metrics.DefaultWarmup
	}
	b.window, b.warmup = window, int64(warmup)
	for i := range b.waits {
		b.waits[i].Store(nil)
	}
	b.mu.Lock()
	b.latches = make([]metrics.Latch, len(b.waits)*len(b.waits))
	b.mu.Unlock()
}

// digest returns pool i's wait window, creating it on first use.
func (b *balancer) digest(i int) *metrics.Digest {
	for {
		if dg := b.waits[i].Load(); dg != nil {
			return dg
		}
		b.waits[i].CompareAndSwap(nil, metrics.NewDigest(b.window))
	}
}

// record charges one served task's queue delay to pool i.
func (b *balancer) record(i int, wait time.Duration) {
	b.digest(i).Record(wait)
}

// recordBatch charges one dispatched batch's queue delays to pool i and
// returns the window (nil only for an empty batch on a fresh pool).
func (b *balancer) recordBatch(i int, waits []time.Duration) *metrics.Digest {
	if len(waits) == 0 {
		return b.waits[i].Load()
	}
	dg := b.digest(i)
	dg.RecordBatch(waits)
	return dg
}

// invalidate forgets what pool i's history armed, at its death: its wait
// window (a dead pool's recorded waits price a world that no longer
// exists) and, without counting a flip, every latch touching it — so
// decisions re-derive from live evidence.
func (b *balancer) invalidate(i int) {
	b.waits[i].Store(nil)
	n := len(b.waits)
	b.mu.Lock()
	for j := 0; j < n; j++ {
		b.latches[i*n+j].Reset()
		b.latches[j*n+i].Reset()
	}
	b.mu.Unlock()
}

// WaitDigest exposes pool i's queue-delay window (nil until its first
// dispatch, and again from its death until its next one).
func (b *balancer) WaitDigest(i int) *metrics.Digest {
	return b.waits[i].Load()
}

// WaitQuantileOf reads pool i's windowed queue-delay quantile (0 until the
// pool has dispatched).
func (b *balancer) WaitQuantileOf(i int, q float64) time.Duration {
	if dg := b.WaitDigest(i); dg != nil {
		return dg.Quantile(q)
	}
	return 0
}

// WarmedWait reads pool i's wait-p95 once its digest holds the warm-up
// count; below it nothing about the pool's waits is evidence yet — for the
// latch, and for the autoscalers' surge signal.
func (b *balancer) WarmedWait(i int) (time.Duration, bool) {
	dg := b.WaitDigest(i)
	if dg == nil || dg.Count() < b.warmup {
		return 0, false
	}
	return dg.Quantile(WaitQuantile), true
}

// Idle reports whether pool i could serve new work immediately: healthy,
// empty backlog, free worker — the locality placer's keep-it-local fast
// path. The free-worker read, the one an owner may lock for, comes last.
func (b *balancer) Idle(i int) bool {
	return b.view.healthy(i) && b.view.depth(i) == 0 && b.view.hasFree(i)
}

// PricedWait prices what moved work would wait on pool i right now: its
// recorded wait-p95 — except that an idle pool serves new work
// immediately, so it prices at zero whatever its digest holds. Without
// that a thief's digest poisons the gap signal: stolen tasks charge their
// whole arrival→dispatch wait to the pool that served them (the
// attribution the observability wants), so one rescue inflates the
// rescuer's p95 to the donor's level and the latch never re-enters while
// the backlog regrows.
//
// A dead pool's empty backlog and freed workers look exactly like
// idleness, so Idle checks health first and the pool prices at its digest
// — which invalidate forgot, so selection must also skip dead pools
// (BalanceTarget does; Overloaded refuses dead peers outright). A
// suspended (zero-warm) elastic pool has no free worker and prices at its
// digest too. The workflow placer ranks fallback pools with this same
// signal, so "least-priced wait" means one thing everywhere.
func (b *balancer) PricedWait(i int) time.Duration {
	if b.Idle(i) {
		return 0
	}
	return b.WaitQuantileOf(i, WaitQuantile)
}

// Overloaded is the adaptive-balance trigger: whether pool from's wait-p95
// has diverged above pool to's priced wait past the pair's latch. Below
// warm-up nothing moves, and only upward divergence ever arms the latch
// (metrics.Latch.Above). A peer priced at zero (idle, or never waited)
// adopts any warmed positive donor wait outright: queueing beside an idle
// pool is the clearest imbalance there is. A donor whose recent window
// holds no waits (work dispatches on arrival) never trips it, which is
// exactly the sensitivity static depth counts lack.
//
// Health short-circuits the wait evidence both ways. Toward a dead peer
// the answer is always no: work must not route into a grave. Out of a dead
// donor it is yes the moment it holds a backlog: its orphaned and requeued
// work has no workers coming back for it, so it escapes without latch,
// warm-up or digest evidence.
func (b *balancer) Overloaded(from, to int) bool {
	var peer price
	return b.overloaded(from, to, &peer)
}

// price is one pool's PricedWait within one decision: read on first use,
// reused after, so a loop over donors or peers prices a pool once.
type price struct {
	wait  time.Duration
	known bool
}

// overloaded is Overloaded over a peer price the caller may already hold.
// The peer is priced only after the donor proves warmed, so an unwarmed
// donor never costs the peer's free-worker read.
func (b *balancer) overloaded(from, to int, peer *price) bool {
	if !b.view.healthy(to) {
		return false
	}
	if !b.view.healthy(from) {
		return b.view.depth(from) > 0
	}
	donorWait, warmed := b.WarmedWait(from)
	if !warmed {
		return false
	}
	if !peer.known {
		peer.wait, peer.known = b.PricedWait(to), true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.latches[from*len(b.waits)+to].Above(donorWait, peer.wait)
}

// BalanceTarget picks the pool a submission aimed at from should go to
// instead: the one spill and reroute decision on both clocks. A dead from
// reroutes to its shallowest healthy eligible peer (shallowest). A live
// one spills to the eligible healthy peer with the lowest priced wait (the
// pricing the Overloaded gate applies — by raw digest p95 a
// rescue-contaminated idle pool would sort last and never be selected),
// but only when from's gap over that peer has latched. A spill routes
// around a backlog, so a live from pool with an empty queue never spills:
// the submission dispatches immediately anyway, and microscopic warmed
// waits beside a never-waited peer must not reroute it. A nil eligible
// accepts every other pool.
func (b *balancer) BalanceTarget(from int, eligible func(int) bool) (int, bool) {
	if !b.view.healthy(from) {
		return b.shallowest(from, eligible)
	}
	if b.view.depth(from) == 0 {
		return 0, false
	}
	best, found := 0, false
	var bestWait time.Duration
	for i := range b.waits {
		if i == from || (eligible != nil && !eligible(i)) || !b.view.healthy(i) {
			continue
		}
		if w := b.PricedWait(i); !found || w < bestWait {
			best, bestWait, found = i, w, true
		}
	}
	if !found || !b.overloaded(from, best, &price{wait: bestWait, known: true}) {
		return 0, false
	}
	return best, true
}

// shallowest is the dead-home reroute: the eligible healthy peer with the
// shallowest backlog. Anything admitted to a dead pool waits for recovery
// or rescue, so the reroute needs no backlog, warm-up or latch.
func (b *balancer) shallowest(from int, eligible func(int) bool) (int, bool) {
	best, bestDepth, found := 0, 0, false
	for i := range b.waits {
		if i == from || (eligible != nil && !eligible(i)) || !b.view.healthy(i) {
			continue
		}
		if d := b.view.depth(i); !found || d < bestDepth {
			best, bestDepth, found = i, d, true
		}
	}
	return best, found
}

// StealDonor picks the pool an idle thief should pull queued work from:
// the eligible peer with the deepest backlog whose gap over the thief has
// latched. A nil eligible accepts every other pool. A dead thief never
// steals; a dead donor with a backlog always qualifies (Overloaded's
// dead-donor fast path) — stealing is how its orphans get rescued.
func (b *balancer) StealDonor(to int, eligible func(int) bool) (int, bool) {
	if !b.view.healthy(to) {
		return 0, false
	}
	donor, deepest, found := 0, 0, false
	var thief price
	for i := range b.waits {
		if i == to || (eligible != nil && !eligible(i)) {
			continue
		}
		depth := b.view.depth(i)
		if depth == 0 || !b.overloaded(i, to, &thief) {
			continue
		}
		if !found || depth > deepest {
			donor, deepest, found = i, depth, true
		}
	}
	return donor, found
}
