// lifecycle.go is the worker lifecycle state machine: the clock-free
// accounting of how much of a pool's capacity is actually warm. A fixed
// pool is the degenerate case (Min == Max, nothing ever warms or
// suspends); an elastic pool moves slots between cold, warming, warm,
// lingering, and suspended as an autoscaler (internal/scale) raises and
// lowers the desired capacity. Like the rest of the serve core it owns
// no goroutines and no clock: the live Engine drives it with wall time
// and arms timers at NextEvent, while the discrete-event simulations
// drive the identical code from their virtual clocks — the one-scheduler
// rule extends to the one-lifecycle rule.
//
// States and transitions:
//
//	cold/suspended --SetDesired raise--> warming --ColdStart elapses--> warm
//	warm (idle)    --IdleLinger elapses with surplus--> suspended
//	warming        --SetDesired drop--> cold (cancelled, no cold start paid)
//
// "Lingering" is not a separate pool: it is a warm slot that has been
// idle since some instant and carries a suspend deadline. A slot only
// suspends when three things hold at its deadline: the pool has surplus
// (warm+warming > desired), the slot is genuinely idle (warm > busy),
// and the floor stays intact (warm > Min). Warming pays the configured
// cold-start penalty — the container pull plus the CompileCached miss —
// charged through the caller's clock, so the sims and the live engine
// price it identically.

package serve

import (
	"fmt"
	"time"

	"dscs/internal/scale"
)

// Lifecycle is the state machine for one pool's capacity. Slots are
// fungible — it tracks counts and deadlines, not worker identities.
// Like PoolCore it is not safe for concurrent use; whatever serializes
// the core serializes its lifecycle.
type Lifecycle struct {
	cfg     scale.Config    // Min, Max, ColdStart and IdleLinger; Mode is the autoscaler's
	warm    int             // dispatchable slots (includes lingering idle)
	warming []time.Duration // readyAt instants, ascending (appends use a monotone clock)
	desired int             // autoscaler target for warm+warming, clamped to [Min, Max]

	// idle holds the suspend deadlines of currently idle warm slots,
	// ascending. Reconciliation is LIFO: when slots become busy the
	// newest deadlines pop first, so the longest-idle slot keeps aging
	// toward suspension.
	idle []time.Duration

	// busy is the occupancy reported by the last advance; the idle
	// integral charges each interval with the state that held during it.
	busy   int
	lastAt time.Duration

	coldStarts int
	suspends   int
	// idleCost integrates (warm - busy) dt: the worker-time the pool
	// kept warm but unused — the cost axis the elastic goldens compare.
	idleCost float64 // worker-seconds
	// frozen disables suspension: the engine's Close drain must not
	// park capacity while queues still hold work.
	frozen bool
	// quenched pins the machine while its pool is browned out: warming
	// was cancelled, and no new warming or suspension may start until
	// Unquench. The opposite of frozen (which promotes warming and
	// guarantees capacity so a drain can finish): a dead pool must not
	// have a pending cold-start timer resurrect capacity into it.
	quenched bool
}

// newLifecycle builds the state machine with initialWarm slots already
// warm at now (no cold start charged for them) and the rest cold.
// PoolCore.AttachElastic is its one caller outside the tests.
func newLifecycle(cfg scale.Config, initialWarm int, now time.Duration) (*Lifecycle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if initialWarm < cfg.Min {
		initialWarm = cfg.Min
	}
	if initialWarm > cfg.Max {
		initialWarm = cfg.Max
	}
	lc := &Lifecycle{cfg: cfg, warm: initialWarm, desired: initialWarm, lastAt: now}
	lc.reconcileIdle(now, 0)
	return lc, nil
}

// Warm reports dispatchable slots (busy + lingering idle).
func (lc *Lifecycle) Warm() int { return lc.warm }

// Warming reports slots paying their cold-start penalty.
func (lc *Lifecycle) Warming() int { return len(lc.warming) }

// Cold reports slots that are neither warm nor warming (cold or
// suspended — indistinguishable once parked).
func (lc *Lifecycle) Cold() int { return lc.cfg.Max - lc.warm - len(lc.warming) }

// Lingering reports warm slots currently idle with an armed suspend
// deadline.
func (lc *Lifecycle) Lingering() int { return len(lc.idle) }

// Desired reports the autoscaler's current target.
func (lc *Lifecycle) Desired() int { return lc.desired }

// ColdStarts counts completed warming transitions — each paid the full
// penalty.
func (lc *Lifecycle) ColdStarts() int { return lc.coldStarts }

// Suspends counts warm slots parked by linger expiry.
func (lc *Lifecycle) Suspends() int { return lc.suspends }

// IdleCost reports the integral of (warm - busy) over time: warm
// worker-time bought but not used.
func (lc *Lifecycle) IdleCost() time.Duration {
	return time.Duration(lc.idleCost * float64(time.Second))
}

// SetDesired moves the autoscaler target to n (clamped to [Min, Max]) at
// now. Growth starts warming slots, each ready at now+ColdStart (ready
// immediately when the penalty is zero); shrink cancels not-yet-ready
// warming slots first — an aborted pull pays nothing — and then lets
// the idle linger drain the surplus warm slots. It returns the new warm
// capacity, which changes immediately only when ColdStart is zero.
func (lc *Lifecycle) SetDesired(n int, now time.Duration) int {
	lc.advance(now, lc.busy)
	if n < lc.cfg.Min {
		n = lc.cfg.Min
	}
	if n > lc.cfg.Max {
		n = lc.cfg.Max
	}
	lc.desired = n
	// Cancel warming overshoot, newest first (latest readyAt).
	for len(lc.warming) > 0 && lc.warm+len(lc.warming) > n {
		lc.warming = lc.warming[:len(lc.warming)-1]
	}
	// Start warming the shortfall out of cold capacity — unless the pool
	// is quenched: a browned-out pool must not schedule cold starts that
	// would come ready inside a grave.
	for !lc.quenched && lc.warm+len(lc.warming) < n {
		lc.warming = append(lc.warming, now+lc.cfg.ColdStart)
	}
	// Re-advance under the new target: zero-penalty warming promotes in
	// place, and a shrink lets slots whose linger already elapsed
	// suspend immediately — the linger measures idleness, not how long
	// the surplus existed.
	lc.advance(now, lc.busy)
	return lc.warm
}

// Freeze disables suspension permanently and promotes all warming slots
// immediately — the engine's Close drain semantics: remaining queued
// work must be served, never stranded behind a suspended pool. It
// guarantees at least one warm slot.
func (lc *Lifecycle) Freeze(now time.Duration) {
	lc.advance(now, lc.busy)
	lc.frozen = true
	lc.quenched = false // a drain outranks a brown-out: queued work must leave
	for range lc.warming {
		lc.warm++
		lc.coldStarts++
	}
	lc.warming = lc.warming[:0]
	if lc.warm == 0 {
		lc.warm = 1
	}
	if lc.desired < lc.warm {
		lc.desired = lc.warm
	}
	lc.idle = lc.idle[:0]
}

// Quench pins the state machine while its pool is browned out: pending
// warming slots are cancelled (an aborted pull pays no cold start — and,
// critically, no timer armed at their readyAt may later resurrect
// capacity into a dead pool), idle lingers are disarmed, and no new
// warming or suspension starts until Unquench. Warm capacity itself is
// untouched so recovery resumes at the pre-fault size.
func (lc *Lifecycle) Quench(now time.Duration) {
	lc.advance(now, lc.busy)
	lc.quenched = true
	lc.warming = lc.warming[:0]
	lc.idle = lc.idle[:0]
}

// Unquench lifts the brown-out pin at now and re-warms toward the
// desired capacity, paying cold starts for whatever the quench cancelled.
func (lc *Lifecycle) Unquench(now time.Duration) {
	if !lc.quenched {
		return
	}
	lc.quenched = false
	lc.SetDesired(lc.desired, now)
}

// Quenched reports whether the machine is pinned by a brown-out.
func (lc *Lifecycle) Quenched() bool { return lc.quenched }

// NextEvent returns the earliest instant the state machine changes on
// its own — a warming slot coming ready or a lingering slot's suspend
// deadline (only when the suspend would actually fire: surplus exists,
// the floor holds, and a slot is genuinely idle — the same guards
// fireAt applies, so advance never spins on an unactionable deadline).
// The caller arms a timer (live engine) or schedules an event (sims)
// at it; a deadline blocked by occupancy is re-armed by the advance
// that reports the next completion.
func (lc *Lifecycle) NextEvent() (time.Duration, bool) {
	var at time.Duration
	ok := false
	if len(lc.warming) > 0 {
		at, ok = lc.warming[0], true
	}
	if !lc.frozen && !lc.quenched && len(lc.idle) > 0 && lc.warm+len(lc.warming) > lc.desired &&
		lc.warm > lc.busy && lc.warm > lc.cfg.Min {
		if !ok || lc.idle[0] < at {
			at, ok = lc.idle[0], true
		}
	}
	return at, ok
}

// advance folds elapsed time into the state machine: it accrues the
// idle-cost integral segment-wise, promotes warming slots whose readyAt
// passed, suspends lingering slots whose deadlines passed while surplus
// holds, and reconciles the idle ledger against the caller-reported
// occupancy. Callers drive it through PoolCore.AdvanceLifecycle at
// every scheduling event; a late advance only smears the idle integral,
// never the slot counts.
func (lc *Lifecycle) advance(now time.Duration, busy int) int {
	if now < lc.lastAt {
		now = lc.lastAt // a stale caller clock must not rewind the integral
	}
	// The integral charges the elapsed interval with the occupancy that
	// held during it; the suspend guard must see the occupancy reported
	// now, so a slot that became busy since the last advance is never
	// suspended retroactively.
	wasBusy := lc.busy
	lc.busy = busy
	for {
		evt, ok := lc.NextEvent()
		if !ok || evt > now {
			break
		}
		lc.accrueTo(evt, wasBusy)
		lc.fireAt(evt)
	}
	lc.accrueTo(now, wasBusy)
	lc.reconcileIdle(now, busy)
	return lc.warm
}

// accrueTo charges the idle integral for [lastAt, at] with the given
// interval occupancy.
func (lc *Lifecycle) accrueTo(at time.Duration, busy int) {
	if at <= lc.lastAt {
		return
	}
	if idle := lc.warm - busy; idle > 0 {
		lc.idleCost += float64(idle) * (at - lc.lastAt).Seconds()
	}
	lc.lastAt = at
}

// fireAt applies every transition due at exactly evt.
func (lc *Lifecycle) fireAt(evt time.Duration) {
	for len(lc.warming) > 0 && lc.warming[0] <= evt {
		lc.warming = lc.warming[1:]
		lc.warm++
		lc.coldStarts++
		// A freshly warmed slot is idle; it starts its own linger.
		lc.idle = append(lc.idle, evt+lc.cfg.IdleLinger)
	}
	for !lc.frozen && !lc.quenched && len(lc.idle) > 0 && lc.idle[0] <= evt &&
		lc.warm+len(lc.warming) > lc.desired && lc.warm > lc.busy && lc.warm > lc.cfg.Min {
		lc.idle = lc.idle[1:]
		lc.warm--
		lc.suspends++
	}
}

// reconcileIdle resyncs the idle ledger with the reported occupancy:
// newly idle slots arm deadlines at now+IdleLinger, newly busy slots
// release the newest deadlines first (LIFO), so the longest-idle slot
// keeps aging toward suspension.
func (lc *Lifecycle) reconcileIdle(now time.Duration, busy int) {
	want := lc.warm - busy
	if want < 0 {
		want = 0
	}
	if lc.frozen || lc.quenched {
		lc.idle = lc.idle[:0]
		return
	}
	for len(lc.idle) > want {
		lc.idle = lc.idle[:len(lc.idle)-1]
	}
	for len(lc.idle) < want {
		lc.idle = append(lc.idle, now+lc.cfg.IdleLinger)
	}
}

// checkInvariants verifies slot conservation; the property harness calls
// it after every operation.
func (lc *Lifecycle) checkInvariants() error {
	if lc.warm < 0 || len(lc.warming) < 0 || lc.Cold() < 0 {
		return fmt.Errorf("serve: lifecycle slot counts negative (warm=%d warming=%d cold=%d)",
			lc.warm, len(lc.warming), lc.Cold())
	}
	if lc.warm+len(lc.warming)+lc.Cold() != lc.cfg.Max {
		return fmt.Errorf("serve: lifecycle slots not conserved (warm=%d warming=%d cold=%d max=%d)",
			lc.warm, len(lc.warming), lc.Cold(), lc.cfg.Max)
	}
	if len(lc.idle) > lc.warm {
		return fmt.Errorf("serve: %d lingering slots exceed %d warm", len(lc.idle), lc.warm)
	}
	if lc.desired < lc.cfg.Min || lc.desired > lc.cfg.Max {
		return fmt.Errorf("serve: desired %d outside [%d, %d]", lc.desired, lc.cfg.Min, lc.cfg.Max)
	}
	return nil
}
