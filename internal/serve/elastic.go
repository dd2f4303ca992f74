// elastic.go drives each pool's clock-free Lifecycle: autoscale decisions,
// capacity gauges, and the timer armed at its next self-transition.

package serve

import (
	"time"
)

// scaleDecideInterval rate-limits autoscale decisions per pool: the
// digest quantile reads behind Desired are not per-dispatch work. A
// starved pool (backlog with zero free capacity) bypasses the limit —
// that is the one state where waiting a millisecond to scale costs
// latency for certain.
const scaleDecideInterval = time.Millisecond

// advanceElasticLocked drives a pool's lifecycle to the present: warming
// slots come ready, expired lingers suspend, and (rate-limited) the
// autoscaler's desired capacity is recomputed and applied. It refreshes
// the worker gauges and re-arms the lifecycle timer, and reports whether
// warm capacity changed — the caller broadcasts then, so parked workers
// re-try dispatch against the new capacity. Callers hold p.mu; a fixed
// pool is a no-op.
func (e *Engine) advanceElasticLocked(p *pool) bool {
	lc := p.core.Lifecycle()
	if lc == nil {
		return false
	}
	now := e.now()
	changed := p.core.AdvanceLifecycle(now)
	if a := p.autoscaler; a != nil && !p.closed && p.core.Healthy() {
		starved := p.core.QueueLen() > 0 && p.core.Busy() >= p.core.Workers()
		if starved || now-p.scaleAt >= scaleDecideInterval {
			p.scaleAt = now
			waitP95, _ := e.bal.WarmedWait(p.idx)
			desired := a.Desired(now, p.core.Busy(), p.core.QueueLen(), waitP95)
			if desired != lc.Desired() && p.core.ScaleTo(desired, now) {
				changed = true
			}
		}
	}
	e.syncWorkersLocked(p)
	return changed
}

// syncWorkersLocked publishes a pool's live capacity — serve_workers is
// the warm count, never the construction-time constant — plus the
// warm/cold/warming breakdown and any newly paid cold starts, then
// re-arms the lifecycle timer. Callers hold p.mu; fixed pools are a
// no-op (their construction-time gauge stays exact).
func (e *Engine) syncWorkersLocked(p *pool) {
	lc := p.core.Lifecycle()
	if lc == nil {
		return
	}
	p.gWorkers.Set(float64(lc.Warm()))
	p.gWarm.Set(float64(lc.Warm()))
	p.gCold.Set(float64(lc.Cold()))
	p.gWarming.Set(float64(lc.Warming()))
	if cs := lc.ColdStarts(); cs > p.coldStartsPub {
		d := float64(cs - p.coldStartsPub)
		p.coldStartsPub = cs
		p.cColdSt.Inc(d)
		e.cColdAll.Inc(d)
	}
	e.armLifecycleLocked(p)
}

// armLifecycleLocked points the pool's timer at the lifecycle's next
// self-transition. The state machine is clock-free; this timer is the
// live engine's half of the bargain — the sims schedule virtual events
// at the same instants. Callers hold p.mu.
func (e *Engine) armLifecycleLocked(p *pool) {
	evt, ok := p.core.Lifecycle().NextEvent()
	if !ok || p.closed {
		if p.lifeTimer != nil {
			p.lifeTimer.Stop()
		}
		p.timerAt = -1
		return
	}
	if evt == p.timerAt {
		return
	}
	p.timerAt = evt
	d := evt - e.now()
	if d < 0 {
		d = 0
	}
	if p.lifeTimer == nil {
		p.lifeTimer = afterFunc(d, func() { e.lifecycleTick(p) })
	} else {
		p.lifeTimer.Reset(d)
	}
}

// lifecycleTick is the timer callback behind armLifecycleLocked: a
// warming slot just came ready or a linger just expired. Capacity
// changes wake every parked worker — freshly warmed slots have a
// backlog to drain.
func (e *Engine) lifecycleTick(p *pool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.timerAt = -1
	e.drainLocked(p)
	changed := e.advanceElasticLocked(p)
	p.mu.Unlock()
	if changed {
		p.cond.Broadcast()
	}
}
