// elastic.go drives each pool's clock-free Lifecycle on wall time: it
// hands PoolCore.Rescale — the lifecycle advance and the rate-limited
// autoscale decision the sims run too — the engine's clock, publishes the
// capacity gauges, and arms the pool's one wake timer, which the
// lifecycle's next self-transition and a forming batch both arm.

package serve

import (
	"time"
)

// advanceElasticLocked drives a pool's capacity to the present
// (PoolCore.Rescale: warming slots come ready, expired lingers suspend,
// and the core's gate decides whether to rescale). It refreshes the
// worker gauges and the free-slot mirror and re-arms the wake timer.
// Callers hold p.mu; a fixed pool is a no-op.
func (e *Engine) advanceElasticLocked(p *pool) {
	if p.core.Lifecycle() == nil {
		return
	}
	p.core.Rescale(e.now(), func() time.Duration {
		w, _ := e.bal.WarmedWait(p.idx)
		return w
	})
	e.syncView(p)
	e.syncWorkersLocked(p)
}

// syncWorkersLocked publishes a pool's live capacity — serve_workers is
// the warm count, never the construction-time constant — plus the
// warm/cold/warming breakdown and any newly paid cold starts, then
// re-arms the wake timer. Callers hold p.mu; fixed pools are a
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

// armLifecycleLocked points the pool's wake timer at the lifecycle's next
// self-transition. The state machine is clock-free; this timer is the
// live engine's half of the bargain — the sims schedule virtual events
// at the same instants. Callers hold p.mu.
func (e *Engine) armLifecycleLocked(p *pool) {
	if evt, ok := p.core.Lifecycle().NextEvent(); ok {
		e.wakeAtLocked(p, evt)
	}
}

// wakeAtLocked arms the pool's one wake timer to fire by at (engine time).
// It moves the timer earlier, never later: every waiter the earlier tick
// wakes re-arms its own instant, so no later one is lost, and a tick that
// finds nothing due is harmless. Callers hold p.mu.
func (e *Engine) wakeAtLocked(p *pool, at time.Duration) {
	if p.closed || (p.wakeAt >= 0 && p.wakeAt <= at) {
		return
	}
	p.wakeAt = at
	if p.wake == nil {
		p.wake = afterFunc(at-e.now(), func() { e.tick(p) })
	} else {
		p.wake.Reset(at - e.now())
	}
}

// tick is the wake timer's callback: a warming slot came ready, an idle
// slot's linger expired or a forming group came due. It drives the pool to the present and wakes every parked
// worker; one whose instant has not come re-arms the timer.
func (e *Engine) tick(p *pool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.wakeAt = -1
	e.drainLocked(p)
	e.advanceElasticLocked(p)
	p.mu.Unlock()
	p.cond.Broadcast()
}
