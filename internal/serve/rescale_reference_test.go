package serve

import "time"

// The reference drive of an elastic pool: PoolCore's lifecycle advance and
// Rescale as they were before their short paths. Every advance is the full
// fold (Lifecycle.advance) and every open gate asks the autoscaler.
// FuzzRescaleMatchesReference holds the pool's methods to these.

// refAdvance is AdvanceLifecycle without the coasting Lifecycle.step.
func refAdvance(c *PoolCore, now time.Duration) bool {
	return c.lc != nil && c.resize(c.lc.advance(now, c.Busy()))
}

// refRescale is Rescale without its short paths.
func refRescale(c *PoolCore, now time.Duration, waitP95 func() time.Duration) bool {
	changed := refAdvance(c, now)
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

// refFail is Fail over refAdvance.
func refFail(c *PoolCore, now time.Duration) {
	if c.dead {
		return
	}
	c.dead = true
	c.faults++
	if c.lc != nil {
		refAdvance(c, now)
		c.lc.Quench(now)
		refAdvance(c, now)
	}
}

// refRecover is Recover over refAdvance.
func refRecover(c *PoolCore, now time.Duration) {
	if !c.dead {
		return
	}
	c.dead = false
	if c.lc != nil {
		c.lc.Unquench(now)
		refAdvance(c, now)
	}
}
