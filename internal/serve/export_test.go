package serve

import "fmt"

// StolenIn and StolenOut count tasks moved by the rebalancing pull path.
func (c *PoolCore) StolenIn() int  { return c.stolenIn }
func (c *PoolCore) StolenOut() int { return c.stolenOut }

// OverCompleted counts Complete calls that found every worker already free.
func (c *PoolCore) OverCompleted() int { return c.overCompleted }

// Overloaded is overloaded with the peer not yet priced.
func (b *balancer) Overloaded(from, to int) bool {
	var peer price
	return b.overloaded(from, to, &peer)
}

// Forming reports open group count (diagnostics).
func (f *BatchFormer) Forming() int { return len(f.groups) }

// Lingering reports warm slots currently idle with an armed suspend
// deadline.
func (lc *Lifecycle) Lingering() int { return len(lc.idle) }

// Quenched reports whether the machine is pinned by a brown-out.
func (lc *Lifecycle) Quenched() bool { return lc.quenched }

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
