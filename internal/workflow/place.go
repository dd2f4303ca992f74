// place.go is the locality-aware stage placement policy: run each stage on
// the pool whose drive already holds its input replica, and pay the fabric
// only when that drive is busy or dead. The Placer is adapter-shaped —
// callers wire the replica map (objstore.DSCSReplicaHealthy), pool health,
// and the serve balancer's Idle and PricedWait through closures — and the
// live engine (serve/workflow.go), the rack simulation (cluster/workflow.go)
// and the property harness all place through it, so the decision exists
// once.
package workflow

import "time"

// Placement is one stage's placement decision.
type Placement struct {
	// Pool is the chosen pool index, or -1 when no healthy pool exists.
	Pool int
	// Local reports that the pool's drive holds the stage's input
	// replica — the stage reads through the drive's internal path instead
	// of the fabric.
	Local bool
}

// Placer prices stage placement against the replica map. All fields are
// required except Idle (nil means never idle-fast-path).
type Placer struct {
	// Pools is the candidate pool count; pools are indexed [0, Pools).
	Pools int
	// Home maps an input object key to the pool fronting the drive that
	// holds its healthy DSCS replica, or -1 when no healthy replica
	// exists (the object is cold, SSD-only, or its drive is down).
	Home func(key string) int
	// Healthy reports whether a pool is dispatching (serve's pool health,
	// not the drive's).
	Healthy func(pool int) bool
	// Idle reports whether a pool has a free worker and an empty queue —
	// the fast path that keeps a local placement local without pricing
	// every peer.
	Idle func(pool int) bool
	// Wait prices what newly placed work would wait on a pool right now
	// (idle healthy pools price zero).
	Wait func(pool int) time.Duration
}

// Place decides where the stage whose input lives at key runs: its home
// pool when that pool is healthy and no cheaper healthy peer exists (ties
// keep the data local), otherwise the healthy pool with the least priced
// wait. A busy home loses only to a strictly cheaper peer — moving the
// stage pays the fabric, so equal waits stay local.
//
//dscslint:hotpath
func (p *Placer) Place(key string) Placement {
	home := -1
	if p.Home != nil {
		home = p.Home(key)
	}
	if home >= 0 && (home >= p.Pools || !p.Healthy(home)) {
		home = -1
	}
	if home >= 0 && p.Idle != nil && p.Idle(home) {
		return Placement{Pool: home, Local: true}
	}
	best, bestWait := -1, time.Duration(0)
	for i := 0; i < p.Pools; i++ {
		if !p.Healthy(i) {
			continue
		}
		w := p.Wait(i)
		if best < 0 || w < bestWait || (w == bestWait && i == home) {
			best, bestWait = i, w
		}
	}
	if home >= 0 {
		// The home pool is healthy; it loses only to a strictly cheaper
		// peer.
		if best < 0 || p.Wait(home) <= bestWait {
			return Placement{Pool: home, Local: true}
		}
	}
	return Placement{Pool: best, Local: false}
}

// RoundRobin is the locality-blind baseline the goldens compare against: a
// stateful cursor spreading stages across pools without consulting the
// replica map. Unhealthy pools are skipped; a full cycle with no healthy
// pool places on -1.
type RoundRobin struct {
	Pools   int
	Healthy func(pool int) bool
	next    int
}

// Place returns the next healthy pool in rotation.
func (rr *RoundRobin) Place() Placement {
	for tries := 0; tries < rr.Pools; tries++ {
		i := rr.next % rr.Pools
		rr.next++
		if rr.Healthy == nil || rr.Healthy(i) {
			return Placement{Pool: i}
		}
	}
	return Placement{Pool: -1}
}
