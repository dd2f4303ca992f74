// fault.go is the live engine's failure model: kill and recover pools and
// drives (directly, or on a schedule via Options.Faults), and hedge
// executions that outlive their adopted service-p95. The discrete-event
// simulations drive the same PoolCore/MultiCore failure state from their
// virtual clocks; this file drives it from engine time — injection timers
// and hedge deadlines armed through clock.go, and a real second dispatch
// racing the first.

package serve

import (
	"fmt"
	"math"
	"time"

	"dscs/internal/faas"
	"dscs/internal/objstore"
	"dscs/internal/sched"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// FailPool kills a platform pool: its workers stop dispatching, in-flight
// batches requeue at completion instead of delivering, and its queue keeps
// admitting (durable) until peers steal the backlog or RecoverPool brings
// the pool back. The wait digest and every balance latch touching the pool
// are invalidated — a dead pool's recorded waits price nothing, and stale
// hysteresis must not survive into its next life — along with the wake
// gate its last dispatch published. Idempotent.
func (e *Engine) FailPool(platformName string) error {
	p, ok := e.pools[platformName]
	if !ok {
		return fmt.Errorf("serve: unknown platform %q", platformName)
	}
	p.mu.Lock()
	if p.closed || !p.core.Healthy() {
		p.mu.Unlock()
		return nil
	}
	p.core.Fail(e.now())
	p.deadBit.Store(true)
	e.syncView(p)
	if p.core.Lifecycle() != nil {
		// Quench emptied the warming/idle ledgers; republish the gauges.
		// The wake timer stays armed: a tick with nothing due is harmless.
		e.syncWorkersLocked(p)
	}
	p.mu.Unlock()
	e.cFaults.Inc(1)
	p.wait.Store(nil)
	e.bal.invalidate(p.idx)
	// Wake everything: the dead pool's own workers must observe the death
	// (and park), and peers have a backlog to rescue.
	for _, d := range e.pools {
		d.cond.Broadcast()
	}
	return nil
}

// RecoverPool brings a failed pool back: capacity accounting never moved
// (the durable half of the split), so the pool resumes at its pre-fault
// size — an elastic pool re-warms through cold starts, a fixed pool
// dispatches immediately. Idempotent.
func (e *Engine) RecoverPool(platformName string) error {
	p, ok := e.pools[platformName]
	if !ok {
		return fmt.Errorf("serve: unknown platform %q", platformName)
	}
	p.mu.Lock()
	if p.closed || p.core.Healthy() {
		p.mu.Unlock()
		return nil
	}
	p.core.Recover(e.now())
	p.deadBit.Store(false)
	e.syncView(p)
	if p.core.Lifecycle() != nil {
		// Unquench restarted warming; arm the timer at its ready instant.
		e.syncWorkersLocked(p)
	}
	p.mu.Unlock()
	for _, d := range e.pools {
		d.cond.Broadcast()
	}
	return nil
}

// PoolHealthy reports a pool's health bit (false for unknown names).
func (e *Engine) PoolHealthy(platformName string) bool {
	p, ok := e.pools[platformName]
	if !ok {
		return false
	}
	return e.poolHealthy(p)
}

// FailDrive marks a storage node down in every store that knows it: reads
// fail over to surviving replicas, and DSCS executions whose input lived
// there fall back to conventional execution inside the runner.
func (e *Engine) FailDrive(id string) error {
	found := false
	for _, s := range e.stores() {
		if err := s.FailNode(id); err == nil {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("serve: unknown drive %q", id)
	}
	e.cFaults.Inc(1)
	return nil
}

// RecoverDrive marks a storage node healthy again.
func (e *Engine) RecoverDrive(id string) error {
	found := false
	for _, s := range e.stores() {
		if err := s.RecoverNode(id); err == nil {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("serve: unknown drive %q", id)
	}
	return nil
}

// stores lists the distinct object stores behind the pools' runners.
func (e *Engine) stores() []*objstore.Store {
	seen := make(map[*objstore.Store]bool, len(e.pools))
	var out []*objstore.Store
	for _, p := range e.pools {
		if s := p.runner.Store; s != nil && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// hasDrive reports whether any store knows the node.
func (e *Engine) hasDrive(id string) bool {
	for _, s := range e.stores() {
		for _, n := range s.Nodes() {
			if n.ID == id {
				return true
			}
		}
	}
	return false
}

// validateFaults rejects a fault script naming targets the engine does not
// have — a typo'd script must fail at construction, not silently no-op at
// its fire time.
func (e *Engine) validateFaults(evs []trace.FaultEvent) error {
	for _, ev := range evs {
		if ev.Kind.Pool() {
			if _, ok := e.pools[ev.Target]; !ok {
				return fmt.Errorf("serve: fault script targets unknown platform %q", ev.Target)
			}
			continue
		}
		if !e.hasDrive(ev.Target) {
			return fmt.Errorf("serve: fault script targets unknown drive %q", ev.Target)
		}
	}
	return nil
}

// applyFault is the injection-timer callback. Targets were validated at
// construction and the fail/recover paths are idempotent and closed-safe,
// so errors here are impossible by construction.
func (e *Engine) applyFault(ev trace.FaultEvent) {
	switch ev.Kind {
	case trace.FaultPoolDown:
		_ = e.FailPool(ev.Target)
	case trace.FaultPoolUp:
		_ = e.RecoverPool(ev.Target)
	case trace.FaultDriveDown:
		_ = e.FailDrive(ev.Target)
	case trace.FaultDriveUp:
		_ = e.RecoverDrive(ev.Target)
	}
}

// CheckHedgeFactor is the one rule for a hedge factor, live and simulated:
// 0 disables hedging, anything else must be finite and >= 1. A sub-1
// factor would hedge before the expected service time has even elapsed —
// every request would fork. +Inf never hedges and NaN compares false
// everywhere; both would arm a hedge path that cannot fire.
func CheckHedgeFactor(f float64) error {
	if f != 0 && !(f >= 1 && f <= math.MaxFloat64) {
		return fmt.Errorf("serve: HedgeFactor %g must be 0 (disabled) or a finite value >= 1", f)
	}
	return nil
}

// execHedged runs one coalesced batch with tail-latency hedging: if the
// primary execution outlives HedgeFactor x the adopted service-p95 for
// this benchmark on this pool (static estimate until the digest warms —
// Digest.Adopt hysteresis, the same pricing the batch former uses), a
// second dispatch races it on a healthy peer's runner. First completion
// wins; the loser finishes into a buffered channel and is discarded. The
// hedge borrows the peer's runner only — queue accounting stays on the
// primary pool, which still owes exactly one Complete for this batch.
func (e *Engine) execHedged(p *pool, b *workload.Benchmark, opt faas.Options, payload string) (faas.Result, error) {
	if e.opt.HedgeFactor < 1 {
		return e.execute(p.runner, b, opt)
	}
	est := e.estimate(b)
	static := est.cpu
	if p.class == sched.ClassDSCS {
		static = est.dscs
	}
	threshold := time.Duration(float64(e.obs.ServiceQuantile(payload, p.name, static, 0.95)) * e.opt.HedgeFactor)
	if threshold <= 0 {
		return e.execute(p.runner, b, opt)
	}
	type hedgeResult struct {
		res   faas.Result
		err   error
		hedge bool
	}
	// Buffered to both goroutines' capacity: the loser sends and exits, no
	// receiver required.
	ch := make(chan hedgeResult, 2)
	go func() {
		res, err := e.execute(p.runner, b, opt)
		ch <- hedgeResult{res, err, false}
	}()
	due := make(chan struct{})
	timer := afterFunc(threshold, func() { close(due) })
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-due:
	}
	peer := e.hedgePeer(p)
	if peer == nil {
		r := <-ch
		return r.res, r.err
	}
	e.cHedgesFired.Inc(1)
	go func() {
		res, err := e.execute(peer.runner, b, opt)
		ch <- hedgeResult{res, err, true}
	}()
	r := <-ch
	if r.hedge {
		e.cHedgesWon.Inc(1)
	}
	return r.res, r.err
}

// execute runs one coalesced batch on r and is the only caller of e.exec.
// It contains a panic inside the execution: the panic becomes an error
// wrapping ErrExecutionPanicked, which the worker delivers to every request
// of the batch after making the pool's one Complete for it — a crashing
// model fails its own batch and takes down neither the worker nor, from a
// hedge goroutine, the process.
func (e *Engine) execute(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (res faas.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = faas.Result{}, fmt.Errorf("%w (%s): %v", ErrExecutionPanicked, b.Slug, v)
		}
	}()
	return e.exec(r, b, opt)
}

// hedgePeer picks the pool a hedge runs on: the first healthy CPU-class
// pool other than the primary (name order — CPU capacity needs no drive
// arbitration, so a hedge there never contends with committed DSCS work),
// falling back to a healthy DSCS pool whose execution runs unarbitrated.
func (e *Engine) hedgePeer(p *pool) *pool {
	for _, c := range e.spillCPU {
		if c != p && e.poolHealthy(c) {
			return c
		}
	}
	for _, c := range e.dscsPools {
		if c != p && e.poolHealthy(c) {
			return c
		}
	}
	return nil
}
