// admit.go is the engine's submit half: request pooling, the admission
// path behind Submit and SubmitAsync, and the cross-pool wakeups.

package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dscs/internal/faas"
	"dscs/internal/sched"
	"dscs/internal/workload"
)

// outcome is what a worker delivers back to a blocked submitter. platform
// names the pool that actually executed the request — with stealing a
// request can be served by a different pool than the one that admitted it.
type outcome struct {
	res           faas.Result
	err           error
	platform      string
	queued        time.Duration
	batchRequests int
	batchSize     int
}

// request is one pending submission. fire marks a fire-and-forget
// SubmitAsync request: no submitter blocks on done, so the worker recycles
// the request instead of delivering an outcome. Its arrival instant rides
// the queue task (HybridTask.Arrived), not the request.
type request struct {
	bench *workload.Benchmark
	opt   faas.Options
	fire  bool
	done  chan outcome
}

// requestList is the engine's request free list. It recycles request
// structs (and their reply channels — cap-1, drained by exactly one
// receiver) across submissions, so the steady-state submit path allocates
// nothing per call. The list is the engine's own rather than a sync.Pool
// because every GC empties a sync.Pool, and the smaller the live heap the
// more often the GC runs: each refill would be a fresh request and channel.
type requestList struct {
	mu   sync.Mutex
	free []*request
}

// getRequest takes a request from the free list and allocates only when
// it is empty — so the engine holds at most as many requests as were ever
// in flight at once.
//
//dscslint:hotpath
func (e *Engine) getRequest() *request {
	l := &e.requests
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return r
	}
	l.mu.Unlock()
	return &request{done: make(chan outcome, 1)}
}

// putRequest returns a delivered request to the free list.
func (e *Engine) putRequest(r *request) {
	r.bench, r.opt, r.fire = nil, faas.Options{}, false
	l := &e.requests
	l.mu.Lock()
	l.free = append(l.free, r)
	l.mu.Unlock()
}

// syncView refreshes what lock-free readers know of a pool's core: the
// queue-depth gauge, the queued mirror the ingress admission bound and
// the balancer's depth read, and the free-slot mirror behind the
// balancer's hasFree. Callers hold p.mu; every core mutation — queue
// changes, and every transition of Busy or Workers (dispatch, Requeue,
// lifecycle resizes, Fail, Recover, Close) — routes through here, so no
// mirror can drift from the core it reflects. Complete, which moves Busy
// and leaves the queue alone, refreshes the free-slot mirror only
// (syncFree).
func (e *Engine) syncView(p *pool) {
	n := p.core.QueueLen()
	p.ingress.syncQueued(n)
	p.gDepth.Set(float64(n))
	e.syncFree(p)
}

// syncFree refreshes the free-slot mirror, writing only on a change, so a
// transition that leaves the bit as it was costs a load, not a store to a
// line lock-free readers share. Callers hold p.mu.
func (e *Engine) syncFree(p *pool) {
	if free := p.core.Busy() < p.core.Workers(); p.free.Load() != free {
		p.free.Store(free)
	}
}

// deliver resolves one admitted request: hands the outcome to the blocked
// submitter, or — fire-and-forget — recycles the request directly. The
// inflight count drops here and only here, so Quiesce sees every admitted
// request exactly once.
func (e *Engine) deliver(r *request, out outcome) {
	fire := r.fire
	if e.inflight.Add(-1) == 0 && e.quiescers.Load() > 0 {
		e.wakeQuiescers()
	}
	if fire {
		e.putRequest(r)
		return
	}
	r.done <- out
}

// drainLocked moves every staged ingress entry into the pool core, in
// admission order. Callers hold p.mu. A core that fills mid-drain (stolen-in
// work can race the staging queue) rejects the overflow late, with the same
// ErrQueueFull the bound would have given at offer time.
//
//dscslint:hotpath
func (e *Engine) drainLocked(p *pool) {
	if p.ingress.staged.Load() == 0 {
		return
	}
	entries := p.ingress.drainInto(p.scratch)
	for i := range entries {
		en := &entries[i]
		if !p.core.Submit(en.task) {
			// The queue counted this drop; the ingress counts only offers
			// it bounced itself, or Dropped would report the reject twice.
			e.cDroppedAll.Inc(1)
			p.cDropped.Inc(1)
			e.deliver(en.req, outcome{err: ErrQueueFull})
			continue
		}
		if f := p.core.Former(); f != nil {
			f.Observe(en.task, reqBatch(en.req.opt))
		}
	}
	clear(entries)
	p.scratch = entries[:0]
	e.syncView(p)
}

// takeWake claims the pool's one wakeup in flight while a worker is
// parked; a true result obliges the caller to Signal (fenced, unless it
// holds p.mu). admit and the worker's hand-on claim it. No wakeup is lost
// to a submitter that finds it taken: the token is set only by a caller
// about to Signal and cleared by every worker returning from cond.Wait and
// by every parking worker before its staged re-check, so the losing
// submitter's entry, staged before its failed claim, precedes the clear,
// and the clearing worker's re-check or next drainLocked sees it. Some
// worker does clear it: the Signal lands on a waiting worker (the fence or
// p.mu puts one there unless another wakeup freed it first), and a worker
// not waiting clears it at its next park. The load before the CAS keeps a
// burst's losers off the line.
func (p *pool) takeWake() bool {
	return p.parked.Load() > 0 && !p.waking.Load() && p.waking.CompareAndSwap(false, true)
}

// admit submits the task (carrying its request in Ref) to one pool's
// queue: ErrClosed after shutdown, ErrQueueFull at the admission bound.
// bounceIfFull marks a spill attempt: a full target then reports
// ErrQueueFull without counting a drop against its queue — the request is
// not lost, it falls back to the original pool.
//
// The task stages on the caller's shard and the pool lock is only tried,
// never waited on: an uncontended admit drains synchronously (sequential
// callers observe exactly the direct path's behavior), a contended one
// leaves the entry for whoever holds the lock — the submit path's whole win
// is that waiting submitters queue on their shard, not on the pool mutex.
func (e *Engine) admit(p *pool, task sched.HybridTask, req *request, bounceIfFull bool) error {
	if bounceIfFull {
		// Spill attempts take the locked path: the bounce contract needs a
		// synchronous answer from the real queue (a late ingress reject
		// would lose the fallback to the original pool). Spills are common
		// under balance — a burst spills most of a DSCS backlog — but
		// staging them on the target's ingress instead measured flat.
		return e.admitDirect(p, task, req)
	}
	if err := p.ingress.offer(shardIndex(len(p.ingress.shards)),
		ingressEntry{task: task, req: req}); err != nil {
		return err
	}
	// Only reach for the pool lock when a worker is parked and needs the
	// backlog handed over, and then only as the pool's one wakeup in
	// flight: a burst sends one submitter at a time through the fence, not
	// all of them. Active workers drain the shards at the top of their
	// loop, so with workers busy a submission is a shard append plus two
	// atomics, no pool-lock traffic at all.
	if p.takeWake() {
		if p.mu.TryLock() {
			e.drainLocked(p)
			p.mu.Unlock()
		} else {
			// The lock holder may already be past its pre-park backlog
			// check. An empty lock/unlock fences against that window: it
			// returns only once the parking worker has released the mutex
			// inside cond.Wait, where the Signal is guaranteed to land.
			p.mu.Lock()
			//lint:ignore SA2001 empty critical section is the wakeup fence
			p.mu.Unlock()
		}
		p.cond.Signal()
	}
	e.wakePeers(p, p.ingress.pending())
	return nil
}

// admitDirect is the spill attempt's admit, under the pool lock: a full
// queue bounces the task without counting a drop. Earlier-staged ingress
// entries drain first so admission order holds.
func (e *Engine) admitDirect(p *pool, task sched.HybridTask, req *request) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	e.drainLocked(p)
	if p.core.QueueFull() || !p.core.Submit(task) {
		e.syncView(p)
		p.mu.Unlock()
		return ErrQueueFull
	}
	if f := p.core.Former(); f != nil {
		f.Observe(task, reqBatch(req.opt))
	}
	e.syncView(p)
	depth := p.core.QueueLen()
	p.mu.Unlock()
	p.cond.Signal()
	e.wakePeers(p, depth)
	return nil
}

// wakePeers wakes every parked peer worker to re-check the balance decision
// against p, whose backlog is depth: the one cross-pool wakeup policy
// behind the admit, dispatch and requeue call sites. Pull-based rebalancing
// is driven by the thief, so a worker parked on its own empty queue must
// hear a peer backlog deepen. (Signaling a Cond without its lock is
// explicitly allowed.) A live pool's gate is exactly the latch's own arming
// precondition: a backlog, a warmed wait digest, and a recent window that
// actually holds waits — a zero windowed p95 can never arm Latch.Above, so
// waking workers to scan every pool then would be pure overhead on the
// request path. The gate reads the warmed wait-p95 the pool's last dispatch
// published (balancer.WakeGate), not the digest: a pool's wait window
// changes only at its dispatches and its death, so the published value is
// the one a fresh read would return. A dead pool's backlog drains only by
// rescue and its digest was invalidated at death, so any backlog wakes
// every peer — a parked worker elsewhere is its only exit — and that wakeup
// must not be lost: a parked peer is fenced through its mutex the way admit
// fences its own pool, pairing with the rescueWaiting re-check its worker
// makes after counting itself parked. Callers hold no pool lock.
func (e *Engine) wakePeers(p *pool, depth int) {
	if depth == 0 || !e.opt.AdaptiveBalance {
		return
	}
	dead := p.deadBit.Load()
	if !dead && e.bal.WakeGate(p.idx) <= 0 {
		return
	}
	for _, d := range e.order {
		if d == p {
			continue
		}
		if dead && d.parked.Load() > 0 {
			d.mu.Lock()
			//lint:ignore SA2001 empty critical section is the wakeup fence
			d.mu.Unlock()
		}
		d.cond.Signal()
	}
}

// rescueWaiting reports whether a dead peer holds a backlog p's worker
// could rescue. The worker checks it after counting itself parked, so a
// rescue wakeup racing its park is either fenced into the wait by
// wakePeers or seen here. Callers hold p.mu.
func (e *Engine) rescueWaiting(p *pool) bool {
	if !e.opt.AdaptiveBalance || !p.core.Healthy() {
		return false
	}
	for _, d := range e.order {
		if d != p && d.deadBit.Load() && e.poolDepth(d) > 0 {
			return true
		}
	}
	return false
}

// Submit enqueues one invocation and blocks until a worker serves it (or
// admission control rejects it with ErrQueueFull). Safe for concurrent use
// from any number of goroutines — the request path has no global lock.
//
// With AdaptiveBalance set, a submission aimed at a DSCS-class pool whose
// wait gap over a CPU-class pool has latched (or whose pool is dead) is
// rerouted there (recorded as serve_spillover_total{from,to}); the
// returned Invocation.Platform names the pool that actually served it. A
// full spill target falls back to the original pool, which may still have
// room.
//
//dscslint:hotpath
func (e *Engine) Submit(platformName string, b *workload.Benchmark, opt faas.Options) (Invocation, error) {
	req, target, err := e.enqueue(platformName, b, opt, false)
	if err != nil {
		return Invocation{}, err
	}
	out := <-req.done
	e.putRequest(req)
	if out.err != nil {
		return Invocation{}, out.err
	}
	served := target
	if out.platform != "" {
		// A steal can move the request after admission; report the pool
		// that actually served it.
		served = out.platform
	}
	return Invocation{
		Result:        out.res,
		Platform:      served,
		Queued:        out.queued,
		BatchRequests: out.batchRequests,
		BatchSize:     out.batchSize,
	}, nil
}

// SubmitAsync enqueues one invocation fire-and-forget: it returns as soon
// as admission control accepts (ErrClosed, and ErrQueueFull at the
// admission bound, reject synchronously) and the execution's outcome is
// dropped on completion. Quiesce waits for the in-flight count to drain.
// This is the throughput spelling of the submit path — callers measuring
// or driving sustained load pay the admission cost only, not a reply
// channel round-trip per request.
//
// Unlike Submit, a nil return is not a promise to execute. The bound is
// checked against lock-free counts, so concurrent offers can race past it,
// and a steal can fill the core before the staged entry drains; the drain
// then refuses the entry (drainLocked). Submit's caller receives that
// ErrQueueFull; SubmitAsync's caller already has nil, so the refusal shows
// only in Dropped and serve_dropped_total, and the request leaves the
// in-flight count, so Quiesce still returns. An exact bound would need the
// pool lock on every offer, which the ingress exists to avoid.
//
//dscslint:hotpath
func (e *Engine) SubmitAsync(platformName string, b *workload.Benchmark, opt faas.Options) error {
	_, _, err := e.enqueue(platformName, b, opt, true)
	return err
}

// InFlight counts admitted requests whose outcome has not yet been
// delivered.
func (e *Engine) InFlight() int { return int(e.inflight.Load()) }

// Quiesce blocks until every admitted invocation has been delivered or the
// timeout elapses, reporting whether the engine drained. Fire-and-forget
// callers use it as their completion barrier.
func (e *Engine) Quiesce(timeout time.Duration) bool {
	deadline := e.now() + timeout
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	// Counting this waiter before the inflight load pairs with deliver's
	// decrement-then-load: either the load sees the last delivery or that
	// delivery sees the waiter and broadcasts (the parked/staged pairing).
	e.quiescers.Add(1)
	defer e.quiescers.Add(-1)
	t := afterFunc(deadline-e.now(), e.wakeQuiescers)
	defer t.Stop()
	for e.inflight.Load() > 0 {
		if e.now() >= deadline {
			return false
		}
		e.drained.Wait()
	}
	return true
}

// wakeQuiescers wakes every Quiesce caller to re-check the in-flight count
// and its deadline.
func (e *Engine) wakeQuiescers() {
	e.drainMu.Lock()
	e.drained.Broadcast()
	e.drainMu.Unlock()
}

// enqueue is the shared admission path behind Submit and SubmitAsync:
// spill decision, policy pricing, task construction, admit with spill
// fallback, submit-side telemetry. It returns the admitted request and the
// pool that accepted it.
func (e *Engine) enqueue(platformName string, b *workload.Benchmark, opt faas.Options, fire bool) (*request, string, error) {
	p, ok := e.pools[platformName]
	if !ok {
		//dscslint:allow hotpathcheck cold branch: caller error, never taken by well-formed traffic
		return nil, "", fmt.Errorf("serve: unknown platform %q", platformName)
	}
	if b == nil {
		//dscslint:allow hotpathcheck cold branch: caller error, never taken by well-formed traffic
		return nil, "", fmt.Errorf("serve: nil benchmark")
	}
	target, spilled := p, false
	if p.class == sched.ClassDSCS && e.opt.AdaptiveBalance {
		// A dead home pool reroutes unconditionally; a live one spills once
		// its wait-p95 has latched above the cheapest spill target's —
		// queue delay is what the submission is about to pay. (Without
		// balance the submission queues on its home pool, dead or not, the
		// degraded mode an operator chose by running isolated pools.)
		if t, ok := e.bal.BalanceTarget(p.idx, e.spillEligible); ok {
			target, spilled = e.order[t], true
		}
	}
	est := e.estimate(b)
	cpuSvc, dscsSvc := est.cpu, est.dscs
	if e.opt.AdaptiveEstimates {
		// Policy pricing blends the static prior toward the observed p50
		// of each class's best-observed pool, so SJF/criticality picks
		// order work by real service times instead of the offline model.
		// Completions publish the blends (observe); until the first
		// publish the prior stands.
		cpuSvc = est.priced(sched.ClassCPU)
		dscsSvc = est.priced(sched.ClassDSCS)
	}
	req := e.getRequest()
	req.bench, req.opt, req.fire = b, opt, fire
	task := sched.HybridTask{
		ID:          int(e.nextID.Add(1)),
		Arrived:     e.now(),
		Payload:     b.Slug,
		CPUService:  cpuSvc,
		DSCSService: dscsSvc,
		Ref:         req,
	}

	e.inflight.Add(1)
	err := e.admit(target, task, req, spilled)
	if spilled && errors.Is(err, ErrQueueFull) {
		// The spill target is full; the original DSCS queue may still
		// have room.
		target, spilled = p, false
		err = e.admit(target, task, req, false)
	}
	if a := target.core.Autoscaler(); a != nil {
		// The autoscaler sees offered load, as in the sims: a rejected
		// arrival still describes the demand to warm for. It serializes
		// internally, off the pool lock.
		a.ObserveArrival(b.Slug, task.Arrived)
	}
	if err != nil {
		e.inflight.Add(-1)
		e.putRequest(req)
		if errors.Is(err, ErrQueueFull) {
			e.cDroppedAll.Inc(1)
			target.cDropped.Inc(1)
		}
		return nil, "", err
	}
	if spilled {
		e.cSpillAll.Inc(1)
		p.cSpillTo[target.name].Inc(1)
	}
	e.cSubmitted.Inc(1)
	return req, target.name, nil
}

// spillEligible is the spill candidate set: the configured SpilloverTo
// pool while it is healthy, otherwise the CPU class (a named target that
// is down must not swallow the spill).
func (e *Engine) spillEligible(i int) bool {
	if t := e.spillTo; t != nil && e.poolHealthy(t) {
		return i == t.idx
	}
	return e.order[i].class == sched.ClassCPU
}
