// estimate.go is the engine's pricing and observation: static service
// estimates, the latency observatory, and the per-dispatch wait record.

package serve

import (
	"sync/atomic"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/sched"
	"dscs/internal/workload"
)

// gaugeRefreshInterval bounds how often a dispatch (or completion)
// re-derives the published quantile gauges from its digest. Every
// observation still lands in the digest, and the balance latch, the
// former's slack and hedging read the digests directly — folding staged
// entries on demand. Submission pricing under AdaptiveEstimates is the one
// decision that reads what this cadence publishes (serviceEstimate's
// observed blends), so it lags the digests by at most one interval. At
// sub-ms batch rates the refresh would otherwise re-read the window once
// per batch just to overwrite the same cells.
const gaugeRefreshInterval = time.Millisecond

// publishDue is the gauge publish rate limit. next holds the engine time
// from which the next refresh may run; zero, its start value, lets the
// first observation publish at once although engine time starts near
// zero. It reports whether the caller won the refresh; the CAS keeps
// concurrent workers from refreshing twice for one slot.
func publishDue(next *atomic.Int64, now time.Duration) bool {
	n := next.Load()
	return int64(now) >= n && next.CompareAndSwap(n, int64(now+gaugeRefreshInterval))
}

// latKey keys the latency-gauge handle cache without allocating a joined
// string per completion.
type latKey struct{ slug, platform string }

// latHandles carries one {benchmark, platform} series' three quantile
// gauges plus its publish-rate-limit stamp (see publishDue).
type latHandles struct {
	p50, p95, p99 sched.GaugeHandle
	publish       atomic.Int64
}

// serviceEstimate is a benchmark's pricing for the scheduling policies:
// the fixed static prior, and the observed blend submissions price with
// under AdaptiveEstimates. bench records which Benchmark object it was
// derived from: a redeploy under the same slug hands the engine a
// different object, and a cache hit must not price the new chain with the
// old chain's estimate (nor let a racing in-flight request of the old
// chain re-memoize stale pricing after the redeploy's ForgetEstimate ran).
type serviceEstimate struct {
	bench     *workload.Benchmark
	cpu, dscs time.Duration
	// observed holds observedService's CPU and DSCS blends (nanoseconds;
	// 0 until the first publish), refreshed by completions at the gauge
	// publish cadence (observe) so a submission prices with two atomic
	// loads instead of re-blending every pool's digest.
	observed [2]atomic.Int64
}

// priced returns the class's service price: the observed blend once a
// completion has published one, the static prior until then.
func (est *serviceEstimate) priced(class sched.InstanceClass) time.Duration {
	static, cell := est.cpu, &est.observed[0]
	if class == sched.ClassDSCS {
		static, cell = est.dscs, &est.observed[1]
	}
	if v := cell.Load(); v > 0 {
		return time.Duration(v)
	}
	return static
}

// publishObserved refreshes both observed blends from the digests as they
// stand. Completions call it at the gauge publish cadence.
func (e *Engine) publishObserved(est *serviceEstimate) {
	slug := est.bench.Slug
	est.observed[0].Store(int64(e.observedService(slug, sched.ClassCPU, est.cpu)))
	est.observed[1].Store(int64(e.observedService(slug, sched.ClassDSCS, est.dscs)))
}

// estimate returns a benchmark's memoized pricing entry for the scheduling
// policies: expected service time on the CPU baseline and on the
// in-storage DSA (effective-throughput rooflines; only the relative order
// matters to the policies), and the observed blends completions publish.
// Deriving an estimate walks the model graphs — pure per-benchmark work
// memoized in the engine's cache (per engine, not per process: another
// engine, or a test redefining a slug, must not read this run's pricing).
func (e *Engine) estimate(b *workload.Benchmark) *serviceEstimate {
	if v, ok := e.estimates.Load(b.Slug); ok {
		// A hit only counts for the same Benchmark object: a different
		// object under the same slug is a changed chain (redeploy), and
		// its pricing must be re-derived, not inherited.
		if est := v.(*serviceEstimate); est.bench == b {
			return est
		}
	}
	const (
		cpuFLOPS  = 200e9 // Baseline (CPU) effective throughput
		dscsFLOPS = 26e12 // 128x128 DSA at 1 GHz, utilization-derated
	)
	flops := float64(b.Preproc.FLOPs() + b.Model.FLOPs())
	est := &serviceEstimate{
		bench: b,
		cpu:   time.Duration(flops / cpuFLOPS * float64(time.Second)),
		dscs:  time.Duration(flops / dscsFLOPS * float64(time.Second)),
	}
	e.estimates.Store(b.Slug, est)
	return est
}

// ServiceEstimate exposes the engine's (memoized) static pricing for a
// benchmark — diagnostics and the redeploy regression tests.
func (e *Engine) ServiceEstimate(b *workload.Benchmark) (cpu, dscs time.Duration) {
	est := e.estimate(b)
	return est.cpu, est.dscs
}

// ForgetEstimate drops the memoized static pricing, the live latency
// digests, the published latency gauges and every pool autoscaler's
// service record for a slug. The gateway calls it on redeploy: a changed
// chain must not keep the old chain's pricing (the memoized estimate
// would otherwise survive forever), its stale latency history, old
// quantiles on /metrics, or a pre-warm floor priced with its service
// times.
func (e *Engine) ForgetEstimate(slug string) {
	e.estimates.Delete(slug)
	e.obs.Forget(slug)
	for name, p := range e.pools {
		if a := p.core.Autoscaler(); a != nil {
			a.ForgetService(slug)
		}
		// Drop the cached handles first: a completion racing this sees
		// either the old series (about to be unset) or re-resolves fresh
		// cells — never a handle writing to an unset series forever.
		e.latGauges.Delete(latKey{slug: slug, platform: name})
		labels := "{benchmark=" + slug + ",platform=" + name + "}"
		e.tel.Unset("serve_latency_p50" + labels)
		e.tel.Unset("serve_latency_p95" + labels)
		e.tel.Unset("serve_latency_p99" + labels)
	}
}

// Observatory exposes the engine's latency digests (diagnostics, tests).
func (e *Engine) Observatory() *metrics.Observatory { return e.obs }

// observe folds one execution's service time into the latency observatory
// and refreshes the per-{benchmark, platform} quantile gauges (rate-
// limited; the digest itself ingests every observation). The gauges
// publish the sliding-window quantiles that pricing and hedging read, off
// the sorted window under one staged-merge fold, so the completion path
// never sorts. Under AdaptiveEstimates the same publish refreshes the
// slug's observed pricing, so submissions read the blends as of the last
// publish rather than re-deriving them per request.
func (e *Engine) observe(slug, platformName string, service, at time.Duration) {
	dg := e.obs.Record(slug, platformName, service)
	k := latKey{slug: slug, platform: platformName}
	v, ok := e.latGauges.Load(k)
	if !ok {
		labels := "{benchmark=" + slug + ",platform=" + platformName + "}"
		v, _ = e.latGauges.LoadOrStore(k, &latHandles{
			p50: e.tel.GaugeHandle("serve_latency_p50" + labels),
			p95: e.tel.GaugeHandle("serve_latency_p95" + labels),
			p99: e.tel.GaugeHandle("serve_latency_p99" + labels),
		})
	}
	h := v.(*latHandles)
	if !publishDue(&h.publish, at) {
		return
	}
	ps := [3]float64{0.50, 0.95, 0.99}
	var qs [3]time.Duration
	dg.QuantilesInto(ps[:], qs[:])
	h.p50.SetDuration(qs[0])
	h.p95.SetDuration(qs[1])
	h.p99.SetDuration(qs[2])
	if e.opt.AdaptiveEstimates {
		if v, ok := e.estimates.Load(slug); ok {
			e.publishObserved(v.(*serviceEstimate))
		}
	}
}

// recordWaits folds one dispatched batch's queue delays — each request's
// arrival→dispatch wait — into the serving pool's wait window and
// refreshes its serve_queue_delay_* gauges. A stolen request charges its
// wait to the pool that served it, while its arrival instant (the task's
// Arrived) survives the move — so a hot pool's digest reflects what its own backlog cost, not
// what it exported. Every task was admitted, and so stamped, before the
// dispatch that gathered it, so no wait is negative; the delivery loop
// hands the same values to the per-request outcomes.
//
//dscslint:hotpath
func (e *Engine) recordWaits(p *pool, bs *batchState, dispatched time.Duration) {
	bs.waits = bs.waits[:0]
	for i := range bs.tasks {
		bs.waits = append(bs.waits, dispatched-bs.tasks[i].Arrived)
	}
	dg := p.chargeWaits(e.opt.EstimateWindow, bs.waits)
	if e.opt.AdaptiveBalance {
		// The peer-wake gate reads the warmed wait-p95 as of this
		// dispatch, so admits never read the digest to decide a wakeup.
		e.bal.publishWakeGate(p.idx)
	}
	if dg == nil || !publishDue(&p.delayPublish, dispatched) {
		return
	}
	// Like the serve_latency_* gauges, these publish the sliding-window
	// quantiles — the very values the balance latch reads — so an operator
	// alerting on serve_queue_delay_p95 watches the same signal that trips
	// rebalancing, and the gauge falls back once a congested window drains
	// instead of staying inflated by history. Windowed reads are O(1) off
	// the sorted ring, all three under one staged-merge fold.
	ps := [3]float64{0.50, WaitQuantile, 0.99}
	var qs [3]time.Duration
	dg.QuantilesInto(ps[:], qs[:])
	p.gDelayP50.SetDuration(qs[0])
	p.gDelayP95.SetDuration(qs[1])
	p.gDelayP99.SetDuration(qs[2])
}

// WaitDigest exposes the named pool's queue-delay window (diagnostics,
// tests): nil for an unknown platform, and until the pool's first dispatch.
func (e *Engine) WaitDigest(platform string) *metrics.Digest {
	p, ok := e.pools[platform]
	if !ok {
		return nil
	}
	return p.wait.Load()
}

// chargeWaits charges one dispatched batch's queue delays to the pool's
// wait digest, made over window observations on first use, and returns the
// digest (nil only for an empty batch on a fresh pool).
func (p *pool) chargeWaits(window int, waits []time.Duration) *metrics.Digest {
	if len(waits) == 0 {
		return p.wait.Load()
	}
	for {
		if dg := p.wait.Load(); dg != nil {
			dg.RecordBatch(waits)
			return dg
		}
		p.wait.CompareAndSwap(nil, metrics.NewDigest(window))
	}
}

// observedService blends one class's static service prior toward the
// observed p50 of that class's best-observed pool (the cached class lists
// are name-sorted, so ties break deterministically). Un-observed
// benchmarks keep the prior untouched.
func (e *Engine) observedService(slug string, class sched.InstanceClass, static time.Duration) time.Duration {
	pools := e.spillCPU
	if class == sched.ClassDSCS {
		pools = e.dscsPools
	}
	var best *metrics.Digest
	for _, p := range pools {
		if dg := e.obs.Digest(slug, p.name); dg != nil && (best == nil || dg.Count() > best.Count()) {
			best = dg
		}
	}
	if best == nil {
		return static
	}
	return best.Blend(static, e.obs.Warmup())
}
