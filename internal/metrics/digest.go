// digest.go is the latency observatory's data structure: an online
// quantile digest safe for concurrent Record from serving-engine worker
// goroutines. A Digest is the concurrent shell — a mutex — around one
// Window (window.go), the sliding-window order statistic whose windowed
// quantiles react to drift. The serving engine's adaptive decisions read
// Digests — the wait-keyed balance (one per pool), the Adopt latch and
// Blend that service-estimate pricing uses, and the serve_latency_* and
// serve_queue_delay_* gauges on /metrics. The
// Observatory keys Digests per {benchmark, platform}, so the scheduler's
// live pricing and the telemetry both see per-pool service behavior rather
// than one blurred aggregate. A single-threaded owner (the simulations'
// per-pool wait windows) holds a Window instead and pays for none of the
// concurrency.

package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Digest tuning defaults shared by the serving engine and the
// discrete-event simulations.
const (
	// DefaultWindow is the sliding-window size of a digest, in
	// observations.
	DefaultWindow = 512
	// DefaultWarmup is the observation count below which a digest defers
	// to the static prior (the cold-start estimate).
	DefaultWarmup = 32
)

// Adoption hysteresis bands: a live estimate replaces the static prior
// only once it diverges beyond AdoptEnterRatio (in either direction), and
// drops back only when it re-converges within the tighter AdoptExitRatio —
// so pricing cannot flap when the observed latency hovers at a boundary.
const (
	AdoptEnterRatio = 1.5
	AdoptExitRatio  = 1.2
)

// Digest is a sliding window of the last window observations, plus the
// static-vs-live Adopt latch and Blend. Safe for concurrent use: a mutex
// around one Window, which stages observations in its own run and folds
// them forward when the run fills or a read finds it non-empty (with the
// costs Window documents). A write is the lock and an append; a windowed
// read is the lock, a fold of at most one run, and an index. Only the
// observation count is read without the lock.
type Digest struct {
	mu sync.Mutex
	// w is the ring, its sorted view and its staging run, guarded by mu.
	w Window

	// total counts every Record ever made — warmup thresholds read it
	// without touching the lock. Record bumps it before it stages, so it
	// never trails the window's own count.
	total atomic.Int64

	// live is the adoption latch (see Adopt); flips counts its toggles.
	live  bool
	flips int64
}

// NewDigest returns an empty digest over a window of the given size
// (DefaultWindow when non-positive).
func NewDigest(size int) *Digest {
	return &Digest{w: makeWindow(size)}
}

// Record stages one observation under the digest lock — no allocation.
// Negative durations (a clock anomaly upstream) clamp to zero so no
// quantile can ever go negative. When the staged run fills, Record folds
// it forward (amortized: once per stageCap observations).
//
//dscslint:hotpath
func (d *Digest) Record(v time.Duration) {
	d.total.Add(1)
	d.mu.Lock()
	d.w.Record(v)
	d.mu.Unlock()
}

// RecordBatch stages a run of observations exactly as consecutive Record
// calls would — same values, same order — but takes the lock once per run
// instead of once per value. The serving engine records one dispatched
// batch's queue delays through this. Folds fire on the same run-full edges
// as the one-at-a-time path.
//
//dscslint:hotpath
func (d *Digest) RecordBatch(vs []time.Duration) {
	if len(vs) == 0 {
		return
	}
	d.total.Add(int64(len(vs)))
	d.mu.Lock()
	for _, v := range vs {
		d.w.Record(v)
	}
	d.mu.Unlock()
}

// Count reports the total observations ever recorded (not capped at the
// window) — the warmup thresholds compare against it. Lock-free: the hot
// warmth checks on the submit path never contend with writers.
func (d *Digest) Count() int64 {
	return d.total.Load()
}

// Quantile returns the p-quantile over the sliding window — the reactive
// estimate adaptive scheduling prices with — by the same interpolation as
// Sample.Percentile. Never negative, never NaN; 0 only when nothing was
// recorded. The read folds any staged observations
// forward first (and rebuilds a stale view); with none staged it is the
// digest lock and an index.
func (d *Digest) Quantile(p float64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return quantileSorted(d.w.view(), p)
}

// QuantilesInto fills out[i] with the ps[i]-quantile over the sliding
// window under a single lock and fold — value-identical to calling
// Quantile once per p, minus the repeated lock/fold round-trips. The
// per-batch gauge refresh on the serving hot path reads through this.
// out and ps must have equal length.
func (d *Digest) QuantilesInto(ps []float64, out []time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sorted := d.w.view()
	for i, p := range ps {
		out[i] = quantileSorted(sorted, p)
	}
}

// adoptStep is the hysteresis decision shared by Digest.Adopt and Latch:
// given the current latch state, the live estimate, and the static prior,
// it returns the estimate to use, whether it is live, and whether the
// latch state flipped. The caller has already handled warmup and a
// degenerate (non-positive) live value; a non-positive static prior
// adopts any live estimate outright.
func adoptStep(latched bool, live, static time.Duration) (est time.Duration, adopted, flipped bool) {
	if static <= 0 {
		return live, true, !latched
	}
	ratio := float64(live) / float64(static)
	if latched {
		if ratio < AdoptExitRatio && ratio > 1/AdoptExitRatio {
			return static, false, true
		}
		return live, true, false
	}
	if ratio >= AdoptEnterRatio || ratio <= 1/AdoptEnterRatio {
		return live, true, true
	}
	return static, false, false
}

// Adopt is the static-vs-live switching decision with warmup and
// hysteresis: below warmup observations (or while the live q-quantile is
// degenerate, i.e. non-positive) the static prior holds. Once warmed, the
// live estimate is adopted when it diverges from the prior beyond
// AdoptEnterRatio and dropped again only when it re-converges within
// AdoptExitRatio, so the decision latches instead of flapping per request.
// A non-positive static prior adopts any warmed live estimate outright.
// It returns the estimate pricing should use and whether it is live.
//
// The latch lives in the digest, which assumes one stable prior per
// digest (the service-estimate regime). A caller comparing one digest
// against several different peers must keep a Latch per pair instead —
// otherwise the pairwise decisions would share state and depend on
// evaluation order.
func (d *Digest) Adopt(static time.Duration, q float64, warmup int64) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := quantileSorted(d.w.view(), q)
	if d.total.Load() < warmup || live <= 0 {
		return static, false
	}
	est, adopted, flipped := adoptStep(d.live, live, static)
	if flipped {
		d.live = adopted
		d.flips++
	}
	return est, adopted
}

// Latch is a standalone one-sided adoption latch over the same hysteresis
// bands as Digest.Adopt, for decisions that compare one digest against
// multiple peers (the wait-gap balance triggers): each (donor, peer) pair
// owns its own Latch, so one pair's divergence cannot arm or release
// another's. Not safe for concurrent use; callers serialize access.
type Latch struct {
	live  bool
	flips int64
}

// Above evaluates the one-sided gap trigger: it latches when live
// diverges above static beyond AdoptEnterRatio and releases once live
// falls back within AdoptExitRatio of static — or anywhere below it.
// Divergence *below* static never arms it (unlike Digest.Adopt's
// two-sided bands, where a latch armed by the donor being the idle side
// would silently lower the entry threshold for a later upward swing from
// AdoptEnterRatio to AdoptExitRatio). A non-positive live releases; a
// non-positive static adopts any positive live outright — diverging
// above "nothing to wait for" at any ratio. Warmup is the caller's
// concern.
func (l *Latch) Above(live, static time.Duration) bool {
	on := l.live
	switch {
	case live <= 0:
		on = false
	case static <= 0:
		on = true
	default:
		ratio := float64(live) / float64(static)
		if l.live {
			on = ratio >= AdoptExitRatio
		} else {
			on = ratio >= AdoptEnterRatio
		}
	}
	if on != l.live {
		l.live = on
		l.flips++
	}
	return on
}

// Flips counts the latch's state toggles — the no-flapping tests pin it.
func (l *Latch) Flips() int64 { return l.flips }

// Reset releases the latch without counting a flip. Pool-death
// invalidation uses it: a latch armed by a now-dead pool's wait history
// prices a world that no longer exists, and releasing it is forgetting,
// not a hysteresis transition the flapping tests should see.
func (l *Latch) Reset() { l.live = false }

// Flips counts adoption-latch toggles — the no-flapping tests pin it.
func (d *Digest) Flips() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flips
}

// Blend mixes the static prior with the observed windowed p50, weighting
// the prior as warmup pseudo-observations against the (window-capped)
// observation count — a smooth pull from cold-start pricing toward
// measurement, with no threshold to flap across. A degenerate observed p50
// keeps the prior. The result is never negative: the weighted mean is
// computed in float64 (durations near MaxInt64 would wrap an int64
// product) and saturates at the maximum duration.
func (d *Digest) Blend(static time.Duration, warmup int64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	sorted := d.w.view()
	n := d.total.Load()
	if w := int64(cap(d.w.ring)); n > w {
		n = w
	}
	if n == 0 || warmup <= 0 {
		return static
	}
	p50 := quantileSorted(sorted, 0.5)
	if p50 <= 0 {
		return static
	}
	if static <= 0 {
		return p50
	}
	blend := (float64(static)*float64(warmup) + float64(p50)*float64(n)) / float64(warmup+n)
	if blend >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(blend)
}

// obsKey addresses one digest in the observatory.
type obsKey struct{ bench, platform string }

// Observatory holds the latency digests of a serving run, keyed per
// {benchmark, platform}. Safe for concurrent use; lookups on the record
// path are a lock-free sync.Map read.
type Observatory struct {
	window int
	warmup int64
	m      sync.Map // obsKey -> *Digest
}

// NewObservatory builds an observatory whose digests use the given window
// and warmup (defaults DefaultWindow/DefaultWarmup when non-positive).
func NewObservatory(window, warmup int) *Observatory {
	if window <= 0 {
		window = DefaultWindow
	}
	if warmup <= 0 {
		warmup = DefaultWarmup
	}
	return &Observatory{window: window, warmup: int64(warmup)}
}

// Warmup reports the observation count below which digests defer to the
// static prior.
func (o *Observatory) Warmup() int64 { return o.warmup }

// Record folds one completion latency into the keyed digest (created on
// first use) and returns the digest so the caller can read gauges off it.
//
//dscslint:hotpath
func (o *Observatory) Record(bench, platform string, v time.Duration) *Digest {
	k := obsKey{bench, platform}
	if d, ok := o.m.Load(k); ok {
		dg := d.(*Digest)
		dg.Record(v)
		return dg
	}
	d, _ := o.m.LoadOrStore(k, NewDigest(o.window))
	dg := d.(*Digest)
	dg.Record(v)
	return dg
}

// Digest returns the keyed digest, or nil when nothing was recorded for it.
func (o *Observatory) Digest(bench, platform string) *Digest {
	if d, ok := o.m.Load(obsKey{bench, platform}); ok {
		return d.(*Digest)
	}
	return nil
}

// ServiceQuantile prices one scheduling decision: the live q-quantile for
// the key once its digest is warmed and diverged (Digest.Adopt — warmup,
// hysteresis), the static prior otherwise. The result is positive whenever
// static is.
func (o *Observatory) ServiceQuantile(bench, platform string, static time.Duration, q float64) time.Duration {
	dg := o.Digest(bench, platform)
	if dg == nil {
		return static
	}
	est, _ := dg.Adopt(static, q, o.warmup)
	return est
}

// Blend mixes the static prior with the key's observed p50 (see
// Digest.Blend); the prior passes through untouched when nothing was
// recorded.
func (o *Observatory) Blend(bench, platform string, static time.Duration) time.Duration {
	dg := o.Digest(bench, platform)
	if dg == nil {
		return static
	}
	return dg.Blend(static, o.warmup)
}

// Forget drops every digest of one benchmark across all platforms — the
// redeploy invalidation: a changed chain must not inherit the old chain's
// latency history any more than its static pricing.
func (o *Observatory) Forget(bench string) {
	o.m.Range(func(k, _ interface{}) bool {
		if k.(obsKey).bench == bench {
			o.m.Delete(k)
		}
		return true
	})
}
