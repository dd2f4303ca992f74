// Package scale decides how much of a pool's capacity should be warm.
// It is the policy half of elastic workers: internal/serve's Lifecycle
// is the mechanism (slots move cold -> warming -> warm -> suspended on
// a caller-driven clock), and the Autoscaler here produces the desired
// warm capacity the lifecycle converges to. Three modes:
//
//   - Fixed: desired is always Max — the classic fixed pool, expressed
//     through the same machinery so its idle-capacity cost is measured
//     on the same axis as the elastic modes.
//   - Reactive: desired tracks the observable backlog (busy + queued).
//     Capacity grows only after work is already waiting, so every burst
//     eats the cold-start penalty before relief arrives.
//   - Predictive: reactive, plus a pre-warm floor from Little's law.
//     Per-benchmark inter-arrival gap digests estimate the near-peak
//     arrival rate (a low gap quantile provisions for bursts, and the
//     sliding window follows the diurnal cycle), multiplied by the
//     observed p50 service time; a hysteresis latch on the pool's wait
//     p95 (the same Adopt bands as adaptive pricing, PR 4/5) boosts to
//     Max while waits run at cold-start scale, without flapping at the
//     threshold.
//
// The Autoscaler owns no goroutines and no clock: callers feed it
// arrivals and completions stamped with their own clock — wall time in
// the live engine, virtual time in the discrete-event sims — and ask
// for Desired at their own cadence. Only the predictive mode reads
// those observations, so only it keeps them: a fixed or reactive
// autoscaler holds no per-benchmark state, and its Observe calls return
// before taking any lock.
package scale

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dscs/internal/metrics"
)

// Mode selects the scaling policy.
type Mode int

const (
	// ModeFixed pins desired capacity at Max.
	ModeFixed Mode = iota
	// ModeReactive sizes to the observed backlog.
	ModeReactive
	// ModePredictive adds the Little's-law pre-warm floor and the
	// wait-latch surge to the reactive baseline.
	ModePredictive
)

// String names the mode for flags and logs.
func (m Mode) String() string {
	switch m {
	case ModeFixed:
		return "fixed"
	case ModeReactive:
		return "reactive"
	case ModePredictive:
		return "predictive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config bounds and parameterizes one pool's autoscaler.
type Config struct {
	Mode Mode
	// Min and Max bound the desired capacity and the pool lifecycle's
	// warm capacity alike. Min == 0 allows scale-to-zero; Max is also the
	// number of worker loops the live engine parks over the pool.
	Min, Max int
	// ColdStart is the warming penalty the lifecycle charges: the delay
	// between a slot being asked for and it becoming dispatchable. The
	// surge latch compares wait p95 against half of it — once requests
	// wait on the order of a cold start, warming everything is cheaper
	// than queueing.
	ColdStart time.Duration
	// IdleLinger is how long the lifecycle keeps a warm slot idle before
	// it may suspend (only while capacity exceeds the target). Zero
	// suspends surplus idle slots at the next advance; the surplus
	// condition, not the linger, is what prevents warm/suspend thrash.
	// The autoscaler itself never reads it.
	IdleLinger time.Duration
	// Warmup is the per-benchmark observation count below which the
	// predictive floor stays silent (default DefaultWarmup).
	Warmup int
	// Window sizes the gap/service digests (default metrics.DefaultWindow).
	Window int
}

// DefaultWarmup is the per-benchmark observation floor for the
// predictive demand estimate. It is lower than metrics.DefaultWarmup:
// a pool-level rate estimate fans out over many benchmarks, and waiting
// 32 arrivals per benchmark would mute pre-warm for entire bursts.
const DefaultWarmup = 16

// GapQuantile is the inter-arrival quantile the rate estimate inverts.
// A low quantile reads the burst-level gap, not the average, so the
// pre-warm floor provisions for the traffic's fast mode.
const GapQuantile = 0.25

// Headroom multiplies the Little's-law demand so stochastic arrivals
// don't queue at exactly-critical utilization.
const Headroom = 1.25

// Validate rejects an unknown mode, impossible bounds and negative
// fields (zero Warmup or Window means the default; a negative one is a
// caller error, not a request for the default).
func (c Config) Validate() error {
	if c.Mode < ModeFixed || c.Mode > ModePredictive {
		return fmt.Errorf("scale: unknown %v", c.Mode)
	}
	if c.Max <= 0 {
		return fmt.Errorf("scale: Max must be positive, got %d", c.Max)
	}
	if c.Min < 0 || c.Min > c.Max {
		return fmt.Errorf("scale: Min %d outside [0, Max=%d]", c.Min, c.Max)
	}
	if c.ColdStart < 0 || c.IdleLinger < 0 {
		return fmt.Errorf("scale: negative durations")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("scale: Warmup %d must be >= 0 (0 means %d)", c.Warmup, DefaultWarmup)
	}
	if c.Window < 0 {
		return fmt.Errorf("scale: Window %d must be >= 0 (0 means %d)", c.Window, metrics.DefaultWindow)
	}
	return nil
}

// Autoscaler produces desired warm capacity for one pool. Safe for
// concurrent use: observations arrive from every submitter goroutine in
// the live engine, while Desired runs under the pool lock.
type Autoscaler struct {
	cfg Config

	mu sync.Mutex
	// benches and order are the predictive floor's inputs: one record
	// per benchmark, and the records in first-arrival order, so demand
	// sums deterministically. Both stay nil in the other modes.
	benches map[string]*benchObs
	order   []*benchObs
	// readMu serializes the readers' state — the surge latch and each
	// stream's memoized quantile — so observers never wait on a read.
	readMu sync.Mutex
	surge  metrics.Latch // wait-p95 vs. cold-start hysteresis
}

// benchObs is what the predictive floor knows about one benchmark. last
// and arrived are guarded by the autoscaler's mutex.
type benchObs struct {
	last    time.Duration // last arrival instant
	arrived bool          // last anchors the gap stream; the record is in order
	gaps    stream
	svc     stream
}

// stream is one of a benchmark's observation streams. Its digest is
// created on the first record — a pool can see completions it stole
// without arrivals, and arrivals it never completed — and published
// atomically, because readers take no a.mu. version counts finished
// records and forgets, bumped once the digest holds the value; q and warm
// are the readers' quantile as of version seen (guarded by readMu), so a
// read re-derives only the streams observed since the last one.
type stream struct {
	d       atomic.Pointer[metrics.Digest]
	version atomic.Uint64
	seen    uint64
	q       time.Duration
	warm    bool
}

// quantile reads the stream's p-quantile, ok once its digest holds warmup
// records. Callers hold a.readMu.
func (s *stream) quantile(p float64, warmup int) (q time.Duration, ok bool) {
	if v := s.version.Load(); v != s.seen {
		s.seen = v
		d := s.d.Load()
		s.warm = d != nil && d.Count() >= int64(warmup)
		if s.warm {
			s.q = d.Quantile(p)
		}
	}
	return s.q, s.warm
}

// New builds an autoscaler for one pool.
func New(cfg Config) (*Autoscaler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = DefaultWarmup
	}
	a := &Autoscaler{cfg: cfg}
	if cfg.Mode == ModePredictive {
		a.benches = make(map[string]*benchObs)
	}
	return a, nil
}

// ReadsWait reports whether Desired reads its waitP95 argument: only the
// predictive surge latch does, and only with a cold start to pre-empt.
// Callers skip the wait quantile when it does not.
func (a *Autoscaler) ReadsWait() bool {
	return a.cfg.Mode == ModePredictive && a.cfg.ColdStart > 0
}

// digestOf returns the digest s holds, creating it on first use. Callers
// hold a.mu, which serializes creation.
func (a *Autoscaler) digestOf(s *stream) *metrics.Digest {
	d := s.d.Load()
	if d == nil {
		d = metrics.NewDigest(a.cfg.Window)
		s.d.Store(d)
	}
	return d
}

// record returns bench's record, creating it on first use. Callers hold
// a.mu.
func (a *Autoscaler) record(bench string) *benchObs {
	r := a.benches[bench]
	if r == nil {
		r = new(benchObs)
		a.benches[bench] = r
	}
	return r
}

// ObserveArrival folds one offered arrival at now — admitted or
// rejected, both describe the demand to warm for — into the benchmark's
// inter-arrival digest. The first arrival of a benchmark only anchors
// the gap stream; a backwards timestamp re-anchors it without a gap.
// Only the predictive mode observes.
func (a *Autoscaler) ObserveArrival(bench string, now time.Duration) {
	if a.benches == nil {
		return
	}
	a.mu.Lock()
	r := a.record(bench)
	prev, ok := r.last, r.arrived
	r.last = now
	if !ok {
		r.arrived = true
		a.order = append(a.order, r)
	}
	var gaps *metrics.Digest
	if ok && now >= prev {
		gaps = a.digestOf(&r.gaps)
	}
	a.mu.Unlock()
	if gaps != nil {
		gaps.Record(now - prev)
		r.gaps.version.Add(1)
	}
}

// ObserveService folds one completed execution's service time into the
// benchmark's digest; the predictive floor prices demand with its p50.
// Only the predictive mode observes.
func (a *Autoscaler) ObserveService(bench string, d time.Duration) {
	if a.benches == nil || d <= 0 {
		return
	}
	a.mu.Lock()
	r := a.record(bench)
	svc := a.digestOf(&r.svc)
	a.mu.Unlock()
	svc.Record(d)
	r.svc.version.Add(1)
}

// ForgetService drops bench's service record: a redeploy changed what the
// benchmark runs, so the old chain's service times must not price the
// floor. PredictedDemand skips bench until Warmup new completions arrive;
// its arrival record stands, since the rate did not change.
func (a *Autoscaler) ForgetService(bench string) {
	if a.benches == nil {
		return
	}
	a.mu.Lock()
	if r := a.benches[bench]; r != nil {
		r.svc.d.Store(nil)
		r.svc.version.Add(1)
	}
	a.mu.Unlock()
}

// Desired returns the warm capacity target at now, clamped to
// [Min, Max]. busy and queued describe the pool; waitP95 is the pool's
// adopted queue-wait p95 (zero when unwarmed), which only the
// predictive surge latch reads.
func (a *Autoscaler) Desired(now time.Duration, busy, queued int, waitP95 time.Duration) int {
	target := busy + queued
	switch a.cfg.Mode {
	case ModeFixed:
		target = a.cfg.Max
	case ModePredictive:
		a.readMu.Lock()
		if d := a.predictedDemandLocked(); d > target {
			target = d
		}
		if a.ReadsWait() && a.surge.Above(waitP95, a.cfg.ColdStart/2) {
			target = a.cfg.Max
		}
		a.readMu.Unlock()
	}
	if target < a.cfg.Min {
		target = a.cfg.Min
	}
	if target > a.cfg.Max {
		target = a.cfg.Max
	}
	return target
}

// PredictedDemand is the Little's-law pre-warm floor: for every warmed
// benchmark, the near-peak arrival rate (the inverse of a low quantile
// of its inter-arrival gaps) times its observed p50 service time, summed
// and padded with Headroom. Benchmarks below warmup contribute nothing —
// the reactive baseline carries them until their digests fill. Only the
// benchmarks observed since the last read are re-derived.
func (a *Autoscaler) PredictedDemand() int {
	a.readMu.Lock()
	defer a.readMu.Unlock()
	return a.predictedDemandLocked()
}

// predictedDemandLocked is PredictedDemand; callers hold a.readMu.
func (a *Autoscaler) predictedDemandLocked() int {
	a.mu.Lock()
	order := a.order
	a.mu.Unlock()
	demand := 0.0
	for _, r := range order {
		gap, gapOK := r.gaps.quantile(GapQuantile, a.cfg.Warmup)
		p50, svcOK := r.svc.quantile(0.5, a.cfg.Warmup)
		if !gapOK || !svcOK || p50 <= 0 {
			continue
		}
		if gap < time.Microsecond {
			gap = time.Microsecond // coincident arrivals: cap the implied rate
		}
		demand += Headroom * float64(p50) / float64(gap)
	}
	return int(math.Ceil(demand))
}
