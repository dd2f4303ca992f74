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
//     Per-{benchmark, pool} inter-arrival gap digests estimate the
//     near-peak arrival rate (a low gap quantile provisions for bursts,
//     and the sliding window follows the diurnal cycle), multiplied by
//     the observed p50 service time; a hysteresis latch on the pool's
//     wait p95 (the same Adopt bands as adaptive pricing, PR 4/5)
//     boosts to Max while waits run at cold-start scale, without
//     flapping at the threshold.
//
// The Autoscaler owns no goroutines and no clock: callers feed it
// arrivals and completions stamped with their own clock — wall time in
// the live engine, virtual time in the discrete-event sims — and ask
// for Desired at their own cadence.
package scale

import (
	"fmt"
	"math"
	"sync"
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

// Validate rejects an unknown mode and impossible bounds.
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
	return nil
}

// Autoscaler produces desired warm capacity for one pool. Safe for
// concurrent use: observations arrive from every submitter goroutine in
// the live engine, while Desired runs under the pool lock.
type Autoscaler struct {
	cfg  Config
	pool string

	mu      sync.Mutex
	last    map[string]time.Duration // last arrival instant per benchmark
	benches []string                 // insertion order: deterministic demand sums
	gaps    *metrics.Observatory     // inter-arrival gaps per {benchmark, pool}
	svc     *metrics.Observatory     // service times per {benchmark, pool}
	surge   metrics.Latch            // wait-p95 vs. cold-start hysteresis
}

// New builds an autoscaler for the named pool.
func New(cfg Config, pool string) (*Autoscaler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = DefaultWarmup
	}
	return &Autoscaler{
		cfg:  cfg,
		pool: pool,
		last: make(map[string]time.Duration),
		gaps: metrics.NewObservatory(cfg.Window, cfg.Warmup),
		svc:  metrics.NewObservatory(cfg.Window, cfg.Warmup),
	}, nil
}

// ObserveArrival folds one admission at now into the benchmark's
// inter-arrival digest. The first arrival of a benchmark only anchors
// the gap stream.
func (a *Autoscaler) ObserveArrival(bench string, now time.Duration) {
	a.mu.Lock()
	prev, ok := a.last[bench]
	a.last[bench] = now
	if !ok {
		a.benches = append(a.benches, bench)
	}
	a.mu.Unlock()
	if ok && now >= prev {
		a.gaps.Record(bench, a.pool, now-prev)
	}
}

// ObserveService folds one completed execution's service time into the
// benchmark's digest; the predictive floor prices demand with its p50.
func (a *Autoscaler) ObserveService(bench string, d time.Duration) {
	if d > 0 {
		a.svc.Record(bench, a.pool, d)
	}
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
		if d := a.PredictedDemand(); d > target {
			target = d
		}
		a.mu.Lock()
		surge := a.cfg.ColdStart > 0 && a.surge.Above(waitP95, a.cfg.ColdStart/2)
		a.mu.Unlock()
		if surge {
			target = a.cfg.Max
		}
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
// the reactive baseline carries them until their digests fill.
func (a *Autoscaler) PredictedDemand() int {
	a.mu.Lock()
	benches := a.benches
	a.mu.Unlock()
	demand := 0.0
	for _, b := range benches {
		gd := a.gaps.Digest(b, a.pool)
		sd := a.svc.Digest(b, a.pool)
		if gd == nil || sd == nil || gd.Count() < int64(a.cfg.Warmup) || sd.Count() < int64(a.cfg.Warmup) {
			continue
		}
		gap := gd.Quantile(GapQuantile)
		if gap < time.Microsecond {
			gap = time.Microsecond // coincident arrivals: cap the implied rate
		}
		p50 := sd.Quantile(0.5)
		if p50 <= 0 {
			continue
		}
		demand += Headroom * float64(p50) / float64(gap)
	}
	return int(math.Ceil(demand))
}

// SurgeFlips counts surge-latch toggles — the no-flapping tests pin it.
func (a *Autoscaler) SurgeFlips() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.surge.Flips()
}
