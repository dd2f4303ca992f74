// Package trace generates request arrival traces for the at-scale
// evaluation (Figure 13a): an open-loop Poisson process whose rate follows
// a bursty profile, with each request sampling a benchmark from the suite —
// the methodology the paper borrows from serverless inference-serving work.
package trace

import (
	"fmt"
	"math"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/sim"
	"dscs/internal/workload"
)

// Request is one arrival. Its identity is its index in Trace.Requests.
type Request struct {
	At        time.Duration
	Benchmark string // workload slug
}

// Trace is an ordered arrival sequence.
type Trace struct {
	Requests []Request
	Duration time.Duration
}

// BurstyConfig parameterizes the rate profile: a base rate with periodic
// bursts, matching the 200-800 requests/s swings of Figure 13a.
type BurstyConfig struct {
	Duration    time.Duration
	BaseRate    float64 // requests per second between bursts
	BurstRate   float64 // requests per second during bursts
	BurstEvery  time.Duration
	BurstLength time.Duration
}

// PaperTrace is the 20-minute bursty profile of the at-scale runs.
func PaperTrace() BurstyConfig {
	return BurstyConfig{
		Duration:    20 * time.Minute,
		BaseRate:    450,
		BurstRate:   720,
		BurstEvery:  4 * time.Minute,
		BurstLength: 45 * time.Second,
	}
}

// Validate rejects degenerate configs.
func (c BurstyConfig) Validate() error {
	if c.Duration <= 0 || c.BaseRate <= 0 || c.BurstRate < c.BaseRate {
		return fmt.Errorf("trace: invalid rate profile")
	}
	if c.BurstEvery <= 0 || c.BurstLength <= 0 || c.BurstLength >= c.BurstEvery {
		return fmt.Errorf("trace: invalid burst timing")
	}
	return nil
}

// RateAt returns the instantaneous arrival rate.
func (c BurstyConfig) RateAt(t time.Duration) float64 {
	phase := t % c.BurstEvery
	if phase < c.BurstLength {
		return c.BurstRate
	}
	return c.BaseRate
}

// DiurnalConfig parameterizes a day-shaped rate profile with bursts riding
// on top: a sinusoid swings the base rate between MinRate (trough, at t=0)
// and MaxRate (crest) over each Period, and periodic bursts multiply
// whatever the sinusoid sits at by BurstFactor — spikes proportional to
// ambient traffic, so nights stay quiet while daytime bursts overwhelm a
// mid-sized pool. This is the elastic-capacity stress shape: a fixed pool
// sized near the crest idles through every trough, and a purely reactive
// one eats a cold start at every burst edge.
type DiurnalConfig struct {
	Duration time.Duration
	// MinRate and MaxRate bound the sinusoidal base in requests/s.
	MinRate, MaxRate float64
	// Period is one full trough-crest-trough cycle.
	Period time.Duration
	// BurstFactor multiplies the base rate during bursts (0 or 1
	// disables; must otherwise exceed 1).
	BurstFactor float64
	// BurstEvery and BurstLength time the bursts (as in BurstyConfig).
	BurstEvery, BurstLength time.Duration
}

// Validate rejects degenerate configs.
func (c DiurnalConfig) Validate() error {
	if c.Duration <= 0 || c.MinRate <= 0 || c.MaxRate < c.MinRate || c.Period <= 0 {
		return fmt.Errorf("trace: invalid diurnal profile")
	}
	if c.BurstFactor != 0 && c.BurstFactor < 1 {
		return fmt.Errorf("trace: BurstFactor must be 0 (off) or >= 1")
	}
	if c.BurstFactor > 1 &&
		(c.BurstEvery <= 0 || c.BurstLength <= 0 || c.BurstLength >= c.BurstEvery) {
		return fmt.Errorf("trace: invalid burst timing")
	}
	return nil
}

// peak is the thinning envelope.
func (c DiurnalConfig) peak() float64 {
	if c.BurstFactor > 1 {
		return c.MaxRate * c.BurstFactor
	}
	return c.MaxRate
}

// RateAt returns the instantaneous arrival rate.
func (c DiurnalConfig) RateAt(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(c.Period)
	rate := c.MinRate + (c.MaxRate-c.MinRate)*(1-math.Cos(phase))/2
	if c.BurstFactor > 1 && t%c.BurstEvery < c.BurstLength {
		rate *= c.BurstFactor
	}
	return rate
}

// Generate draws the arrival sequence: a non-homogeneous Poisson process by
// thinning against the peak rate, with benchmarks sampled uniformly (the
// paper samples functions randomly from the suite).
func Generate(cfg BurstyConfig, suite []*workload.Benchmark, rng *sim.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return generate(cfg.Duration, cfg.BurstRate, cfg.RateAt, suite, rng)
}

// GenerateDiurnal draws a diurnal+bursty arrival sequence by the same
// thinning construction.
func GenerateDiurnal(cfg DiurnalConfig, suite []*workload.Benchmark, rng *sim.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return generate(cfg.Duration, cfg.peak(), cfg.RateAt, suite, rng)
}

// maxPrealloc caps generate's up-front reservation, in requests (the
// 20-minute paper trace expects about 600k).
const maxPrealloc = 1 << 21

// rateGrid is how many midpoint samples of the rate profile size
// generate's reservation.
const rateGrid = 4096

// expectedArrivals sizes generate's reservation: the profile's expected
// arrival count, ∫rate dt by the midpoint rule on a fixed grid, plus a 4σ
// Poisson margin (a count above it is rare enough that the one regrowth
// it costs does not matter), capped at maxPrealloc.
func expectedArrivals(duration time.Duration, rateAt func(time.Duration) float64) int {
	step := duration / rateGrid
	if step <= 0 {
		step = 1
	}
	mean := 0.0
	for t := time.Duration(0); t < duration; t += step {
		cell := min(step, duration-t)
		mean += rateAt(t+cell/2) * cell.Seconds()
	}
	return int(min(mean+4*math.Sqrt(mean)+1, maxPrealloc))
}

// generate is the shared thinning loop: exponential gaps at the peak rate,
// arrivals kept with probability rate(t)/peak.
func generate(duration time.Duration, peak float64, rateAt func(time.Duration) float64, suite []*workload.Benchmark, rng *sim.RNG) (*Trace, error) {
	if len(suite) == 0 {
		return nil, fmt.Errorf("trace: empty suite")
	}
	// Thinning keeps far fewer than the peak x duration candidates (the
	// paper trace keeps 70 %), so the slice is sized from the profile's own
	// expected count, once, instead of growing it from empty.
	tr := &Trace{Duration: duration, Requests: make([]Request, 0, expectedArrivals(duration, rateAt))}
	meanGap := time.Duration(float64(time.Second) / peak)
	t := time.Duration(0)
	for {
		t += rng.Exp(meanGap)
		if t >= duration {
			break
		}
		// Thinning: accept with probability rate(t)/peak.
		if rng.Float64()*peak > rateAt(t) {
			continue
		}
		b := suite[rng.Intn(len(suite))]
		tr.Requests = append(tr.Requests, Request{At: t, Benchmark: b.Slug})
	}
	return tr, nil
}

// RateSeries buckets arrivals into a requests/second time series
// (Figure 13a's plotted form).
func (tr *Trace) RateSeries(bucket time.Duration) *metrics.Series {
	s := &metrics.Series{Name: "requests/s"}
	if bucket <= 0 || tr.Duration < 0 || len(tr.Requests) == 0 {
		return s
	}
	counts := make([]int, int(tr.Duration/bucket)+1)
	for _, r := range tr.Requests {
		// An arrival outside [0, Duration] falls in no plotted bucket.
		if i := int(r.At / bucket); i >= 0 && i < len(counts) {
			counts[i]++
		}
	}
	for i, n := range counts {
		s.Add(time.Duration(i)*bucket, float64(n)/bucket.Seconds())
	}
	return s
}

// MeanRate is the trace-wide average arrival rate.
func (tr *Trace) MeanRate() float64 {
	if tr.Duration <= 0 {
		return 0
	}
	return float64(len(tr.Requests)) / tr.Duration.Seconds()
}
