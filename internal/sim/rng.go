package sim

import (
	"math"
	"time"
)

// RNG is a small deterministic pseudo-random generator (splitmix64 core)
// with the distributions the experiments need. It is not safe for concurrent
// use; give each simulated component its own stream via Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9E3779B97F4A7C15}
}

// Split derives an independent stream; the parent advances once.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	// Reject u1 == 0 to keep the log finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return time.Duration(-math.Log(u) * float64(mean))
}

// LogNormal describes a lognormal distribution by its median and the sigma
// of the underlying normal. The paper's storage tail (p99 about 2.1x the
// median) corresponds to sigma = ln(2.1)/2.326 ~= 0.32.
type LogNormal struct {
	Median time.Duration
	Sigma  float64
}

// Sample draws one latency from the distribution.
func (d LogNormal) Sample(r *RNG) time.Duration {
	if d.Median <= 0 {
		return 0
	}
	z := r.NormFloat64()
	return time.Duration(float64(d.Median) * math.Exp(d.Sigma*z))
}

// NormQuantile is the inverse standard normal CDF (Acklam's rational
// approximation, accurate to ~1e-9 over (0,1)).
func NormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	const phigh = 1 - plow
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		rr := q * q
		return (((((a[0]*rr+a[1])*rr+a[2])*rr+a[3])*rr+a[4])*rr + a[5]) * q /
			(((((b[0]*rr+b[1])*rr+b[2])*rr+b[3])*rr+b[4])*rr + 1)
	}
}
