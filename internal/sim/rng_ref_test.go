package sim

import (
	"math"
	"time"
)

// gamma is splitmix64's increment.
const gamma = 0x9E3779B97F4A7C15

// refRNG is the generator as it was before LogNormal draws were computed
// ahead: every draw computed alone, straight from the state. The
// differential tests hold RNG to it.
type refRNG struct {
	state uint64
}

func newRefRNG(seed uint64) *refRNG {
	return &refRNG{state: seed + 0x9E3779B97F4A7C15}
}

func (r *refRNG) Split() *refRNG {
	return newRefRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}

func (r *refRNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *refRNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

func (r *refRNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

func (r *refRNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (r *refRNG) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return time.Duration(-math.Log(u) * float64(mean))
}

// refSample is LogNormal.Sample on the reference generator.
func refSample(d LogNormal, r *refRNG) time.Duration {
	if d.Median <= 0 {
		return 0
	}
	z := r.NormFloat64()
	return time.Duration(float64(d.Median) * math.Exp(d.Sigma*z))
}

// unscramble inverts splitmix64's output function, the state to bits map
// that follows each increment: each xorshift and each odd multiplier is a
// bijection on 64 bits. The tests use it to plant a state whose uniform is
// exactly zero, which NormFloat64 rejects.
func unscramble(z uint64) uint64 {
	z = unshift(z, 31) * inverse(0x94D049BB133111EB)
	z = unshift(z, 27) * inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// unshift inverts x ^ x>>k.
func unshift(z uint64, k uint) uint64 {
	x := z
	for i := uint(0); i < 64/k; i++ {
		x = z ^ x>>k
	}
	return x
}

// inverse is the multiplicative inverse of the odd c modulo 2^64 (Newton's
// iteration doubles the correct low bits each step).
func inverse(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}
