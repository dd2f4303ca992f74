package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// rngSigmas are the sigmas the differential tests draw LogNormals at: the
// sims' service jitter, the storage tail's, a wide one, and zero.
var rngSigmas = [...]float64{0.2, 0.32, 1.5, 0}

// rngPair is a generator and its reference, driven in lockstep.
type rngPair struct {
	r   *RNG
	ref *refRNG
}

// zeroAt are the distances, in normals, at which plantZero puts a zero
// uniform: a streak's first draw and second, its last drawn alone, its
// first fill's first entry, second and last, and the next fill's first.
var zeroAt = [8]int{0, 1, minRun - 1, minRun, minRun + 1, minRun + 7, minRun + batch - 1, minRun + batch}

// plantZero moves both generators to the state from which the normal k
// draws ahead finds a uniform of exactly zero as its u1 (scrambled bits
// x < 1<<11), so NormFloat64 rejects it and a batch fill stops before it.
// It reports an error if unscramble did not plant the zero.
func (p *rngPair) plantZero(k int, x uint64) error {
	s := unscramble(x) - gamma - uint64(k)*normStep
	p.r.state, p.ref.state = s, s
	if u := (&refRNG{state: s + uint64(k)*normStep}).Float64(); u != 0 {
		return fmt.Errorf("planted uniform %v, want 0", u)
	}
	return nil
}

// runRNG decodes data as (op, arg) byte pairs, the first eight bytes also
// seeding the generators, applies each draw to RNG and to refRNG and
// reports the first value or final state that differs. It holds two
// generator pairs, the one drawn from and another, which a Split or a copy
// replaces and a swap brings in; a copy shares the original's batch, once
// the original has one.
func runRNG(data []byte) error {
	var seed uint64
	for i := 0; i < len(data) && i < 8; i++ {
		seed = seed<<8 | uint64(data[i])
	}
	p := rngPair{NewRNG(seed), newRefRNG(seed)}
	q := rngPair{NewRNG(^seed), newRefRNG(^seed)}
	step := 0
	same := func(what string, got, want float64) error {
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("step %d: %s = %v, reference %v", step, what, got, want)
		}
		return nil
	}
	ln := func(d LogNormal) error {
		if got, want := d.Sample(p.r), refSample(d, p.ref); got != want {
			return fmt.Errorf("step %d: Sample(%v) = %v, reference %v", step, d, got, want)
		}
		return nil
	}
	for i := 0; i+1 < len(data); i, step = i+2, step+1 {
		op, arg := data[i], data[i+1]
		sigma := rngSigmas[int(op/13)%len(rngSigmas)]
		var err error
		switch op % 13 {
		case 0:
			err = same("Uint64", float64(p.r.Uint64()), float64(p.ref.Uint64()))
		case 1:
			err = same("Float64", p.r.Float64(), p.ref.Float64())
		case 2:
			err = same("Intn", float64(p.r.Intn(int(arg)+1)), float64(p.ref.Intn(int(arg)+1)))
		case 3:
			mean := time.Duration(arg) * time.Microsecond
			err = same("Exp", float64(p.r.Exp(mean)), float64(p.ref.Exp(mean)))
		case 4:
			err = same("NormFloat64", p.r.NormFloat64(), p.ref.NormFloat64())
		case 5, 6, 7: // one draw; a median of zero or below draws nothing
			err = ln(LogNormal{Median: time.Duration(int(arg)-16) * time.Millisecond, Sigma: sigma})
		case 8: // a back-to-back streak: short, or from just short of its first fill to its seventh
			n := int(arg)
			if n >= 128 {
				n = minRun - 64 + 4*(n-128)
			}
			for k := 0; k < n && err == nil; k++ {
				err = ln(LogNormal{Median: 10 * time.Millisecond, Sigma: sigma})
			}
		case 9:
			q = rngPair{p.r.Split(), p.ref.Split()}
		case 10:
			c, cref := *p.r, *p.ref
			q = rngPair{&c, &cref}
		case 11:
			p, q = q, p
		default:
			err = p.plantZero(zeroAt[arg%8], uint64(arg/8))
		}
		if err != nil {
			return err
		}
	}
	for _, p := range []rngPair{p, q} {
		if p.r.state != p.ref.state {
			return fmt.Errorf("final state %#x, reference %#x", p.r.state, p.ref.state)
		}
	}
	return nil
}

// FuzzRNGMatchesReference holds RNG, whose LogNormal draws come from a
// batch computed ahead, to the unbuffered generator it replaced: every draw
// kind in a byte-chosen order, LogNormals at several sigmas and at medians
// of zero and below, back-to-back streaks, Split, copies sharing a batch
// and planted zero uniforms, comparing every value and the final states.
func FuzzRNGMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Streaks at each sigma, broken by every other draw kind, and a streak
	// that leaves four entries unserved followed by one at another sigma.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 8, 200, 0, 0, 8, 3, 5, 20, 21, 100, 0, 0, 8, 255, 21, 5, 1, 0,
		34, 90, 34, 255, 8, 9, 47, 5, 9, 1, 11, 0, 8, 200, 2, 7, 8, 250, 3, 9, 8, 240, 4, 0, 8, 255})
	// A zero uniform planted at each of zeroAt, drawn by a streak long
	// enough to pass it, then under a lone draw, Exp and NormFloat64.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 12, 3 + 8*5, 8, 255, 12, 4 + 8*2, 8, 255,
		12, 5 + 8*9, 8, 255, 12, 6 + 8*7, 8, 255, 12, 7 + 8*1, 8, 255, 12, 2 + 8*30, 8, 255,
		12, 1 + 8*4, 8, 40, 12, 0 + 8*3, 5, 30, 12, 0, 3, 9, 12, 0, 4, 0, 0, 0})
	// Alternation and three-then-one, which end every streak before a
	// fill, and a streak that ends one draw into its first fill.
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 5, 40, 1, 0, 5, 40, 1, 0, 5, 40, 5, 40, 5, 40, 1, 0,
		5, 40, 5, 40, 5, 40, 1, 0, 8, 144, 5, 40, 1, 0, 8, 144, 8, 1, 8, 7, 1, 0})
	// A copy and its original take turns on their shared batch: the copy
	// draws entries the original's fill computed, draws at the batch's
	// state with another sigma, and fills at its own state and sigma,
	// while the original stands at a state the batch has moved past.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 8, 255, 10, 0, 11, 0, 8, 2, 11, 0, 8, 3,
		10, 0, 11, 0, 18, 40, 11, 0, 8, 255, 11, 0, 21, 255, 11, 0, 8, 4, 9, 0, 11, 0, 8, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<9 {
			data = data[:1<<9]
		}
		if err := runRNG(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLogNormalBatchMatchesUnbuffered draws a streak that ends halfway
// into a fill, one Float64, and then a million service times back to back,
// a replay's pattern. Every draw and the final state must equal the
// unbuffered reference's, and the second streak must be computed ahead
// from its minRun-th draw on, batch entries at a time, as the first was.
func TestLogNormalBatchMatchesUnbuffered(t *testing.T) {
	n := 1000000
	if testing.Short() {
		n = 100000
	}
	d := LogNormal{Median: 7 * time.Millisecond, Sigma: 0.2}
	r, ref := NewRNG(11), newRefRNG(11)
	for i := 0; i < minRun+batch/2+n; i++ {
		if i == minRun+batch/2 {
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("Float64 after the first streak = %v, reference %v", got, want)
			}
		}
		if got, want := d.Sample(r), refSample(d, ref); got != want {
			t.Fatalf("draw %d = %v, reference %v", i, got, want)
		}
	}
	if r.state != ref.state {
		t.Fatalf("final state %#x, reference %#x", r.state, ref.state)
	}
	if b, want := r.ln, minRun+(n-1-minRun)/batch; b.run != want || b.n != batch {
		t.Fatalf("after %d draws %d found no entry and the last fill computed %d, want %d and %d",
			n, b.run, b.n, want, batch)
	}
}
