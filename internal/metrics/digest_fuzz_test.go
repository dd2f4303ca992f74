package metrics

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// slidingRef is the exact reference the digest's window is pinned against:
// the last window observations (clamped as Record clamps), re-sorted from
// scratch on every read through Sample.Percentile — no maintained order,
// no staging, nothing shared with the digest but the interpolation rule.
type slidingRef struct {
	window int
	recent []time.Duration
}

func (r *slidingRef) add(v time.Duration) {
	if v < 0 {
		v = 0
	}
	r.recent = append(r.recent, v)
	if len(r.recent) > r.window {
		r.recent = r.recent[1:]
	}
}

func (r *slidingRef) quantile(q float64) time.Duration {
	s := NewSample(len(r.recent))
	for _, v := range r.recent {
		s.Add(v)
	}
	return s.Percentile(q)
}

// FuzzDigestRecord feeds adversarial duration sequences into the digest
// and cross-checks it against the exact sliding reference on every prefix
// — before and after the window wraps, so the eviction path is pinned as
// tightly as the fill — at windows 1, 2, 3 and 32: quantiles must be
// bit-identical to the reference (hence inside [min, max] of the window),
// monotone in p and never negative. The seed corpus covers the adversarial
// shapes named in the scheduler's threat model: all-zero durations, the
// maximum duration, a monotone-decreasing ramp, negatives, and
// duplicate-heavy runs long enough to evict at every window. The cadence
// input reads only every cadence-th observation (and after the last), so
// unread stretches of a window or more leave the view stale and the next
// read rebuilds it — that read must be as exact as one after every write.
func FuzzDigestRecord(f *testing.F) {
	seq := func(vs ...int64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		return b
	}
	f.Add(seq(0, 0, 0, 0, 0, 0, 0, 0), uint8(1))
	f.Add(seq(math.MaxInt64, math.MaxInt64, math.MaxInt64), uint8(1))
	f.Add(seq(1<<50, 1<<40, 1<<30, 1<<20, 1<<10, 1, 0), uint8(1))
	f.Add(seq(-1, math.MinInt64, 5, -5), uint8(1))
	f.Add(seq(5, 5, 5, 1, 5, 5, 9, 5, 5, 1, 1, 9, 9, 5, 1, 5), uint8(1))
	f.Add(seq(math.MaxInt64, -1, math.MaxInt64, 0, math.MinInt64, math.MaxInt64-1, 1, math.MaxInt64, -7, math.MaxInt64), uint8(1))
	dups, next := make([]int64, 96), lcg(3)
	for i := range dups {
		dups[i] = int64(next() % 7) // seven distinct values across three wraps of window 32
	}
	f.Add(seq(dups...), uint8(1))
	f.Add(seq(dups...), uint8(7))
	f.Add(seq(dups...), uint8(100))

	quantiles := []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1}
	f.Fuzz(func(t *testing.T, data []byte, cadence uint8) {
		n := len(data) / 8
		if n > 256 {
			n = 256
		}
		every := int(cadence%128) + 1
		for _, window := range []int{1, 2, 3, 32} {
			d := NewDigest(window)
			ref := slidingRef{window: window}
			into := make([]time.Duration, len(quantiles))
			for i := 0; i < n; i++ {
				v := time.Duration(binary.LittleEndian.Uint64(data[8*i:]))
				d.Record(v)
				ref.add(v)
				if (i+1)%every != 0 && i != n-1 {
					continue
				}
				d.QuantilesInto(quantiles, into)
				prev := time.Duration(-1)
				for qi, q := range quantiles {
					got := d.Quantile(q)
					if got < 0 {
						t.Fatalf("window %d obs %d: Quantile(%v) = %v negative", window, i, q, got)
					}
					if got < prev {
						t.Fatalf("window %d obs %d: quantiles not monotone at q=%v", window, i, q)
					}
					prev = got
					if want := ref.quantile(q); got != want || into[qi] != want {
						t.Fatalf("window %d obs %d q=%v: Quantile %v, QuantilesInto %v, exact %v",
							window, i, q, got, into[qi], want)
					}
				}
				// Neither pricing path may ever emit a non-positive estimate
				// for a positive static prior — Adopt feeds the former's slack
				// arithmetic, Blend feeds the policies' service ordering (and
				// its weighted sum must saturate, not wrap, near MaxInt64).
				if est, _ := d.Adopt(time.Millisecond, 0.95, 4); est <= 0 {
					t.Fatalf("window %d obs %d: Adopt returned %v for a positive prior", window, i, est)
				}
				if bl := d.Blend(time.Millisecond, 4); bl <= 0 {
					t.Fatalf("window %d obs %d: Blend returned %v for a positive prior", window, i, bl)
				}
			}
		}
	})
}
