package metrics

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"
)

// percentileProbes are the p values every select-vs-sort check reads:
// both ends, NaN and out-of-range (which clamp), exact ranks and
// interpolated interior points.
var percentileProbes = []float64{0, 1, math.NaN(), -0.5, 1.5, 0.5, 0.25, 0.9, 0.95, 0.99, 0.999, 1.0 / 3, 1e-9, 1 - 1e-9}

// checkSelectAgainstSort reads every probe from a Sample over vs —
// selecting while it is unsorted — and holds each answer to the sorted
// reference, then holds Min, Max and CDF, which sort, to the same
// reference on the reordered sample.
func checkSelectAgainstSort(t *testing.T, name string, vs []time.Duration) {
	t.Helper()
	ref := slices.Clone(vs)
	slices.Sort(ref)
	s := NewSample(len(vs))
	for _, v := range vs {
		s.Add(v)
	}
	for _, p := range percentileProbes {
		if got, want := s.Percentile(p), quantileSorted(ref, p); got != want {
			t.Fatalf("%s (n=%d): Percentile(%v) = %v, sorted reference %v", name, len(vs), p, got, want)
		}
	}
	if len(vs) == 0 {
		return
	}
	if got := s.Min(); got != ref[0] {
		t.Fatalf("%s (n=%d): Min after Percentile = %v, want %v", name, len(vs), got, ref[0])
	}
	if got := s.Max(); got != ref[len(ref)-1] {
		t.Fatalf("%s (n=%d): Max after Percentile = %v, want %v", name, len(vs), got, ref[len(ref)-1])
	}
	fresh := NewSample(len(ref))
	for _, v := range ref {
		fresh.Add(v)
	}
	if got, want := s.CDF(20), fresh.CDF(20); !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): CDF after Percentile = %v, want %v", name, len(vs), got, want)
	}
	// Sorted now: the sorted path must agree with what selection said.
	for _, p := range percentileProbes {
		if got, want := s.Percentile(p), quantileSorted(ref, p); got != want {
			t.Fatalf("%s (n=%d): sorted Percentile(%v) = %v, want %v", name, len(vs), p, got, want)
		}
	}
}

// TestPercentileSelectMatchesSort is the selection's differential against
// the sort it replaced: sizes from empty to large enough to recurse
// many times, over shapes that stress a quickselect — all equal,
// few distinct values, already sorted, reversed, organ-pipe, and
// adversarial extremes.
func TestPercentileSelectMatchesSort(t *testing.T) {
	next := lcg(17)
	shapes := map[string]func(i, n int) time.Duration{
		"random":    func(int, int) time.Duration { return time.Duration(next() % 1e9) },
		"dups":      func(int, int) time.Duration { return time.Duration(next()%4) * time.Millisecond },
		"equal":     func(int, int) time.Duration { return 7 },
		"ascending": func(i, _ int) time.Duration { return time.Duration(i) },
		"reversed":  func(i, n int) time.Duration { return time.Duration(n - i) },
		"organpipe": func(i, n int) time.Duration { return time.Duration(min(i, n-i)) },
		"extremes": func(int, int) time.Duration {
			return []time.Duration{math.MaxInt64, math.MinInt64, 0, -1, 1}[next()%5]
		},
	}
	for name, shape := range shapes {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 63, 64, 65, 257, 1000, 4099} {
			vs := make([]time.Duration, n)
			for i := range vs {
				vs[i] = shape(i, n)
			}
			checkSelectAgainstSort(t, name, vs)
		}
	}
}

// TestPercentileSelectAfterAdd: an Add after a read unsorts the sample
// again, and the next Percentile must select over every observation,
// including the ones a previous selection reordered.
func TestPercentileSelectAfterAdd(t *testing.T) {
	next := lcg(23)
	s := NewSample(0)
	var ref []time.Duration
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			v := time.Duration(next() % 1000)
			s.Add(v)
			ref = append(ref, v)
		}
		sorted := slices.Sorted(slices.Values(ref))
		for _, p := range percentileProbes {
			if got, want := s.Percentile(p), quantileSorted(sorted, p); got != want {
				t.Fatalf("round %d: Percentile(%v) = %v, want %v", round, p, got, want)
			}
		}
	}
}

// FuzzSamplePercentile holds the selection to a sorted reference on
// arbitrary observations and p: every 8 bytes of data is one duration (so
// negatives, zero and the extremes all occur), and the answer must equal
// the sorted interpolation bit for bit, with Min and Max still exact
// afterwards.
func FuzzSamplePercentile(f *testing.F) {
	seq := func(vs ...int64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		return b
	}
	f.Add(seq(5, 1, 4, 1, 5, 9, 2, 6), 0.5)
	f.Add(seq(math.MaxInt64, math.MinInt64, 0, -1, 1), 0.99)
	many := make([]int64, 300)
	next := lcg(29)
	for i := range many {
		many[i] = int64(next() % 11)
	}
	f.Add(seq(many...), 0.95)
	f.Add(seq(many...), math.NaN())
	f.Add(seq(many...), 1.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		vs := make([]time.Duration, len(data)/8)
		for i := range vs {
			vs[i] = time.Duration(binary.LittleEndian.Uint64(data[8*i:]))
		}
		ref := slices.Clone(vs)
		slices.Sort(ref)
		s := NewSample(len(vs))
		for _, v := range vs {
			s.Add(v)
		}
		if got, want := s.Percentile(p), quantileSorted(ref, p); got != want {
			t.Fatalf("n=%d Percentile(%v) = %v, sorted reference %v", len(vs), p, got, want)
		}
		if len(vs) > 0 && (s.Min() != ref[0] || s.Max() != ref[len(ref)-1]) {
			t.Fatalf("n=%d: Min/Max after Percentile = %v/%v, want %v/%v", len(vs), s.Min(), s.Max(), ref[0], ref[len(ref)-1])
		}
	})
}
