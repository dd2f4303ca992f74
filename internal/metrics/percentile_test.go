package metrics

import (
	"encoding/binary"
	"maps"
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
	// Above selectCutoff, where the selection samples for its pivots: the
	// shapes that stress a sample — spread, constant, presorted either
	// way, and two values whose boundary sits at the rank read.
	const big = 2 * selectCutoff
	shapes := map[string]func(i int) int64{
		"random":    func(int) int64 { return int64(next() % 1e9) },
		"equal":     func(int) int64 { return 42 },
		"ascending": func(i int) int64 { return int64(i) },
		"reversed":  func(i int) int64 { return int64(big - i) },
		"two-value": func(int) int64 { return int64(next()%2) * 1e6 },
	}
	for _, name := range slices.Sorted(maps.Keys(shapes)) {
		vs := make([]int64, big)
		for i := range vs {
			vs[i] = shapes[name](i)
		}
		f.Add(seq(vs...), 0.5)
		f.Add(seq(vs...), 0.99)
	}
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

// TestSelectSortFallback spends the selection's partition budget early —
// none, one, two or three partitions before the window left is sorted —
// on both sides of selectCutoff and over the shapes that stress the
// pivots, and holds every rank's placement to the sorted reference:
// vs[k] is the sorted value, nothing before it larger, nothing after it
// smaller.
func TestSelectSortFallback(t *testing.T) {
	next := lcg(37)
	shapes := map[string]func(i, n int) time.Duration{
		"random":    func(int, int) time.Duration { return time.Duration(next() % 1e9) },
		"dups":      func(int, int) time.Duration { return time.Duration(next() % 3) },
		"ascending": func(i, _ int) time.Duration { return time.Duration(i) },
		"reversed":  func(i, n int) time.Duration { return time.Duration(n - i) },
		"organpipe": func(i, n int) time.Duration { return time.Duration(min(i, n-i)) },
	}
	for name, shape := range shapes {
		for _, n := range []int{2, 65, selectCutoff, selectCutoff + 1, 5000} {
			orig := make([]time.Duration, n)
			for i := range orig {
				orig[i] = shape(i, n)
			}
			ref := slices.Sorted(slices.Values(orig))
			for budget := 0; budget <= 3; budget++ {
				for _, k := range []int{0, n / 3, n / 2, n * 99 / 100, n - 1} {
					vs := slices.Clone(orig)
					selectBudget(vs, k, budget)
					if vs[k] != ref[k] {
						t.Fatalf("%s n=%d budget %d: rank %d holds %v, sorted %v", name, n, budget, k, vs[k], ref[k])
					}
					if m := slices.Max(vs[:k+1]); m != vs[k] {
						t.Fatalf("%s n=%d budget %d: %v before rank %d's %v", name, n, budget, m, k, vs[k])
					}
					if m := slices.Min(vs[k:]); m != vs[k] {
						t.Fatalf("%s n=%d budget %d: %v after rank %d's %v", name, n, budget, m, k, vs[k])
					}
				}
			}
		}
	}
}

// TestSelectEndBoundsNextRank holds selectRank's reported end to its
// contract: rank k+1 is the minimum of vs[k+1:end] and nothing from end on
// is smaller, so the interpolation's second read need not scan the whole
// tail.
func TestSelectEndBoundsNextRank(t *testing.T) {
	// Median-of-three narrows rank 1 of these six to the window [0,4),
	// then [0,2), then {1} alone: the final window ends at rank k+1, so
	// the end reported is the one before it, and the p-quantile between
	// ranks 1 and 2 must read rank 2 from there.
	orig := []time.Duration{90, 40, 20, 40, 10, 80}
	for i := range orig {
		orig[i] *= time.Millisecond
	}
	if end := selectRank(slices.Clone(orig), 1); end != 4 {
		t.Errorf("selectRank(%v, 1) end = %d, want 4", orig, end)
	}
	s := NewSample(len(orig))
	for _, v := range orig {
		s.Add(v)
	}
	const p = 0.3 // rank 1.5 of 6: frac > 0
	if got, want := s.Percentile(p), quantileSorted(slices.Sorted(slices.Values(orig)), p); got != want {
		t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
	}

	next := lcg(41)
	shapes := map[string]func(i, n int) time.Duration{
		"random":    func(int, int) time.Duration { return time.Duration(next() % 1e9) },
		"dups":      func(int, int) time.Duration { return time.Duration(next() % 3) },
		"ascending": func(i, _ int) time.Duration { return time.Duration(i) },
		"reversed":  func(i, n int) time.Duration { return time.Duration(n - i) },
	}
	for name, shape := range shapes {
		for _, n := range []int{2, 6, 65, selectCutoff + 1, 5000} {
			orig := make([]time.Duration, n)
			for i := range orig {
				orig[i] = shape(i, n)
			}
			ref := slices.Sorted(slices.Values(orig))
			for _, k := range []int{0, 1, n / 3, n / 2, n * 99 / 100, n - 2} {
				if k > n-2 {
					continue // no rank k+1 to bound
				}
				vs := slices.Clone(orig)
				end := selectRank(vs, k)
				if end <= k+1 || end > n {
					t.Fatalf("%s n=%d k=%d: end %d outside (k+1, n]", name, n, k, end)
				}
				if m := slices.Min(vs[k+1 : end]); m != ref[k+1] {
					t.Fatalf("%s n=%d k=%d: min of vs[k+1:%d] = %v, rank k+1 is %v", name, n, k, end, m, ref[k+1])
				}
				if end < n && slices.Min(vs[end:]) < ref[k+1] {
					t.Fatalf("%s n=%d k=%d: %v past end %d, below rank k+1's %v", name, n, k, slices.Min(vs[end:]), end, ref[k+1])
				}
			}
		}
	}
}
