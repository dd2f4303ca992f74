// stats.go provides the statistics used by the evaluation: percentile
// summaries, cumulative distribution functions, time series, and
// histograms.

package metrics

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// Sample accumulates latency observations — the simulations' per-run
// latency and makespan samples and the experiments' summaries. Safe for
// concurrent use: a Sample is handed out in run statistics, and its reads
// reorder the backing slice (Percentile selects in place, Min, Max and CDF
// sort it), so a read racing an Add or another read without the lock
// would be a data race.
type Sample struct {
	mu     sync.Mutex
	values []time.Duration
	sorted bool
}

// NewSample returns an empty sample with room for n observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]time.Duration, 0, n)}
}

// SampleOf returns a sample of values, in their order, without copying:
// the sample adopts the slice, and the caller must not touch it after the
// call. A producer with one owner records into a plain slice this way and
// pays no lock per observation.
func SampleOf(values []time.Duration) *Sample {
	return &Sample{values: values}
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) {
	s.mu.Lock()
	s.values = append(s.values, d)
	s.sorted = false
	s.mu.Unlock()
}

// Len reports the number of observations.
func (s *Sample) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.values)
}

// sortValues orders the observations; callers hold s.mu.
func (s *Sample) sortValues() {
	if !s.sorted {
		slices.Sort(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-quantile (p in [0,1]) by linear interpolation.
// A sample that is not sorted yet is not sorted for it: an in-place
// selection finds the one or two ranks the interpolation reads, which
// reorders the observations (Min, Max and CDF still sort them).
func (s *Sample) Percentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted {
		return quantileSorted(s.values, p)
	}
	return quantileSelect(s.values, p)
}

// quantileRank places the p-quantile of n ascending values: rank lo, and
// the fraction of the way to rank lo+1 the interpolation goes (0 when
// rank lo alone is the answer). Out-of-range or NaN p clamps into [0, 1].
// n must be positive.
func quantileRank(n int, p float64) (lo int, frac float64) {
	if !(p > 0) { // also catches NaN
		return 0, 0
	}
	if p >= 1 {
		return n - 1, 0
	}
	pos := p * float64(n-1)
	lo = int(pos)
	if lo+1 >= n {
		return lo, 0
	}
	return lo, pos - float64(lo)
}

// quantileSorted is the one interpolation rule Sample and Digest share:
// the p-quantile of ascending vs by linear interpolation between the two
// nearest ranks (see quantileRank). An empty slice reports 0.
func quantileSorted(vs []time.Duration, p float64) time.Duration {
	if len(vs) == 0 {
		return 0
	}
	lo, frac := quantileRank(len(vs), p)
	if frac == 0 {
		return vs[lo]
	}
	return vs[lo] + time.Duration(frac*float64(vs[lo+1]-vs[lo]))
}

// quantileSelect is quantileSorted over unordered vs, without sorting:
// selectRank brings rank lo into place with everything after it no
// smaller, so rank lo+1 is the minimum of that tail up to the end
// selectRank reports. It reorders vs.
func quantileSelect(vs []time.Duration, p float64) time.Duration {
	if len(vs) == 0 {
		return 0
	}
	lo, frac := quantileRank(len(vs), p)
	end := selectRank(vs, lo)
	if frac == 0 {
		return vs[lo]
	}
	return vs[lo] + time.Duration(frac*float64(slices.Min(vs[lo+1:end])-vs[lo]))
}

// selectCutoff is the window size above which selectRank samples for its
// pivots (Floyd–Rivest); smaller windows partition around a median of
// three.
const selectCutoff = 600

// selectRank reorders vs so that vs[k] holds the value a sort would put
// there, with nothing larger before it and nothing smaller after it. A
// window above selectCutoff is cut down by Floyd–Rivest: two pivots
// selected from an evenly spread sample bracket rank k, and one partition
// pass leaves only the values between them (a few percent of the window).
// Smaller windows run quickselect with a median-of-three pivot. Every
// partition is three-way, so runs of equal values (the common case for
// simulated latencies) finish in one pass. After 2·log2(n) partitions
// whatever window is left is sorted instead: a few values on ordinary
// input, and on input that defeats the pivot choice, a bound on the worst
// case at a sort's. It returns the end of the last window that reached
// past rank k: a window holds exactly the ranks it spans, so rank k+1 is
// in vs[k+1:end] and nothing from end on is smaller.
func selectRank(vs []time.Duration, k int) (end int) {
	return selectBudget(vs, k, 2*bits.Len(uint(len(vs))))
}

// selectBudget is selectRank with the number of partitions it may make
// before it sorts the window left.
func selectBudget(vs []time.Duration, k, budget int) (end int) {
	lo, hi := 0, len(vs) // the window holding rank k
	end = hi
	for ; hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(vs[lo:hi])
			return end
		}
		w, r := vs[lo:hi], k-lo
		var l, h int
		if len(w) > selectCutoff {
			l, h = bracketRank(w, r)
		} else {
			a, b, c := w[0], w[len(w)/2], w[len(w)-1]
			pivot := max(min(a, b), min(max(a, b), c))
			l, h = narrow(w, r, pivot, pivot)
		}
		if l == h {
			return end // rank k is in place
		}
		lo, hi = lo+l, lo+h
		if hi > k+1 {
			end = hi
		}
	}
	return end
}

// bracketRank is one Floyd–Rivest step over w for rank r: it moves a
// sample of about n^(2/3)/2 values, spread evenly over w, to w's front,
// selects from it the two values whose sample ranks sit a few standard
// deviations either side of r's, and partitions w around them. It returns
// the part of w still holding rank r, or an empty range once rank r is in
// place.
func bracketRank(w []time.Duration, r int) (l, h int) {
	n := len(w)
	ln := math.Log(float64(n))
	s := int(0.5 * math.Exp(2*ln/3))
	gap := int(math.Sqrt(ln*float64(s)) / 2)
	for j := 0; j < s; j++ {
		i := j * n / s
		w[j], w[i] = w[i], w[j]
	}
	sample := w[:s]
	ks := r * s / n
	kl, kh := max(ks-gap, 0), min(ks+gap, s-1)
	selectRank(sample, kh)
	selectRank(sample[:kh+1], kl)
	return narrow(w, r, sample[kl], sample[kh])
}

// narrow partitions w around pivots a <= b and returns the part of w that
// still holds rank r: the values below a or above b, or — when rank r
// falls among the values in [a, b] — those strictly between the pivots.
// The range is empty when rank r lands on a pivot's value, which the
// partition has then put in place.
func narrow(w []time.Duration, r int, a, b time.Duration) (l, h int) {
	lt, gt := partition3(w, a, b)
	switch {
	case r < lt:
		return 0, lt
	case r >= gt:
		return gt, len(w)
	case a == b:
		return 0, 0
	}
	// Split the middle into its values equal to a, those strictly
	// between, and those equal to b (a < b, so neither bound wraps).
	el, eh := partition3(w[lt:gt], a+1, b-1)
	if m := r - lt; m < el || m >= eh {
		return 0, 0
	}
	return lt + el, lt + eh
}

// partition3 reorders w into the values below a, then those in [a, b],
// then those above b (Dutch national flag), and returns where the middle
// starts and ends.
func partition3(w []time.Duration, a, b time.Duration) (lt, gt int) {
	lt, i, gt := 0, 0, len(w)
	for i < gt {
		switch v := w[i]; {
		case v < a:
			w[lt], w[i] = v, w[lt]
			lt++
			i++
		case v > b:
			gt--
			w[gt], w[i] = v, w[gt]
		default:
			i++
		}
	}
	return lt, gt
}

// Mean returns the arithmetic mean of the observations.
func (s *Sample) Mean() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(s.values)))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value time.Duration
	Frac  float64
}

// CDF returns the empirical CDF down-sampled to at most points entries.
func (s *Sample) CDF(points int) []CDFPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 || points <= 0 {
		return nil
	}
	s.sortValues()
	if points > len(s.values) {
		points = len(s.values)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * len(s.values) / points
		if idx > len(s.values) {
			idx = len(s.values)
		}
		out = append(out, CDFPoint{
			Value: s.values[idx-1],
			Frac:  float64(idx) / float64(len(s.values)),
		})
	}
	return out
}

// Geomean returns the geometric mean of a slice of positive ratios.
// Non-positive entries are skipped.
func Geomean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of a float slice (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TimePoint is one observation of a time series in virtual time.
type TimePoint struct {
	At    time.Duration
	Value float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []TimePoint
}

// Add appends an observation.
func (s *Series) Add(at time.Duration, v float64) {
	s.Points = append(s.Points, TimePoint{At: at, Value: v})
}

// MaxValue returns the largest value in the series (0 when empty).
func (s *Series) MaxValue() float64 {
	var m float64
	for _, p := range s.Points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}
