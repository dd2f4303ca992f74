// stats.go provides the statistics used by the evaluation: percentile
// summaries, cumulative distribution functions, time series, and
// histograms.

package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// Sample accumulates latency observations. Safe for concurrent use: the
// serving engine's worker goroutines Add while reporting reads percentiles
// (sortValues mutates the backing slice, so unsynchronized mixed calls
// were a data race).
type Sample struct {
	mu     sync.Mutex
	values []time.Duration
	sorted bool
}

// NewSample returns an empty sample with room for n observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]time.Duration, 0, n)}
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
func (s *Sample) Percentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sortValues()
	return quantileSorted(s.values, p)
}

// quantileSorted is the one interpolation rule Sample and Digest share:
// the p-quantile of ascending vs by linear interpolation between the two
// nearest ranks. Out-of-range or NaN p clamps into [0, 1]; an empty slice
// reports 0.
func quantileSorted(vs []time.Duration, p float64) time.Duration {
	if len(vs) == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		return vs[0]
	}
	if p >= 1 {
		return vs[len(vs)-1]
	}
	pos := p * float64(len(vs)-1)
	lo := int(pos)
	hi := lo + 1
	frac := pos - float64(lo)
	if hi >= len(vs) || frac == 0 {
		return vs[lo]
	}
	return vs[lo] + time.Duration(frac*float64(vs[hi]-vs[lo]))
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

// Min returns the smallest observation.
func (s *Sample) Min() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 {
		return 0
	}
	s.sortValues()
	return s.values[0]
}

// Max returns the largest observation.
func (s *Sample) Max() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 {
		return 0
	}
	s.sortValues()
	return s.values[len(s.values)-1]
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

// MeanValue returns the average value of the series (0 when empty).
func (s *Series) MeanValue() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// Bucketed down-samples the series into fixed-width time buckets by
// averaging, which is how the at-scale figures are rendered.
func (s *Series) Bucketed(width time.Duration) *Series {
	if width <= 0 || len(s.Points) == 0 {
		return s
	}
	out := &Series{Name: s.Name}
	var bucketStart time.Duration
	var sum float64
	var n int
	flush := func() {
		if n > 0 {
			out.Add(bucketStart, sum/float64(n))
		}
		sum, n = 0, 0
	}
	for _, p := range s.Points {
		for p.At >= bucketStart+width {
			flush()
			bucketStart += width
		}
		sum += p.Value
		n++
	}
	flush()
	return out
}

// Histogram counts observations in fixed-width buckets.
type Histogram struct {
	Width   time.Duration
	Counts  map[int]int
	Total   int
	Overmax int
	MaxBkt  int
}

// NewHistogram returns a histogram with the given bucket width and a cap of
// maxBuckets; observations beyond the cap land in an overflow count.
func NewHistogram(width time.Duration, maxBuckets int) *Histogram {
	return &Histogram{Width: width, Counts: make(map[int]int), MaxBkt: maxBuckets}
}

// Observe records one value.
func (h *Histogram) Observe(d time.Duration) {
	h.Total++
	if h.Width <= 0 {
		return
	}
	b := int(d / h.Width)
	if h.MaxBkt > 0 && b >= h.MaxBkt {
		h.Overmax++
		return
	}
	h.Counts[b]++
}

// FracBelow reports the fraction of observations below d.
func (h *Histogram) FracBelow(d time.Duration) float64 {
	if h.Total == 0 || h.Width <= 0 {
		return 0
	}
	limit := int(d / h.Width)
	n := 0
	for b, c := range h.Counts {
		if b < limit {
			n += c
		}
	}
	return float64(n) / float64(h.Total)
}

// FormatDuration renders a duration in ms with three decimals, the unit used
// in the paper's latency figures.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}
