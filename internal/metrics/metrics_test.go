package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	s := NewSample(10)
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(0); got != time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(1); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	p50 := s.Percentile(0.5)
	if p50 < 50*time.Millisecond || p50 > 51*time.Millisecond {
		t.Errorf("p50 = %v", p50)
	}
	if s.Min() != time.Millisecond || s.Max() != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if mean := s.Mean(); mean != 50500*time.Microsecond {
		t.Errorf("mean = %v", mean)
	}
}

func TestPercentileEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Percentile(0.95) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample should return zeros")
	}
	if s.CDF(10) != nil {
		t.Error("empty CDF should be nil")
	}
}

// TestPercentileBoundaries pins the exact-boundary behavior the digest and
// the sample must share: a 1-element sample answers every p with its only
// value, and a p that lands exactly on an index (the lo==hi path) returns
// that element with no interpolation. The digest is run over the same
// inputs so the two implementations cannot drift apart.
func TestPercentileBoundaries(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name   string
		values []time.Duration
		p      float64
		want   time.Duration
	}{
		{"one-element-p0", []time.Duration{ms(7)}, 0, ms(7)},
		{"one-element-p50", []time.Duration{ms(7)}, 0.5, ms(7)},
		{"one-element-p100", []time.Duration{ms(7)}, 1, ms(7)},
		// Five elements: pos = p*4 hits integer indices at multiples of
		// 0.25 — the lo==hi path, exact element, no interpolation.
		{"five-p25-exact-index", []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50)}, 0.25, ms(20)},
		{"five-p50-exact-index", []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50)}, 0.5, ms(30)},
		{"five-p75-exact-index", []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50)}, 0.75, ms(40)},
		// Between indices it interpolates: pos = 0.1*4 = 0.4 -> 10 + 0.4*10.
		{"five-p10-interpolated", []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50)}, 0.1, ms(14)},
		// Out-of-range p clamps to the extremes.
		{"clamp-low", []time.Duration{ms(10), ms(20)}, -0.5, ms(10)},
		{"clamp-high", []time.Duration{ms(10), ms(20)}, 1.5, ms(20)},
	}
	for _, tc := range cases {
		s := NewSample(len(tc.values))
		d := NewDigest(len(tc.values))
		for _, v := range tc.values {
			s.Add(v)
			d.Record(v)
		}
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Sample.Percentile = %v, want %v", tc.name, got, tc.want)
		}
		if got := d.Quantile(tc.p); got != tc.want {
			t.Errorf("%s: Digest.Quantile = %v, want %v (disagrees with Sample)", tc.name, got, tc.want)
		}
	}
}

// TestSampleConcurrentUse locks in the Sample concurrency fix under -race:
// sortValues used to mutate the backing slice with no synchronization, so
// a reporting Percentile racing a worker's Add corrupted the sample.
func TestSampleConcurrentUse(t *testing.T) {
	s := NewSample(1024)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(time.Duration(base*1000+i) * time.Microsecond)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if s.Percentile(0.95) < 0 || s.Mean() < 0 || s.Min() < 0 || s.Max() < 0 {
					t.Error("negative statistic under concurrency")
					return
				}
				s.CDF(10)
				s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 4000 {
		t.Fatalf("len = %d, want 4000", s.Len())
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	s := NewSample(100)
	rng := uint64(12345)
	next := func() uint64 { rng = rng*6364136223846793005 + 1; return rng >> 33 }
	for i := 0; i < 500; i++ {
		s.Add(time.Duration(next()%1e6) * time.Microsecond)
	}
	f := func(a, b uint8) bool {
		p1, p2 := float64(a)/255, float64(b)/255
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return s.Percentile(p1) <= s.Percentile(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(100)
	for i := 1; i <= 1000; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	cdf := s.CDF(10)
	if len(cdf) != 10 {
		t.Fatalf("CDF has %d points, want 10", len(cdf))
	}
	if cdf[len(cdf)-1].Frac != 1.0 {
		t.Errorf("last CDF frac = %v, want 1", cdf[len(cdf)-1].Frac)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Frac <= cdf[i-1].Frac {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := Geomean([]float64{3, 3, 3}); math.Abs(g-3) > 1e-9 {
		t.Errorf("geomean(3,3,3) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := Geomean([]float64{-1, 0, 4}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean skipping non-positive = %v", g)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("mean(nil) = %v", m)
	}
}

func TestSeriesMaxValue(t *testing.T) {
	s := &Series{Name: "load"}
	for i := 0; i < 100; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	if s.MaxValue() != 99 {
		t.Errorf("max = %v", s.MaxValue())
	}
}

func TestPolyFitExact(t *testing.T) {
	// y = 2 - 3x + 0.5x^2 fitted exactly from samples.
	want := []float64{2, -3, 0.5}
	var xs, ys []float64
	for x := -5.0; x <= 5; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, PolyEval(want, x))
	}
	got, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("coeff %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPolyFitCubic(t *testing.T) {
	// The paper's Figure 7 fit is cubic; verify recovery with noise-free data.
	want := []float64{-2.1969, 0.0329, -9e-05, 9e-08}
	var xs, ys []float64
	for x := 50.0; x <= 2500; x += 50 {
		xs = append(xs, x)
		ys = append(ys, PolyEval(want, x))
	}
	got, err := PolyFit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		rel := math.Abs(got[i] - want[i])
		if want[i] != 0 {
			rel /= math.Abs(want[i])
		}
		if rel > 1e-3 {
			t.Errorf("coeff %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Error("underdetermined fit should error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree should error")
	}
	// Duplicate x values make the quadratic system singular.
	if _, err := PolyFit([]float64{1, 1, 1}, []float64{1, 2, 3}, 2); err == nil {
		t.Error("singular system should error")
	}
}

func TestPolyString(t *testing.T) {
	s := PolyString("P", []float64{-2.2, 0.033, 0, 9e-08})
	if !strings.Contains(s, "P(c) = ") || !strings.Contains(s, "c^3") {
		t.Errorf("unexpected poly string %q", s)
	}
	if PolyString("A", []float64{0}) != "A(c) = 0" {
		t.Errorf("zero poly: %q", PolyString("A", []float64{0}))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure 9", "Benchmark", "Speedup")
	tb.AddRow("ppe-detection", 7.9)
	tb.AddRow("credit-risk", 1.8)
	out := tb.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "ppe-detection") ||
		!strings.Contains(out, "7.90") {
		t.Errorf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}
