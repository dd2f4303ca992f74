package trace

import (
	"math"
	"testing"
	"time"

	"dscs/internal/sim"
	"dscs/internal/workload"
)

func TestPaperTraceProfile(t *testing.T) {
	cfg := PaperTrace()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bursts at the start of each period.
	if r := cfg.RateAt(0); r != cfg.BurstRate {
		t.Errorf("rate at burst = %v", r)
	}
	if r := cfg.RateAt(2 * time.Minute); r != cfg.BaseRate {
		t.Errorf("rate between bursts = %v", r)
	}
	if cfg.BurstRate < 600 || cfg.BurstRate > 900 {
		t.Errorf("burst rate %v outside Figure 13a's swing", cfg.BurstRate)
	}
}

func TestGenerateRates(t *testing.T) {
	rng := sim.NewRNG(7)
	tr, err := Generate(PaperTrace(), workload.Suite(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	// Mean rate between base and burst.
	mean := tr.MeanRate()
	if mean < PaperTrace().BaseRate || mean > PaperTrace().BurstRate {
		t.Errorf("mean rate %.0f outside [base, burst]", mean)
	}
	// Arrivals are ordered and within the duration.
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].At < tr.Requests[i-1].At {
			t.Fatal("arrivals out of order")
		}
	}
	last := tr.Requests[len(tr.Requests)-1]
	if last.At >= tr.Duration {
		t.Fatal("arrival beyond trace duration")
	}
	// All eight benchmarks appear.
	seen := map[string]bool{}
	for _, r := range tr.Requests {
		seen[r.Benchmark] = true
	}
	if len(seen) != 8 {
		t.Errorf("only %d benchmarks sampled", len(seen))
	}
}

func TestBurstsVisibleInRateSeries(t *testing.T) {
	rng := sim.NewRNG(11)
	cfg := PaperTrace()
	tr, err := Generate(cfg, workload.Suite(), rng)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.RateSeries(15 * time.Second)
	if len(s.Points) < 10 {
		t.Fatalf("rate series too short: %d points", len(s.Points))
	}
	// The peak bucket approaches the burst rate; quiet buckets the base.
	peak := s.MaxValue()
	if peak < cfg.BaseRate*1.2 {
		t.Errorf("no visible burst: peak %.0f vs base %.0f", peak, cfg.BaseRate)
	}
	if peak > cfg.BurstRate*1.3 {
		t.Errorf("peak %.0f implausibly above the burst rate", peak)
	}
}

func TestPoissonStatistics(t *testing.T) {
	// With a flat profile the arrival count should match rate*duration.
	cfg := BurstyConfig{
		Duration: 10 * time.Minute, BaseRate: 300, BurstRate: 300.0001,
		BurstEvery: time.Minute, BurstLength: time.Second,
	}
	rng := sim.NewRNG(3)
	tr, err := Generate(cfg, workload.Suite(), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := 300.0 * 600
	got := float64(len(tr.Requests))
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("flat-rate arrivals = %.0f, want ~%.0f", got, want)
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := Generate(BurstyConfig{}, workload.Suite(), rng); err == nil {
		t.Error("invalid config must fail")
	}
	if _, err := Generate(PaperTrace(), nil, rng); err == nil {
		t.Error("empty suite must fail")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Generate(PaperTrace(), workload.Suite(), sim.NewRNG(5))
	b, _ := Generate(PaperTrace(), workload.Suite(), sim.NewRNG(5))
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same seed must give same trace")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("trace mismatch at same seed")
		}
	}
}

// TestGenerateReservesTheExpectedCount pins generate's reservation to the
// profile's expected arrival count rather than the thinning envelope's:
// for both generators, over several seeds, the slice never regrows (len
// fits in cap) and holds no more spare room than the Poisson margin on
// each side of the mean allows.
func TestGenerateReservesTheExpectedCount(t *testing.T) {
	diurnal := DiurnalConfig{
		Duration: 2 * time.Minute, MinRate: 50, MaxRate: 400, Period: time.Minute,
		BurstFactor: 3, BurstEvery: 20 * time.Second, BurstLength: 4 * time.Second,
	}
	for _, gen := range []struct {
		name string
		run  func(*sim.RNG) (*Trace, error)
	}{
		{"bursty", func(r *sim.RNG) (*Trace, error) { return Generate(PaperTrace(), workload.Suite(), r) }},
		{"diurnal", func(r *sim.RNG) (*Trace, error) { return GenerateDiurnal(diurnal, workload.Suite(), r) }},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			tr, err := gen.run(sim.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			n, c := len(tr.Requests), cap(tr.Requests)
			if margin := 8*math.Sqrt(float64(n)) + 2; c < n || float64(c-n) > margin {
				t.Errorf("%s seed %d: %d arrivals in a reservation of %d, want spare room within [0, %.0f]",
					gen.name, seed, n, c, margin)
			}
		}
	}
}
