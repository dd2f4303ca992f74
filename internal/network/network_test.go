package network

import (
	"math"
	"testing"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/sim"
	"dscs/internal/units"
)

func TestIntraDCValidates(t *testing.T) {
	if err := IntraDC().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Egress().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := IntraDC()
	bad.PerFlowBW = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth must fail")
	}
	bad2 := IntraDC()
	bad2.FirstByte.Median = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero first-byte must fail")
	}
}

func TestMedianComposition(t *testing.T) {
	f := IntraDC()
	// Small read: ~RTT + first-byte.
	small := f.At(0.5).Latency(4 * units.KB)
	if small < 10*time.Millisecond || small > 30*time.Millisecond {
		t.Errorf("small read median = %v, want 10-30ms", small)
	}
	// 18.6 MB (PPE) read: transfer-dominated, ~100-200ms.
	big := f.At(0.5).Latency(units.Bytes(18.6 * 1e6))
	if big < 70*time.Millisecond || big > 250*time.Millisecond {
		t.Errorf("18.6MB read median = %v, want 70-250ms", big)
	}
	if big <= small {
		t.Error("larger payloads must be slower")
	}
}

func TestTailRatioMatchesPaper(t *testing.T) {
	// The paper: p99 about 110% above the median (factor ~2.1) for reads.
	f := IntraDC()
	for _, payload := range []units.Bytes{4 * units.KB, 3 * units.MB} {
		p50 := f.At(0.5).Latency(payload)
		p99 := f.At(0.99).Latency(payload)
		ratio := float64(p99) / float64(p50)
		if ratio < 1.6 || ratio > 2.4 {
			t.Errorf("p99/p50 at %v = %.2f, want ~2", payload, ratio)
		}
	}
}

func TestSampledMatchesAnalytic(t *testing.T) {
	f := IntraDC()
	rng := sim.NewRNG(3)
	sample := metrics.NewSample(20000)
	for i := 0; i < 20000; i++ {
		sample.Add(f.RequestLatency(units.MB, rng))
	}
	p50 := sample.Percentile(0.5)
	want := f.At(0.5).Latency(units.MB)
	diff := float64(p50-want) / float64(want)
	if diff < -0.05 || diff > 0.05 {
		t.Errorf("sampled median %v vs analytic %v", p50, want)
	}
	p99 := sample.Percentile(0.99)
	want99 := f.At(0.99).Latency(units.MB)
	diff99 := float64(p99-want99) / float64(want99)
	if diff99 < -0.12 || diff99 > 0.12 {
		t.Errorf("sampled p99 %v vs analytic %v", p99, want99)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := IntraDC()
	var prev time.Duration
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		lat := f.At(q).Latency(2 * units.MB)
		if lat <= prev {
			t.Fatalf("quantile latency not monotone at %v", q)
		}
		prev = lat
	}
}

func TestScaled(t *testing.T) {
	f := IntraDC()
	doubled := f.Scaled(2)
	if doubled.FirstByte.Median != 2*f.FirstByte.Median {
		t.Error("Scaled must scale the first-byte median")
	}
	if doubled.PerFlowBW != f.PerFlowBW {
		t.Error("Scaled must not touch bandwidth")
	}
}

func TestEgressCheaperThanStorage(t *testing.T) {
	if Egress().At(0.5).Latency(8*units.KB) >= IntraDC().At(0.5).Latency(8*units.MB) {
		t.Error("small egress should beat a large storage read")
	}
}

// TestPricedMatchesClosedForm holds a fabric priced once to the closed form
// evaluated per request, bit for bit, over payloads and percentiles, and
// checks that Matches keys on both the fabric and the percentile.
func TestPricedMatchesClosedForm(t *testing.T) {
	closed := func(f Fabric, payload units.Bytes, p float64) time.Duration {
		z := sim.NormQuantile(p)
		fb := time.Duration(float64(f.FirstByte.Median) * math.Exp(f.FirstByte.Sigma*z))
		xfer := time.Duration(float64(f.payloadTime(payload)) * math.Exp(TransferSigma*z))
		return f.RTT + fb + xfer
	}
	for _, f := range []Fabric{IntraDC(), Egress(), IntraDC().Scaled(1.7)} {
		for _, p := range []float64{0.01, 0.5, 0.75, 0.99, 0.999999} {
			pr := f.At(p)
			if !pr.Matches(f, p) || pr.Matches(f, p+1e-9) || pr.Matches(f.Scaled(2), p) {
				t.Fatalf("%+v at %v: Matches keys wrong", f, p)
			}
			for _, payload := range []units.Bytes{0, 1, 4 * units.KB, 3 * units.MB, units.Bytes(18.6 * 1e6)} {
				if got, want := pr.Latency(payload), closed(f, payload, p); got != want {
					t.Errorf("%+v at %v, %v bytes: %v, closed form %v", f, p, payload, got, want)
				}
			}
		}
	}
	if f := IntraDC(); f.atZ(0).Matches(f, 0.5) {
		t.Error("a sampled draw must match no percentile, even the one with its z")
	}
}
