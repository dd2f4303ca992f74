package main

import (
	"math"
	"testing"
	"time"
)

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// [3.5, 13.5, 31.0]
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("quartiles = %v, Python gives %v", got, want)
		}
	}
	// >>> statistics.quantiles([3, 1, 2, 5, 4], n=4)
	// [1.5, 3.0, 4.5]
	if got := quartiles([]float64{3, 1, 2, 5, 4}); got != [3]float64{1.5, 3, 4.5} {
		t.Fatalf("quartiles = %v, Python gives [1.5 3 4.5]", got)
	}
}

// A disturbed block must not move the normalised numbers, and a box that is
// uniformly slower must read the same as a fast one.
func TestNormalisationCancelsSpeedAndIgnoresOutliers(t *testing.T) {
	build := func(slow float64, disturb int) *phase {
		p := &phase{slots: 1}
		for i := 0; i < 21; i++ {
			wall := time.Duration(slow * float64(40*time.Millisecond))
			if i == disturb {
				wall *= 3
			}
			p.blocks = append(p.blocks, block{
				ops: 1000, wall: wall, iterNs: RefIterNs * slow,
				p50: 30 * slow, p90: 80 * slow,
			})
		}
		return p
	}
	quiet := build(1, -1)
	if got := quiet.normThroughput(); math.Abs(got-25000) > 1e-6 {
		t.Fatalf("nominal-speed throughput = %v, want 25000", got)
	}
	for name, p := range map[string]*phase{"slow box": build(1.3, -1), "one disturbed block": build(1, 7)} {
		if got := p.normThroughput(); math.Abs(got-25000) > 1e-6 {
			t.Errorf("%s: norm throughput %v, want 25000", name, got)
		}
		if p50, p90 := p.normLatency(0.5), p.normLatency(0.9); math.Abs(p50-30) > 1e-9 || math.Abs(p90-80) > 1e-9 {
			t.Errorf("%s: norm latency p50 %v p90 %v, want 30 and 80", name, p50, p90)
		}
	}
	if raw := build(1.3, -1).rawThroughput(); math.Abs(raw-25000/1.3) > 1e-6 {
		t.Errorf("raw throughput %v should show the slow box", raw)
	}
}

// With several slots, throughput is one granule's ops over the sum of the
// slots' median durations, and latency is the granule's duration.
func TestSlotsAreSummedAcrossAGranule(t *testing.T) {
	p := &phase{slots: 3}
	for g := 0; g < 5; g++ {
		for s, msec := range []float64{30, 90, 140} {
			if g == 4 {
				msec *= 2 // one slow rotation
			}
			d := time.Duration(msec * float64(time.Millisecond))
			p.blocks = append(p.blocks, block{ops: 100 * (s + 1), wall: d, iterNs: RefIterNs, p50: msec * 1e3, p90: msec * 1e3})
		}
	}
	if got, want := p.normThroughput(), 600/0.260; math.Abs(got-want) > 1e-6 {
		t.Errorf("norm throughput %v, want %v", got, want)
	}
	// Five rotations, one of them twice as slow: p50 is a normal one, and so
	// is p90, which is never read at the slowest.
	if p50, p90 := p.normLatency(0.5), p.normLatency(0.9); math.Abs(p50-260e3) > 1e-6 || math.Abs(p90-260e3) > 1e-6 {
		t.Errorf("granule latency: p50 %v p90 %v us, want 260000 for both", p50, p90)
	}
}

func TestLinkAndSummarise(t *testing.T) {
	spans := []span{
		{Name: "faas.invoke", StartNs: 30, EndNs: 70, ID: 1},
		{Name: "client.request", StartNs: 0, EndNs: 100, ID: 1},
		{Name: "gateway.handler", StartNs: 10, EndNs: 90, ID: 1},
		{Name: "client.request", StartNs: 100, EndNs: 180, ID: 2},
		{Name: "burst", StartNs: 200, EndNs: 300, ID: 9},
		{Name: "submit", StartNs: 200, EndNs: 260, ID: 9},
		{Name: "faas.invoke", StartNs: 210, EndNs: 240, ID: 9},
	}
	link(spans)
	parentName := func(s span) string {
		if s.Parent < 0 {
			return ""
		}
		return spans[s.Parent].Name
	}
	want := map[string]string{"gateway.handler": "client.request", "submit": "burst", "burst": ""}
	for _, s := range spans {
		if w, ok := want[s.Name]; ok && parentName(s) != w {
			t.Errorf("%s (id %d) has parent %q, want %q", s.Name, s.ID, parentName(s), w)
		}
		if s.Name == "faas.invoke" {
			if w := map[uint64]string{1: "gateway.handler", 9: "burst"}[s.ID]; parentName(s) != w {
				t.Errorf("faas.invoke of id %d has parent %q, want %q", s.ID, parentName(s), w)
			}
		}
	}
	st := summarise(spans)
	if st.count["client.request"] != 2 || st.meanUS["client.request"] != 0.09 {
		t.Errorf("client.request: count %d mean %v us", st.count["client.request"], st.meanUS["client.request"])
	}
}
