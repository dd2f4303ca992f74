package scale

import (
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Max: 0},
		{Min: -1, Max: 4},
		{Min: 5, Max: 4},
		{Max: 4, ColdStart: -time.Second},
		{Max: 4, IdleLinger: -time.Second},
		{Mode: -1, Max: 4},
		{Mode: 3, Max: 4},
		{Mode: 9, Max: 4},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
	for _, m := range []Mode{ModeFixed, ModeReactive, ModePredictive} {
		if err := (Config{Mode: m, Min: 0, Max: 4}).Validate(); err != nil {
			t.Errorf("valid %v config rejected: %v", m, err)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeFixed: "fixed", ModeReactive: "reactive", ModePredictive: "predictive",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func newScaler(t *testing.T, cfg Config) *Autoscaler {
	t.Helper()
	a, err := New(cfg, "pool")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFixedAlwaysMax(t *testing.T) {
	a := newScaler(t, Config{Mode: ModeFixed, Min: 1, Max: 10})
	for _, busy := range []int{0, 3, 10} {
		if got := a.Desired(0, busy, 0, 0); got != 10 {
			t.Errorf("fixed desired(busy=%d) = %d, want Max", busy, got)
		}
	}
}

func TestReactiveTracksBacklog(t *testing.T) {
	a := newScaler(t, Config{Mode: ModeReactive, Min: 2, Max: 10})
	for _, tc := range []struct{ busy, queued, want int }{
		{0, 0, 2},   // Min floor
		{3, 2, 5},   // busy + queued
		{8, 40, 10}, // Max ceiling
	} {
		if got := a.Desired(0, tc.busy, tc.queued, 0); got != tc.want {
			t.Errorf("reactive desired(%d, %d) = %d, want %d", tc.busy, tc.queued, got, tc.want)
		}
	}
}

// feed warms one benchmark's digests: arrivals every gap, services at svc.
func feed(a *Autoscaler, bench string, n int, gap, svc time.Duration) {
	for i := 0; i <= n; i++ {
		a.ObserveArrival(bench, time.Duration(i)*gap)
		a.ObserveService(bench, svc)
	}
}

// TestPredictiveLittlesLawFloor pins the pre-warm arithmetic: uniform
// 10ms gaps and 50ms service give demand ceil(1.25 * 50/10) = 7, which
// lifts the desired capacity above the reactive baseline before any work
// queues.
func TestPredictiveLittlesLawFloor(t *testing.T) {
	a := newScaler(t, Config{Mode: ModePredictive, Min: 1, Max: 20})
	if got := a.PredictedDemand(); got != 0 {
		t.Fatalf("cold demand = %d, want 0 (below warmup)", got)
	}
	feed(a, "bench-a", 32, 10*time.Millisecond, 50*time.Millisecond)
	if got := a.PredictedDemand(); got != 7 {
		t.Fatalf("demand = %d, want ceil(1.25*50/10) = 7", got)
	}
	if got := a.Desired(time.Second, 1, 0, 0); got != 7 {
		t.Fatalf("predictive desired = %d, want the pre-warm floor 7", got)
	}
	// A second benchmark's demand adds before the ceiling: same rate,
	// 100ms service -> 6.25 + 12.5 rounds up once to 19.
	feed(a, "bench-b", 32, 10*time.Millisecond, 100*time.Millisecond)
	if got := a.PredictedDemand(); got != 19 {
		t.Fatalf("two-bench demand = %d, want ceil(6.25 + 12.5) = 19", got)
	}
	// The backlog still wins when it exceeds the floor.
	if got := a.Desired(time.Second, 15, 10, 0); got != 20 {
		t.Fatalf("desired under backlog = %d, want Max clamp", got)
	}
}

// TestPredictiveSurgeLatch: wait p95 at cold-start scale boosts to Max
// with Adopt-band hysteresis — armed past 1.5x of ColdStart/2, released
// only under 1.2x, so the decision cannot flap at the threshold.
func TestPredictiveSurgeLatch(t *testing.T) {
	cold := time.Second
	a := newScaler(t, Config{Mode: ModePredictive, Min: 1, Max: 50, ColdStart: cold})
	half := cold / 2
	if got := a.Desired(0, 2, 0, half); got != 2 {
		t.Fatalf("desired below the entry band = %d, want busy", got)
	}
	if got := a.Desired(0, 2, 0, time.Duration(1.6*float64(half))); got != 50 {
		t.Fatalf("desired past the entry band = %d, want Max surge", got)
	}
	// Inside the hysteresis gap (1.2x..1.5x) the latch holds.
	if got := a.Desired(0, 2, 0, time.Duration(1.3*float64(half))); got != 50 {
		t.Fatalf("desired inside the hysteresis gap = %d, want Max (latched)", got)
	}
	if got := a.Desired(0, 2, 0, time.Duration(1.1*float64(half))); got != 2 {
		t.Fatalf("desired after release = %d, want busy", got)
	}
	if got := a.SurgeFlips(); got != 2 {
		t.Fatalf("surge flips = %d, want 2 (one arm, one release)", got)
	}

	// With no cold-start penalty there is nothing to pre-empt: the surge
	// path stays off no matter the wait.
	b := newScaler(t, Config{Mode: ModePredictive, Min: 1, Max: 50})
	if got := b.Desired(0, 2, 0, time.Hour); got != 2 {
		t.Fatalf("zero-cold-start surge fired: desired = %d", got)
	}
}

// TestObserveArrivalAnchors: the first arrival only anchors the gap
// stream, and a backwards timestamp is dropped rather than recorded as a
// negative gap.
func TestObserveArrivalAnchors(t *testing.T) {
	a := newScaler(t, Config{Mode: ModePredictive, Min: 0, Max: 10, Warmup: 1})
	a.ObserveArrival("b", time.Second)
	a.ObserveService("b", 10*time.Millisecond)
	if got := a.PredictedDemand(); got != 0 {
		t.Fatalf("demand after a single arrival = %d, want 0 (no gap yet)", got)
	}
	a.ObserveArrival("b", 500*time.Millisecond) // clock went backwards: dropped
	if got := a.PredictedDemand(); got != 0 {
		t.Fatalf("demand after a backwards arrival = %d, want 0", got)
	}
	a.ObserveArrival("b", 600*time.Millisecond) // 100ms after the rewound anchor
	if got := a.PredictedDemand(); got == 0 {
		t.Fatal("demand must warm once a positive gap lands")
	}
}
