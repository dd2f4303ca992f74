package scale

import (
	"strings"
	"sync"
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
		{Max: 4, Warmup: -1},
		{Max: 4, Window: -1},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
	// A negative count is named, not silently read as the default.
	for field, cfg := range map[string]Config{
		"Warmup": {Max: 4, Warmup: -3},
		"Window": {Max: 4, Window: -3},
	} {
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: error %v must name the field", field, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted a negative %s", field)
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
	a, err := New(cfg)
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

var modes = []Mode{ModeFixed, ModeReactive, ModePredictive}

// TestUnreadObservationsKeepNoState: only the predictive floor reads
// arrivals and service times, so a fixed or reactive autoscaler keeps
// nothing per benchmark however much traffic it sees.
func TestUnreadObservationsKeepNoState(t *testing.T) {
	for _, m := range modes {
		a := newScaler(t, Config{Mode: m, Min: 1, Max: 8})
		for i := 0; i < 256; i++ {
			bench := string(rune('a' + i%7))
			a.ObserveArrival(bench, time.Duration(i)*time.Millisecond)
			a.ObserveService(bench, 5*time.Millisecond)
		}
		want := 0
		if m == ModePredictive {
			want = 7
		}
		if len(a.benches) != want || len(a.order) != want {
			t.Errorf("%v holds %d records in a %d-long order after a flood, want %d of each",
				m, len(a.benches), len(a.order), want)
		}
	}
}

// TestObserveAllocatesNothingWarm: once a benchmark's record and digests
// exist, an observation allocates nothing, in every mode.
func TestObserveAllocatesNothingWarm(t *testing.T) {
	for _, m := range modes {
		a := newScaler(t, Config{Mode: m, Min: 1, Max: 8})
		feed(a, "bench", 4, time.Millisecond, time.Millisecond)
		now := time.Second
		if n := testing.AllocsPerRun(1000, func() {
			now += time.Millisecond
			a.ObserveArrival("bench", now)
		}); n != 0 {
			t.Errorf("%v ObserveArrival allocates %v per call", m, n)
		}
		if n := testing.AllocsPerRun(1000, func() { a.ObserveService("bench", time.Millisecond) }); n != 0 {
			t.Errorf("%v ObserveService allocates %v per call", m, n)
		}
	}
}

// TestPredictiveDigestsAreLazy: a benchmark seen only through stolen
// completions gets no gap digest, and one whose work never completed
// here gets no service digest; neither joins the demand sum.
func TestPredictiveDigestsAreLazy(t *testing.T) {
	a := newScaler(t, Config{Mode: ModePredictive, Min: 0, Max: 10, Warmup: 1})
	a.ObserveService("stolen", time.Millisecond)
	a.ObserveArrival("unserved", 0)
	a.ObserveArrival("unserved", time.Millisecond)
	if r := a.benches["stolen"]; r == nil || r.gaps.d.Load() != nil || r.svc.d.Load() == nil || r.arrived {
		t.Errorf("completion-only record %+v: want a service digest and nothing else", r)
	}
	if r := a.benches["unserved"]; r == nil || r.gaps.d.Load() == nil || r.svc.d.Load() != nil {
		t.Errorf("arrival-only record %+v: want a gap digest and nothing else", r)
	}
	if len(a.order) != 1 || a.PredictedDemand() != 0 {
		t.Errorf("order %d, demand %d: want only the arrived benchmark ordered and no demand", len(a.order), a.PredictedDemand())
	}
}

// TestPredictiveConcurrentObservations runs the live engine's shape under
// the race detector: submitters and completing workers observe from many
// goroutines while the pool lock's holder reads PredictedDemand and
// Desired, and digests are created while the readers run.
func TestPredictiveConcurrentObservations(t *testing.T) {
	a := newScaler(t, Config{Mode: ModePredictive, Min: 1, Max: 64, ColdStart: time.Millisecond, Warmup: 4, Window: 32})
	const writers, each = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				bench := string(rune('a' + (w+i)%11))
				a.ObserveArrival(bench, time.Duration(w*each+i)*time.Microsecond)
				a.ObserveService(bench, time.Duration(1+i%5)*time.Millisecond)
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if d := a.Desired(0, 1, 0, 0); d < 1 || d > 64 {
				t.Errorf("desired %d outside [Min, Max]", d)
			}
			a.PredictedDemand()
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	if len(a.order) != 11 || a.PredictedDemand() <= 0 {
		t.Errorf("after the storm: %d benchmarks ordered, demand %d; want 11 and a warmed floor", len(a.order), a.PredictedDemand())
	}
}

// The observation benchmarks price one warm call per mode: fixed and
// reactive must read as a branch, predictive as a map lookup under the
// mutex plus one digest record.

func BenchmarkObserveArrival(b *testing.B) {
	for _, m := range modes {
		b.Run(m.String(), func(b *testing.B) {
			a, err := New(Config{Mode: m, Min: 1, Max: 8})
			if err != nil {
				b.Fatal(err)
			}
			benches := []string{"a", "b", "c", "d"}
			now := time.Duration(0)
			b.ReportAllocs()
			for b.Loop() {
				now += time.Microsecond
				a.ObserveArrival(benches[int(now/time.Microsecond)%len(benches)], now)
			}
		})
	}
}

func BenchmarkObserveService(b *testing.B) {
	for _, m := range modes {
		b.Run(m.String(), func(b *testing.B) {
			a, err := New(Config{Mode: m, Min: 1, Max: 8})
			if err != nil {
				b.Fatal(err)
			}
			benches := []string{"a", "b", "c", "d"}
			i := 0
			b.ReportAllocs()
			for b.Loop() {
				i++
				a.ObserveService(benches[i%len(benches)], time.Duration(1+i%7)*time.Millisecond)
			}
		})
	}
}
