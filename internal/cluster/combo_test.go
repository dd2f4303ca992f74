package cluster

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/scale"
	"dscs/internal/trace"
)

// fingerprint renders every field of a stats struct on one line, so a
// golden that compares it pins all of them: scalars as they print (maps in
// key order), a series or a sample as its length and an FNV-1a hash over
// its points or its sorted values.
func fingerprint(st any) string {
	v := reflect.ValueOf(st).Elem()
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&b, " %s=", v.Type().Field(i).Name)
		h := fnv.New64a()
		switch f := v.Field(i).Interface().(type) {
		case metrics.Series:
			for _, p := range f.Points {
				fmt.Fprintf(h, "%d:%g;", p.At, p.Value)
			}
			fmt.Fprintf(&b, "%d/%x", len(f.Points), h.Sum64())
		case *metrics.Sample:
			for _, p := range f.CDF(f.Len()) {
				fmt.Fprintf(h, "%d;", p.Value)
			}
			fmt.Fprintf(&b, "%d/%x", f.Len(), h.Sum64())
		default:
			fmt.Fprintf(&b, "%v", f)
		}
	}
	return b.String()[1:]
}

// TestRackComboGolden pins the feature combinations no other Tier-1 test
// exercises together — the ones where elastic capacity, the fault script,
// the former and N-way balance meet inside one event loop:
//
//   - split RunHybrid with two CPU pools, adaptive balance, elastic
//     capacity and a pool-down/up pair at once (the benchmark's sim-rack
//     hybrid replay shape);
//   - the same hybrid under the predictive autoscaler, the one mode whose
//     decisions read arrivals and service times;
//   - Run with the queue-level former under a brown-out (the requeued
//     tasks re-Observe into the former so their groups re-form, and a
//     requeued formed batch counts once, when it runs again);
//   - Run with elastic capacity under a brown-out;
//   - split RunHybrid with two CPU pools, tail hedging and adaptive balance
//     under a mid-burst pool-down/up of the DSCS pool and of a CPU pool
//     that lends hedge workers.
//
// The predictive arm and the last pin every Stats field (fingerprint): the
// first because an idle-cost or cold-start drift there is what an elastic
// short cut would show, the last because it recycles execution records
// while a hedge lease or a cancelled completion is still outstanding.
//
// All five are seeded and fully deterministic; the counts are pinned so
// a change to event ordering in any of those paths shows its hand.
func TestRackComboGolden(t *testing.T) {
	mustParse := func(s string) []trace.FaultEvent {
		t.Helper()
		evs, err := trace.ParseFaultScript(s)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	type golden struct {
		completed, dropped, stranded, withinSLO, requeued, coldStarts, other int
		mean                                                                 time.Duration
	}

	t.Run("hybrid/2cpu+adaptive+elastic+faults", func(t *testing.T) {
		cfg := balanceConfig()
		cfg.QueueDepth = 2000
		cfg.CPUPools = 2
		cfg.AdaptiveBalance = true
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		cfg.Elastic = &scale.Config{
			Mode: scale.ModeReactive, Min: 1, Max: 40,
			ColdStart: 500 * time.Millisecond, IdleLinger: 10 * time.Second,
		}
		cfg.Faults = mustParse("40s:pool-down:dscs;70s:pool-up:dscs")
		st, err := RunHybrid(onesidedTrace(t), cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{st.Completed, st.Dropped, st.Stranded, st.WithinSLO, st.Requeued, st.ColdStarts, st.Stolen, st.Latency.Mean()}
		if want := (golden{10150, 0, 0, 5616, 3, 70, 3705, 1387059252}); got != want {
			t.Errorf("completed/dropped/stranded/withinSLO/requeued/coldStarts/stolen/mean = %+v, pinned %+v", got, want)
		}
	})

	// The predictive autoscaler observes every arrival and service time, so
	// its decisions can move while occupancy, backlog and target stand
	// still: the one mode PoolCore.Rescale's short path must never take.
	t.Run("hybrid/2cpu+predictive+adaptive+faults", func(t *testing.T) {
		cfg := balanceConfig()
		cfg.Jitter = 0.15
		cfg.QueueDepth = 2000
		cfg.CPUPools = 2
		cfg.AdaptiveBalance = true
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		cfg.Elastic = &scale.Config{
			Mode: scale.ModePredictive, Min: 1, Max: 40,
			ColdStart: 500 * time.Millisecond, IdleLinger: 10 * time.Second,
		}
		cfg.Faults = mustParse("40s:pool-down:dscs;70s:pool-up:dscs")
		st, err := RunHybrid(onesidedTrace(t), cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		const pinned = "Policy=fcfs Queue=49/f8475d10b9e33e86 Latency=10150/cc1461f87d10bb00 Completed=10150 Dropped=0 " +
			"OnDSCS=3490 Stolen=4722 Spilled=3121 WithinSLO=7373 Served=map[cpu0:3270 cpu1:3393 dscs:3487] " +
			"WaitP95=map[cpu0:88.274468ms cpu1:0s dscs:624.761µs] ColdStarts=28 Suspends=0 IdleCost=1h26m50.286970015s " +
			"Faults=1 Requeued=3 HedgesFired=0 HedgesWon=0 Stranded=0"
		if got := fingerprint(st); got != pinned {
			t.Errorf("stats\n   got %s\npinned %s", got, pinned)
		}
	})

	rack := Config{
		Instances: 8, QueueDepth: 4000,
		Service:     flatService(80 * time.Millisecond),
		SampleEvery: time.Second,
		BatchSLO:    500 * time.Millisecond,
		Faults:      mustParse("20s:pool-down:sim;25s:pool-up:sim"),
	}
	t.Run("rack/former+faults", func(t *testing.T) {
		cfg := rack
		cfg.MaxBatch, cfg.BatchLinger = 8, 20*time.Millisecond
		st, err := Run(smallTrace(t, 60), cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{st.Completed, st.Dropped, st.Stranded, st.WithinSLO, st.Requeued, st.ColdStarts, st.Formed, st.LatencySample.Mean()}
		if want := (golden{7118, 0, 0, 6843, 5, 0, 5935, 205650676}); got != want {
			t.Errorf("completed/dropped/stranded/withinSLO/requeued/coldStarts/formed/mean = %+v, pinned %+v", got, want)
		}
	})
	t.Run("rack/elastic+faults", func(t *testing.T) {
		cfg := rack
		cfg.Elastic = &scale.Config{
			Mode: scale.ModeReactive, Min: 2, Max: 8,
			ColdStart: 500 * time.Millisecond, IdleLinger: 2 * time.Second,
		}
		st, err := Run(smallTrace(t, 60), cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{st.Completed, st.Dropped, st.Stranded, st.WithinSLO, st.Requeued, st.ColdStarts, st.Suspends, st.LatencySample.Mean()}
		if want := (golden{7118, 0, 0, 6501, 4, 8, 8, 316312141}); got != want {
			t.Errorf("completed/dropped/stranded/withinSLO/requeued/coldStarts/suspends/mean = %+v, pinned %+v", got, want)
		}
	})

	t.Run("hybrid/2cpu+hedge+adaptive+faults", func(t *testing.T) {
		cfg := balanceConfig()
		cfg.Jitter = 0.6
		cfg.QueueDepth = 2000
		cfg.CPUPools = 2
		cfg.AdaptiveBalance = true
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		cfg.HedgeFactor = 3
		// Through the quiet lead-in to the first burst, while stragglers
		// hedge, a pool flaps for half a second every 1.5 s: alternately
		// cpu0, the first lender every hedge tries, and the DSCS tier whose
		// stragglers borrow from it. Then the DSCS tier dies mid-burst.
		var script []string
		for k := 0; k < 12; k++ {
			pool := [2]string{"cpu0", "dscs"}[k%2]
			at := 16*time.Second + time.Duration(k)*1500*time.Millisecond
			script = append(script, fmt.Sprintf("%v:pool-down:%s;%v:pool-up:%s", at, pool, at+500*time.Millisecond, pool))
		}
		cfg.Faults = mustParse(strings.Join(append(script, "40s:pool-down:dscs;70s:pool-up:dscs"), ";"))
		st, err := RunHybrid(onesidedTrace(t), cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		const pinned = "Policy=fcfs Queue=49/fb79aaadc88c3961 Latency=10150/c7cfd5ad3152f472 Completed=10150 Dropped=0 " +
			"OnDSCS=3208 Stolen=4231 Spilled=3387 WithinSLO=5183 Served=map[cpu0:3438 cpu1:3520 dscs:3192] " +
			"WaitP95=map[cpu0:1.596841416s cpu1:0s dscs:9.675019ms] ColdStarts=0 Suspends=0 IdleCost=0s " +
			"Faults=13 Requeued=46 HedgesFired=71 HedgesWon=11 Stranded=0"
		if got := fingerprint(st); got != pinned {
			t.Errorf("stats\n   got %s\npinned %s", got, pinned)
		}
	})
}
