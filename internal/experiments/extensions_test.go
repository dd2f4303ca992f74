package experiments

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// Extension experiments intentionally damage and repair their cluster
// (node failures, re-replication, scatter partitions), so they run on a
// dedicated environment rather than the figure tests' pristine one.
var (
	extOnce sync.Once
	extEnv  *Environment
	extErr  error
)

func runExt(t *testing.T, id string) *Result {
	t.Helper()
	extOnce.Do(func() {
		extEnv, extErr = NewEnvironment(1042)
	})
	if extErr != nil {
		t.Fatal(extErr)
	}
	spec, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	res, err := spec.Run(extEnv)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res
}

func TestExtScheduling(t *testing.T) {
	res := runExt(t, "ext-sched")
	// The Section 5.3 hypothesis holds: the criticality refinement beats
	// FCFS under contention.
	if res.Value("criticality_gain") <= 1.0 {
		t.Errorf("criticality gain = %.3f, want >1", res.Value("criticality_gain"))
	}
	if res.Value("mean_ms/fcfs") <= 0 {
		t.Error("degenerate FCFS latency")
	}
}

// TestExtSchedulingGolden pins ext-sched's seeded outcome: each policy's
// mean latency to the last printed digit and how many requests the DSCS
// pool served. The gains above survive a changed pick; these do not, so a
// cluster refactor that moves one dispatch decision shows here.
func TestExtSchedulingGolden(t *testing.T) {
	env, err := NewEnvironment(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtScheduling(env)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		policy string
		mean   string
		onDSCS string
	}{
		{"fcfs", "27392.365378", "28577"},
		{"criticality", "23116.597216", "28100"},
	}
	if len(res.Table.Rows) != len(want) {
		t.Fatalf("%d table rows, want %d", len(res.Table.Rows), len(want))
	}
	for i, w := range want {
		if got := fmt.Sprintf("%.6f", res.Value("mean_ms/"+w.policy)); got != w.mean {
			t.Errorf("mean_ms/%s = %s, want %s", w.policy, got, w.mean)
		}
		row := res.Table.Rows[i]
		if row[0] != w.policy || row[len(row)-1] != w.onDSCS {
			t.Errorf("row %d = %v, want policy %s served on DSCS %s", i, row, w.policy, w.onDSCS)
		}
	}
}

// TestExtSchedulingCriticalityGainAcrossSeeds holds the Section 5.3 claim
// to more than one seed: on a fresh environment at each of seeds 1–5,
// criticality-aware placement must beat FCFS's mean latency. One seed's
// gain could be a lucky trace; five independent traces and price streams
// all favouring it are the claim. The mean and spread are logged for the
// record.
func TestExtSchedulingCriticalityGainAcrossSeeds(t *testing.T) {
	var gains []float64
	for seed := uint64(1); seed <= 5; seed++ {
		env, err := NewEnvironment(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExtScheduling(env)
		if err != nil {
			t.Fatal(err)
		}
		g := res.Value("criticality_gain")
		if !(g > 1) {
			t.Errorf("seed %d: criticality gain = %.3f, want > 1", seed, g)
		}
		gains = append(gains, g)
	}
	var mean, ss float64
	for _, g := range gains {
		mean += g
	}
	mean /= float64(len(gains))
	for _, g := range gains {
		ss += (g - mean) * (g - mean)
	}
	t.Logf("criticality gain over seeds 1-5: %.3f, mean %.3f, sd %.3f",
		gains, mean, math.Sqrt(ss/float64(len(gains)-1)))
}

func TestExtBatchFormer(t *testing.T) {
	res := runExt(t, "ext-batchform")
	// Batching is what makes the bursty load servable: amortization buys
	// an order of magnitude of mean latency.
	if g := res.Value("batching_gain"); g < 5 {
		t.Errorf("batching gain = %.2fx, want >= 5x", g)
	}
	// The SLO cap cuts the tail sharply relative to the uncapped former.
	if g := res.Value("slo_p99_gain"); g < 1.5 {
		t.Errorf("SLO p99 gain = %.2fx, want >= 1.5x", g)
	}
	// Forming actually happened, and every mode served everything.
	if res.Value("formed/former") <= 0 {
		t.Error("the former formed no batches")
	}
	for _, k := range []string{"none", "former", "former_slo"} {
		if res.Value("per_exec/"+k) < 1 {
			t.Errorf("mode %s: requests per execution below 1", k)
		}
	}
	// The amortization ordering: the former coalesces, no-batching serves
	// one request per execution.
	if res.Value("per_exec/former") <= 2 {
		t.Error("the former should coalesce well above 2 requests/execution")
	}
}

func TestExtMemcache(t *testing.T) {
	res := runExt(t, "ext-memcache")
	// The skewed mix keeps hot functions resident...
	within(t, res, "hit_rate", 0.25, 0.92)
	// ...and once evictions start, reloads come from flash, not the
	// registry (each image is pulled over the network at most once).
	if v := res.Value("registry_loads"); v < 5 || v > 8 {
		t.Errorf("registry pulls = %.0f, want at most one per touched function", v)
	}
	if res.Value("evictions") > 0 && res.Value("flash_loads") == 0 {
		t.Error("evictions occurred but nothing reloaded from flash")
	}
	if v := res.Value("p2p_vs_registry"); v != 0 && v < 1.2 {
		t.Errorf("P2P reload advantage = %.2fx, want >1.2x", v)
	}
}

func TestExtScatter(t *testing.T) {
	res := runExt(t, "ext-scatter")
	// The gains as they stood before the scatter path took the runner's
	// lock, batch-qualified its keys and fixed its drive order: both
	// partitions still land on distinct drives, so the finding holds.
	for slug, want := range map[string]float64{
		"ppe-detection": 1.527, "clinical": 1.123, "remote-sensing": 1.201,
	} {
		g := res.Value("gain/" + slug)
		if g <= 1.0 {
			t.Errorf("scatter gain for %s = %.2f, want >1", slug, g)
		}
		if math.Abs(g-want) > 0.005 {
			t.Errorf("scatter gain for %s = %.3f, want %.3f", slug, g, want)
		}
	}
}

func TestExtFailover(t *testing.T) {
	res := runExt(t, "ext-failover")
	// Fallback is slower than in-storage execution but still serves.
	if res.Value("fallback_penalty") <= 1.2 {
		t.Errorf("fallback penalty = %.2f, want a clear slowdown", res.Value("fallback_penalty"))
	}
	// Repair moved data and restored the accelerated path.
	if res.Value("repaired_chunks") <= 0 || res.Value("repaired_mb") <= 0 {
		t.Error("re-replication did nothing")
	}
	healthy, repaired := res.Value("healthy_ms"), res.Value("repaired_ms")
	if diff := repaired / healthy; diff < 0.8 || diff > 1.3 {
		t.Errorf("repaired latency (%.1fms) should match healthy (%.1fms)", repaired, healthy)
	}
}
