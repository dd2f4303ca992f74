package serve

import (
	"runtime"
	"testing"

	"dscs/internal/faas"
	"dscs/internal/workload"
)

// gcRecycleBound is the most heap allocations a cycle of 1,000 warm
// closed-loop submits plus one forced GC may cost. Engine-owned free lists
// keep requests and batches through a GC, so what is left is the submit
// path's own steady-state rate and the ingress's shard-token pool
// (shardIndex), which a GC empties: about one token per P a submitter runs
// on. On a 2-vCPU host that measures 0.0–0.1, 2.6–2.8 and 2.5–4.2 per cycle at 1, 2
// and 4 Ps; with requests and batches in sync.Pools, which every GC empties
// too, it measured 4.1, 9.1–9.8 and 13–15.
func gcRecycleBound() float64 { return 1 + 1.5*float64(runtime.GOMAXPROCS(0)) }

// TestSubmitRecyclingSurvivesGC pins the engine's recycling across garbage
// collections: warm closed-loop Submits with a forced runtime.GC() every
// 1,000 calls must not re-allocate the requests and batches the engine
// recycles.
func TestSubmitRecyclingSurvivesGC(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 2, QueueDepth: 64,
		Execute: func(*faas.Runner, *workload.Benchmark, faas.Options) (faas.Result, error) {
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")
	submits := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	submits(5000) // warm: digests, free lists, telemetry series
	const cycles = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for c := 0; c < cycles; c++ {
		submits(1000)
		runtime.GC()
	}
	runtime.ReadMemStats(&after)
	perCycle := float64(after.Mallocs-before.Mallocs) / cycles
	t.Logf("%.2f allocations per 1,000 submits and a GC", perCycle)
	if bound := gcRecycleBound(); perCycle > bound {
		t.Errorf("%.2f allocations per 1,000 submits and a GC, want at most %.1f", perCycle, bound)
	}
}
