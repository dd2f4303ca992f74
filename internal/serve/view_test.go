package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/workload"
)

// TestBalanceTargetTakesNoPoolLock: a spill decision prices its peers from
// the lock-free view, so it completes while every CPU pool's mutex is held
// — the spill targets it ranks, one of which it picks.
func TestBalanceTargetTakesNoPoolLock(t *testing.T) {
	eng, err := NewEngine(testRunnersTwoCPU(t), Options{
		Workers: 1, QueueDepth: 16, AdaptiveBalance: true, EstimateWarmup: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	spill := armedSpill(t, eng)
	for _, p := range eng.spillCPU {
		p.mu.Lock()
	}
	unlock := func() {
		for _, p := range eng.spillCPU {
			p.mu.Unlock()
		}
	}
	done := make(chan *pool, 1)
	go func() { done <- spill() }()
	select {
	case got := <-done:
		unlock()
		if want := eng.pools["Baseline (CPU)"]; got != want {
			t.Fatalf("spill target %v, want the first idle CPU pool %v", got, want)
		}
	case <-time.After(5 * time.Second):
		unlock()
		<-done
		t.Fatal("BalanceTarget blocked on a spill target's pool lock")
	}
}

// freeMirrorDrift reports, under each pool's lock, where the free-slot
// mirror the balancer reads disagrees with the core ("" when none does).
func freeMirrorDrift(eng *Engine) string {
	for _, p := range eng.order {
		p.mu.Lock()
		mirror, busy, workers := p.free.Load(), p.core.Busy(), p.core.Workers()
		p.mu.Unlock()
		if mirror != (busy < workers) {
			return fmt.Sprintf("%s free-slot mirror %v, core %d busy of %d", p.name, mirror, busy, workers)
		}
	}
	return ""
}

// TestFreeSlotMirrorTracksCore drives seeded mixes of every transition
// that moves a pool's Busy or Workers — dispatch (own and stolen work),
// Complete, the Requeue of a batch whose pool died under it, hedged
// executions borrowing a peer's runner and returning it, elastic resizes
// (cold starts and lingers), FailPool/RecoverPool — and Close, checking
// after each operation, and from a concurrent checker throughout, that
// the mirror equals Busy() < Workers() under the pool lock.
func TestFreeSlotMirrorTracksCore(t *testing.T) {
	for _, elastic := range []*scale.Config{
		nil,
		{Mode: scale.ModeReactive, Min: 0, Max: 3, ColdStart: time.Millisecond, IdleLinger: 2 * time.Millisecond},
	} {
		moves := []string{"serve_hedges_fired_total", "serve_requeues_total", "serve_steal_total", "serve_cold_starts_total"}
		seen := make([]float64, len(moves))
		for seed := int64(1); seed <= 3; seed++ {
			var calls atomic.Int64
			eng, err := NewEngine(testRunnersTwoCPU(t), Options{
				Workers: 2, Elastic: elastic, QueueDepth: 64, MaxBatch: 2,
				AdaptiveBalance: true, EstimateWarmup: 1, HedgeFactor: 1,
				Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
					time.Sleep(time.Duration(calls.Add(1)%3) * 500 * time.Microsecond)
					return faas.Result{Breakdown: faas.Breakdown{Compute: time.Millisecond}}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			checked := make(chan struct{})
			go func() {
				defer close(checked)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if drift := freeMirrorDrift(eng); drift != "" {
						t.Errorf("concurrent check: %s", drift)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			rng := rand.New(rand.NewSource(seed))
			names := eng.Platforms()
			bench := workload.BySlug("chatbot")
			for op := 0; op < 60; op++ {
				name := names[rng.Intn(len(names))]
				var step string
				switch k := rng.Intn(8); {
				case k < 5:
					step = "submit to " + name
					for n := rng.Intn(6) + 1; n > 0; n-- {
						_ = eng.SubmitAsync(name, bench, faas.Options{Quantile: 0.5})
					}
				case k == 5:
					step = "fail " + name
					if err := eng.FailPool(name); err != nil {
						t.Fatal(err)
					}
				case k == 6:
					step = "recover " + name
					if err := eng.RecoverPool(name); err != nil {
						t.Fatal(err)
					}
				default:
					step = "idle"
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				}
				if drift := freeMirrorDrift(eng); drift != "" {
					t.Fatalf("seed %d op %d (%s): %s", seed, op, step, drift)
				}
			}
			for _, name := range names {
				if err := eng.RecoverPool(name); err != nil {
					t.Fatal(err)
				}
			}
			if !eng.Quiesce(10 * time.Second) {
				t.Fatal("engine did not drain")
			}
			drained := freeMirrorDrift(eng)
			eng.Close()
			close(stop)
			<-checked
			if closed := freeMirrorDrift(eng); drained+closed != "" {
				t.Fatalf("seed %d: drained: %q; closed: %q", seed, drained, closed)
			}
			for i, name := range moves {
				seen[i] += eng.Telemetry().Counter(name)
			}
		}
		// The mix must actually have reached every transition it claims.
		for i, name := range moves {
			if seen[i] == 0 && (elastic != nil || name != "serve_cold_starts_total") {
				t.Errorf("elastic %v: no %s across the seeds", elastic != nil, name)
			}
		}
	}
}

// queuedTasks snapshots a pool's queue, staged entries drained first.
func queuedTasks(eng *Engine, p *pool) []sched.HybridTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	eng.drainLocked(p)
	tasks := p.core.queue.TakeWhereInto(nil, p.core.QueueLen(), func(sched.HybridTask) bool { return true })
	out := slices.Clone(tasks)
	p.core.queue.RestoreAll(tasks)
	return out
}

// TestSubmissionPricingReadsThePublishedBlend: under AdaptiveEstimates a
// submission prices with the blends the last completion publish left —
// observedService as it stood then, not as the digests stand now — and,
// after ForgetEstimate, with the static prior again.
func TestSubmissionPricingReadsThePublishedBlend(t *testing.T) {
	var block atomic.Bool
	release := make(chan struct{})
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, MaxBatch: 1, AdaptiveEstimates: true, EstimateWarmup: 4,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			if block.Load() {
				<-release
			}
			return faas.Result{Breakdown: faas.Breakdown{Compute: 40 * time.Millisecond}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const home = "DSCS-Serverless"
	b := workload.BySlug("chatbot")
	cpuStatic, dscsStatic := eng.ServiceEstimate(b)
	submit := func() {
		t.Helper()
		if _, err := eng.Submit(home, b, faas.Options{Quantile: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		submit()
	}
	// Past the publish rate limit, one more completion publishes the
	// blends from the digest as it now stands.
	time.Sleep(2 * gaugeRefreshInterval)
	submit()
	published := eng.observedService(b.Slug, sched.ClassDSCS, dscsStatic)
	if published == dscsStatic {
		t.Fatalf("nine 40ms completions left the blend at the static prior %v", dscsStatic)
	}
	// Observations that no completion published move the live blend, not
	// the price.
	for i := 0; i < 16; i++ {
		eng.Observatory().Record(b.Slug, home, time.Second)
	}
	if live := eng.observedService(b.Slug, sched.ClassDSCS, dscsStatic); live == published {
		t.Fatal("the unpublished observations did not move the blend")
	}

	// Hold the worker on one request so the next ones stay queued.
	block.Store(true)
	defer close(release)
	if err := eng.SubmitAsync(home, b, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	p := eng.pools[home]
	waitFor(t, "the held dispatch", func() bool { return dscsBusy(eng) == 1 })
	if err := eng.SubmitAsync(home, b, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	eng.ForgetEstimate(b.Slug)
	if err := eng.SubmitAsync(home, b, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	q := queuedTasks(eng, p)
	if len(q) != 2 {
		t.Fatalf("%d queued tasks, want 2", len(q))
	}
	if got := q[0].DSCSService; got != published {
		t.Errorf("DSCS price %v, want the published blend %v", got, published)
	}
	if got := q[0].CPUService; got != cpuStatic {
		t.Errorf("CPU price %v with no CPU observations, want the prior %v", got, cpuStatic)
	}
	if q[1].DSCSService != dscsStatic || q[1].CPUService != cpuStatic {
		t.Errorf("after ForgetEstimate priced %v/%v, want the static prior %v/%v",
			q[1].CPUService, q[1].DSCSService, cpuStatic, dscsStatic)
	}
}
