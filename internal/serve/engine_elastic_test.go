package serve

import (
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/scale"
	"dscs/internal/workload"
)

func TestEngineElasticValidation(t *testing.T) {
	elastic := func(c scale.Config) Options { return Options{Elastic: &c} }
	bad := []Options{
		elastic(scale.Config{Mode: scale.ModeReactive, Min: 5, Max: 4}),                   // Min above Max
		elastic(scale.Config{Mode: scale.ModeReactive, Min: -1, Max: 4}),                  // negative Min
		elastic(scale.Config{Mode: scale.ModeReactive, Max: 4, ColdStart: -time.Second}),  // negative penalty
		elastic(scale.Config{Mode: scale.ModeReactive, Max: 4, IdleLinger: -time.Second}), // negative linger
		elastic(scale.Config{Mode: scale.ModeReactive, Max: -3}),                          // negative Max
		elastic(scale.Config{Mode: 9, Max: 4}),                                            // unknown mode
		{Workers: 2, Elastic: &scale.Config{Mode: scale.ModePredictive, Min: 1, Max: 4}},  // ok: Workers ignored
	}
	for i, opt := range bad[:len(bad)-1] {
		if _, err := NewEngine(testRunners(t), opt); err == nil {
			t.Errorf("options %d (%+v) must be rejected", i, *opt.Elastic)
		}
	}
	eng, err := NewEngine(testRunners(t), bad[len(bad)-1])
	if err != nil {
		t.Fatalf("elastic options rejected: %v", err)
	}
	eng.Close()
}

// TestEngineElasticScalesUpAndDown drives the live lifecycle end to end:
// a burst of concurrent submissions forces cold starts above the
// Elastic.Min floor, and once the engine quiesces the idle linger suspends
// capacity back down — all observable through the lifecycle gauges.
func TestEngineElasticScalesUpAndDown(t *testing.T) {
	// ColdStart zero keeps the scale-up deterministic under wall time:
	// the raise promotes in place, so the cold-start tally cannot race
	// the burst draining before a timed warming completes. (The timed
	// path runs under TestEngineElasticPrewarmServes and the sims.)
	// Execution must cost real time — an instantaneous runner drains
	// each request before the next stages, so the queue never backs up
	// and a reactive scaler rightly never grows.
	eng, err := NewEngine(testRunners(t), Options{
		Elastic:    &scale.Config{Mode: scale.ModeReactive, Min: 1, Max: 4, IdleLinger: 10 * time.Millisecond},
		QueueDepth: 128,
		MaxBatch:   1,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			time.Sleep(2 * time.Millisecond)
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 48
	bench := workload.BySlug("asset-damage")
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}

	tel := eng.Telemetry()
	if got := tel.Counter("serve_completed_total"); got != n {
		t.Fatalf("serve_completed_total = %g, want %d", got, n)
	}
	// 48 concurrent requests against a 1-warm pool must have scaled up.
	if got := tel.Counter("serve_cold_starts_total"); got == 0 {
		t.Error("no cold starts recorded under a 48-way burst")
	}
	if got := tel.Counter("serve_cold_starts_total{platform=DSCS-Serverless}"); got == 0 {
		t.Error("per-platform cold-start counter never moved")
	}

	// Drained and idle: the linger must suspend capacity back to the
	// floor, and the gauges must agree with each other when it does.
	deadline := time.Now().Add(5 * time.Second)
	for {
		warm := tel.Gauge("serve_workers_warm{platform=DSCS-Serverless}")
		workers := tel.Gauge("serve_workers{platform=DSCS-Serverless}")
		cold := tel.Gauge("serve_workers_cold{platform=DSCS-Serverless}")
		warming := tel.Gauge("serve_workers_warming{platform=DSCS-Serverless}")
		if warm == 1 && workers == 1 && warm+cold+warming == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity never suspended to the floor: warm=%g workers=%g cold=%g warming=%g",
				warm, workers, cold, warming)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineElasticPrewarmServes smoke-tests the predictive mode on the
// live engine: arrivals and completions feed the autoscaler digests and
// everything still completes and conserves.
func TestEngineElasticPrewarmServes(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Elastic: &scale.Config{
			Mode: scale.ModePredictive, Min: 1, Max: 3,
			ColdStart: time.Millisecond, IdleLinger: 50 * time.Millisecond,
		},
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")
	for i := 0; i < 24; i++ {
		if _, err := eng.Submit("Baseline (CPU)", bench, faas.Options{Quantile: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineQuiesceEdgeCases covers the drain corners: quiescing an
// engine that never served, quiescing twice, and a herd of Quiesce
// callers racing Close.
func TestEngineQuiesceEdgeCases(t *testing.T) {
	t.Run("zero-submissions", func(t *testing.T) {
		eng, err := NewEngine(testRunners(t), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if !eng.Quiesce(10 * time.Millisecond) {
			t.Error("an idle engine must report drained immediately")
		}
	})

	t.Run("double-quiesce", func(t *testing.T) {
		eng, err := NewEngine(testRunners(t), Options{Workers: 2, QueueDepth: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		bench := workload.BySlug("asset-damage")
		for i := 0; i < 8; i++ {
			if err := eng.SubmitAsync("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		if !eng.Quiesce(10 * time.Second) {
			t.Fatal("first quiesce timed out")
		}
		if !eng.Quiesce(10 * time.Millisecond) {
			t.Error("second quiesce must succeed instantly on a drained engine")
		}
		if eng.InFlight() != 0 {
			t.Errorf("in-flight = %d after quiesce", eng.InFlight())
		}
	})

	t.Run("quiesce-racing-close", func(t *testing.T) {
		eng, err := NewEngine(testRunners(t), Options{
			Elastic: &scale.Config{
				Mode: scale.ModeReactive, Min: 0, Max: 4,
				ColdStart: time.Millisecond, IdleLinger: 5 * time.Millisecond,
			},
			QueueDepth: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		bench := workload.BySlug("asset-damage")
		for i := 0; i < 32; i++ {
			if err := eng.SubmitAsync("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		// 64 quiescers race one Close; every call must return — drained
		// or timed out — with no panic or deadlock, and Close's freeze
		// must keep serving whatever was admitted.
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng.Quiesce(2 * time.Second)
			}()
		}
		eng.Close()
		wg.Wait()
	})
}

// TestElasticSpareWorkersParkUnderBalance pins that a worker goroutine
// holding no warm slot parks under AdaptiveBalance as it does without it.
// One warm slot is busy (a cold start takes an hour), two requests queue
// behind it, and the three spare goroutines can dispatch neither that
// backlog nor stolen work; they used to loop on the non-empty queue.
func TestElasticSpareWorkersParkUnderBalance(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	eng, err := NewEngine(testRunners(t), Options{
		Elastic:         &scale.Config{Mode: scale.ModeReactive, Min: 1, Max: 4, ColdStart: time.Hour},
		AdaptiveBalance: true,
		QueueDepth:      16,
		MaxBatch:        1,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer close(release)

	bench := workload.BySlug("asset-damage")
	const platform = "DSCS-Serverless"
	if err := eng.SubmitAsync(platform, bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if err := eng.SubmitAsync(platform, bench, faas.Options{Quantile: 0.5}); err != nil {
			t.Fatal(err)
		}
	}

	// The submissions' wakeups land within a few scheduler slices; a
	// goroutine that did not park by then never does.
	p := eng.pools[platform]
	time.Sleep(50 * time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for {
		p.mu.Lock()
		queued, warm := p.core.QueueLen(), p.core.Workers()
		p.mu.Unlock()
		parked := p.parked.Load()
		if queued == 2 && warm == 1 && parked == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spare goroutines: %d of 3 parked (queued %d, warm %d)", parked, queued, warm)
		}
		time.Sleep(time.Millisecond)
	}
}
