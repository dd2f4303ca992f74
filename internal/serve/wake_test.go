package serve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/workload"
)

// TestLingerReleasesOnFillingArrival pins the arrival half of the batch
// wake path: the arrival that fills a forming batch releases it at once,
// long before the former's linger bound, whatever the batch size.
func TestLingerReleasesOnFillingArrival(t *testing.T) {
	for _, maxBatch := range []int{2, 3} {
		t.Run(fmt.Sprintf("MaxBatch=%d", maxBatch), func(t *testing.T) {
			eng, err := NewEngine(testRunners(t), Options{
				Workers: 1, MaxBatch: maxBatch, BatchLinger: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			bench := workload.BySlug("chatbot")
			invs := make([]Invocation, maxBatch)
			var wg sync.WaitGroup
			start := time.Now()
			for i := range invs {
				if i > 0 {
					time.Sleep(20 * time.Millisecond)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
					if err != nil {
						t.Error(err)
					}
					invs[i] = inv
				}()
			}
			wg.Wait()
			if elapsed := time.Since(start); elapsed >= time.Second {
				t.Errorf("a filled batch of %d was served after %v; the filling arrival should release it", maxBatch, elapsed)
			}
			for i, inv := range invs {
				if inv.BatchRequests != maxBatch {
					t.Errorf("request %d: BatchRequests = %d, want %d", i, inv.BatchRequests, maxBatch)
				}
			}
		})
	}
}

// TestLingerHoldsLoneRequestForWindow pins the timer half and the rule
// that arms the former: with MaxBatch > 1, BatchLinger attaches one, and a
// request with no company waits out the whole linger bound queued before
// it executes alone; with MaxBatch 1 the same linger attaches none.
func TestLingerHoldsLoneRequestForWindow(t *testing.T) {
	const linger = 30 * time.Millisecond
	for _, tc := range []struct {
		maxBatch int
		former   bool
	}{{8, true}, {1, false}} {
		t.Run(fmt.Sprintf("MaxBatch=%d", tc.maxBatch), func(t *testing.T) {
			eng, err := NewEngine(testRunners(t), Options{
				Workers: 1, MaxBatch: tc.maxBatch, BatchLinger: linger,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for name, p := range eng.pools {
				if got := p.core.Former() != nil; got != tc.former {
					t.Errorf("pool %s: former attached = %v, want %v", name, got, tc.former)
				}
			}
			start := time.Now()
			inv, err := eng.Submit("DSCS-Serverless", workload.BySlug("chatbot"), faas.Options{Quantile: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if inv.BatchRequests != 1 {
				t.Errorf("BatchRequests = %d, want 1", inv.BatchRequests)
			}
			formed := eng.tel.Counter("serve_batch_formed_total")
			if !tc.former {
				if formed != 0 {
					t.Errorf("serve_batch_formed_total = %g without a former, want 0", formed)
				}
				return
			}
			if elapsed := time.Since(start); elapsed < linger {
				t.Errorf("lone request served after %v, inside its %v linger", elapsed, linger)
			}
			if inv.Queued < linger {
				t.Errorf("Queued = %v, want at least the %v hold", inv.Queued, linger)
			}
			if formed != 1 {
				t.Errorf("serve_batch_formed_total = %g, want 1", formed)
			}
		})
	}
}

// TestQuiesceTimesOutThenDrains covers Quiesce's two exits while an
// execution blocks: false at its timeout, then true promptly once the
// execution is released.
func TestQuiesceTimesOutThenDrains(t *testing.T) {
	release := make(chan struct{})
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			<-release
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SubmitAsync("DSCS-Serverless", workload.BySlug("asset-damage"), faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	const timeout = 30 * time.Millisecond
	start := time.Now()
	if eng.Quiesce(timeout) {
		t.Fatal("Quiesce reported drained while an execution was blocked")
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Errorf("Quiesce gave up after %v, before its %v timeout", elapsed, timeout)
	}

	returned := make(chan time.Time, 1)
	go func() {
		if !eng.Quiesce(10 * time.Second) {
			t.Error("Quiesce timed out after the execution was released")
		}
		returned <- time.Now()
	}()
	for eng.quiescers.Load() == 0 {
		runtime.Gosched()
	}
	released := time.Now()
	close(release)
	if lag := (<-returned).Sub(released); lag > 50*time.Millisecond {
		t.Errorf("Quiesce returned %v after the release, want within 50ms", lag)
	}
}

// TestWakeTokenNoLostWakeup soaks the one-wakeup-in-flight protocol:
// rounds of submitters released together onto parked workers, where all
// but one claimant per token only stage their entry. A stranded entry
// shows as a Submit that never returns. Once the engine is quiet every
// worker must be parked again with the token cleared — a token left set
// would silence every later burst's wakeup.
func TestWakeTokenNoLostWakeup(t *testing.T) {
	const (
		rounds   = 200
		burst    = 64
		deadline = 10 * time.Second
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("Workers=%d", workers), func(t *testing.T) {
			eng, err := NewEngine(testRunners(t), Options{
				Workers: workers,
				Execute: func(*faas.Runner, *workload.Benchmark, faas.Options) (faas.Result, error) {
					return faas.Result{}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			bench := workload.BySlug("asset-damage")
			platforms := []string{"DSCS-Serverless", "Baseline (CPU)"}
			for round := 0; round < rounds; round++ {
				release := make(chan struct{})
				// Errors go to a channel, not t: a stranded submitter
				// returns only after the test has failed and closed the
				// engine.
				errs := make(chan error, burst)
				var wg sync.WaitGroup
				for i := 0; i < burst; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-release
						if _, err := eng.Submit(platforms[i%2], bench, faas.Options{Quantile: 0.5}); err != nil {
							errs <- err
						}
					}()
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				close(release)
				select {
				case <-done:
				case <-time.After(deadline):
					t.Fatalf("round %d: submitters still blocked after %v (in flight %d): a wakeup was lost", round, deadline, eng.InFlight())
				}
				select {
				case err := <-errs:
					t.Fatalf("round %d: %v", round, err)
				default:
				}
			}
			if !eng.Quiesce(deadline) {
				t.Fatalf("Quiesce timed out with %d in flight", eng.InFlight())
			}
			if err := eng.Conservation(); err != nil {
				t.Fatal(err)
			}
			for _, p := range eng.order {
				// A token claimed by the last submitter is cleared by the
				// worker its Signal wakes, which may still be on its way
				// back to cond.Wait.
				waitFor(t, fmt.Sprintf("pool %s to rest with its token cleared and all %d workers parked", p.name, workers),
					func() bool { return !p.waking.Load() && int(p.parked.Load()) == workers })
			}
		})
	}
}

// TestWakeTokenHandOn pins the worker's hand-on: a backlog staged while
// one token is in flight (every other submitter skips its Signal) wakes
// one worker, and that worker, leaving queued work and a free slot behind
// its dispatch, wakes the next — so a second execution starts while the
// first is still held, with no further submission to signal it.
func TestWakeTokenHandOn(t *testing.T) {
	const backlog = 8
	started := make(chan struct{}, backlog)
	release := make(chan struct{})
	eng, err := NewEngine(testRunners(t), Options{
		Workers:  2,
		MaxBatch: 1,
		Execute: func(*faas.Runner, *workload.Benchmark, faas.Options) (faas.Result, error) {
			started <- struct{}{}
			<-release
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before Close, which waits for the executions
	// A CPU pool: two DSCS executions of one benchmark would also queue
	// on the drive holding its input.
	p := eng.pools["Baseline (CPU)"]
	waitFor(t, "both workers to park", func() bool { return p.parked.Load() == 2 })
	// Holding the pool lock stalls the first claimant in its wakeup fence,
	// token held, while the rest of the backlog stages behind it.
	p.mu.Lock()
	var unlock sync.Once
	defer unlock.Do(p.mu.Unlock) // before Close, which needs the lock
	var submitters sync.WaitGroup
	for i := 0; i < backlog; i++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			if err := eng.SubmitAsync("Baseline (CPU)", workload.BySlug("asset-damage"), faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "the backlog to stage", func() bool { return p.ingress.staged.Load() == backlog })
	if !p.waking.Load() {
		t.Fatal("backlog staged with no wakeup in flight")
	}
	unlock.Do(p.mu.Unlock)
	submitters.Wait()
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 executions started while the first was held: the wake was not handed on", i)
		}
	}
	unblock()
	if !eng.Quiesce(5 * time.Second) {
		t.Fatalf("Quiesce timed out with %d in flight", eng.InFlight())
	}
}
