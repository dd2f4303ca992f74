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
