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
// wake path, per-dispatch window and queue-level former alike: the
// arrival that fills a batch releases it at once, long before the
// window's deadline.
func TestLingerReleasesOnFillingArrival(t *testing.T) {
	for _, global := range []bool{false, true} {
		t.Run(fmt.Sprintf("GlobalBatch=%v", global), func(t *testing.T) {
			eng, err := NewEngine(testRunners(t), Options{
				Workers: 1, MaxBatch: 2, BatchLinger: 2 * time.Second, GlobalBatch: global,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			bench := workload.BySlug("chatbot")
			invs := make([]Invocation, 2)
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
				t.Errorf("a filled batch of 2 was served after %v; the filling arrival should release it", elapsed)
			}
			for i, inv := range invs {
				if inv.BatchRequests != 2 {
					t.Errorf("request %d: BatchRequests = %d, want 2", i, inv.BatchRequests)
				}
			}
		})
	}
}

// TestLingerHoldsLoneRequestForWindow pins the timer half: a request with
// no company waits out the whole window before it executes alone.
func TestLingerHoldsLoneRequestForWindow(t *testing.T) {
	const linger = 30 * time.Millisecond
	for _, global := range []bool{false, true} {
		t.Run(fmt.Sprintf("GlobalBatch=%v", global), func(t *testing.T) {
			eng, err := NewEngine(testRunners(t), Options{
				Workers: 1, MaxBatch: 8, BatchLinger: linger, GlobalBatch: global,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			start := time.Now()
			inv, err := eng.Submit("DSCS-Serverless", workload.BySlug("chatbot"), faas.Options{Quantile: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed < linger {
				t.Errorf("lone request served after %v, inside its %v window", elapsed, linger)
			}
			if inv.BatchRequests != 1 {
				t.Errorf("BatchRequests = %d, want 1", inv.BatchRequests)
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
