package faas

import (
	"fmt"
	"sync"
	"testing"

	"dscs/internal/platform"
	"dscs/internal/workload"
)

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// TestWarmInvokeAllocations pins the warm request path: once a benchmark's
// plan is resolved and its objects placed, an invocation derives nothing and
// allocates nothing, on the DSCS path and on the CPU baseline's alike, at
// batch 1 and at the batch sizes the plan holds keys for.
func TestWarmInvokeAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := workload.AssetDamage()
	opt := Options{Quantile: 0.5}
	for _, tc := range []struct {
		name string
		p    platform.Compute
	}{
		{"dscs", platform.DSCS()},
		{"cpu", platform.BaselineCPU()},
		{"ns-arm", platform.NSARM()},
	} {
		r := NewRunner(testStore(t), tc.p)
		if _, err := r.Invoke(b, opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := r.Invoke(b, opt); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: warm Invoke allocates %v times, want 0", tc.name, got)
		}
		for _, batch := range []int{2, plannedBatches} {
			batched := Options{Quantile: 0.5, Batch: batch}
			if _, err := r.Invoke(b, batched); err != nil {
				t.Fatalf("%s batch %d: %v", tc.name, batch, err)
			}
			got := testing.AllocsPerRun(50, func() {
				if _, err := r.Invoke(b, batched); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%s: warm Invoke at batch %d allocates %v times, want 0", tc.name, batch, got)
			}
		}
		if tc.p.Class() != platform.InStorageDSA {
			continue
		}
		got = testing.AllocsPerRun(200, func() {
			if _, ok := r.DriveFor(b, 1); !ok {
				t.Fatal("no drive for a placed input")
			}
		})
		if got != 0 {
			t.Errorf("%s: warm DriveFor allocates %v times, want 0", tc.name, got)
		}
	}
}

// TestPlanFollowsBenchmarkObject pins the plan table's one rule: a plan
// serves only the *workload.Benchmark it was derived from. Redeploying a
// slug replaces its entry, so the table never outgrows the slugs, and a new
// object is never handed the old object's plan.
func TestPlanFollowsBenchmarkObject(t *testing.T) {
	r := NewRunner(testStore(t), platform.DSCS())
	var last *workload.Benchmark
	for i := 0; i < 100; i++ {
		last = workload.Chatbot()
		if _, err := r.Invoke(last, Options{Quantile: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.plans) != 1 {
		t.Fatalf("100 redeploys of one slug left %d plan entries, want 1", len(r.plans))
	}
	if p := r.plans[last.Slug]; p.bench != last {
		t.Fatal("the plan table kept an earlier object's plan")
	}

	// A different object under the old slug: its own sizes reach the store.
	changed := *last
	changed.OutputBytes = 3 * last.OutputBytes
	p, err := r.planFor(&changed)
	if err != nil {
		t.Fatal(err)
	}
	if p.bench != &changed {
		t.Fatal("a new object under an old slug was served the old plan")
	}
	if _, err := r.Invoke(&changed, Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	obj, ok := r.Store.Lookup(p.stageKey(stageOutput, 1))
	if !ok || obj.Size != changed.OutputBytes {
		t.Fatalf("output object %+v does not carry the new object's size %v", obj, changed.OutputBytes)
	}
	if len(r.plans) != 1 {
		t.Fatalf("plan table holds %d entries for one slug", len(r.plans))
	}
}

// TestPlanKeysMatchStageFormat pins the plan's keys, tabled (batches
// 1…plannedBatches) and formatted (beyond), to the spelling every stored
// object has used: "<slug>/<stage>", "@b<batch>" appended past 1. Placement
// hashes these strings, so a byte of difference moves objects.
func TestPlanKeysMatchStageFormat(t *testing.T) {
	r := NewRunner(testStore(t), platform.DSCS())
	b := workload.Clinical()
	p, err := r.planFor(b)
	if err != nil {
		t.Fatal(err)
	}
	for s, name := range stageNames {
		for _, batch := range []int{-1, 0, 1} {
			if got, want := p.stageKey(stage(s), batch), "clinical/"+name; got != want {
				t.Errorf("stageKey(%s, %d) = %q, want %q", name, batch, got, want)
			}
		}
		for _, batch := range []int{2, 3, 4, 5, 6, 7, plannedBatches, plannedBatches + 1, 16, 100} {
			want := fmt.Sprintf("%s/%s@b%d", "clinical", name, batch)
			if got := p.stageKey(stage(s), batch); got != want {
				t.Errorf("stageKey(%s, %d) = %q, want %q", name, batch, got, want)
			}
		}
	}
	if p.accelFuncs != 2 {
		t.Errorf("accelerated prefix = %d functions, want 2 (f1, f2)", p.accelFuncs)
	}
}

// TestScatterConcurrentWithInvoke runs InvokeScattered and Invoke of one
// benchmark on one runner at once; under -race it fails if either touches
// the runner's ledgers outside the lock.
func TestScatterConcurrentWithInvoke(t *testing.T) {
	r := NewRunner(testStore(t), platform.DSCS())
	b := workload.PPEDetection()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var err error
				if g%2 == 0 {
					_, err = r.InvokeScattered(b, Options{Quantile: 0.5, Batch: 8}, 2+i%3)
				} else {
					_, err = r.Invoke(b, Options{Quantile: 0.5, Batch: 1 + 7*(i%2)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScatterRepeatsBitForBit pins the gather's summation order: two
// same-seed stacks scattering across several drives return identical
// Results, energy floats included.
func TestScatterRepeatsBitForBit(t *testing.T) {
	run := func() Result {
		r := NewRunner(testStore(t), platform.DSCS())
		res, err := r.InvokeScattered(workload.Clinical(), Options{Quantile: 0.5, Batch: 8}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	for i := 0; i < 20; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d: %+v differs from %+v", i, again, first)
		}
	}
}
