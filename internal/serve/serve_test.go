package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dscs/internal/csd"
	"dscs/internal/faas"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/workload"
)

func testRunners(t testing.TB) map[string]*faas.Runner {
	t.Helper()
	var nodes []*objstore.Node
	for i := 0; i < 4; i++ {
		d, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("ssd-%d", i), Kind: objstore.PlainSSD, SSD: d,
		})
	}
	for i := 0; i < 2; i++ {
		d, err := csd.New(csd.Default())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("dscs-%d", i), Kind: objstore.DSCSDrive, CSD: d,
		})
	}
	store, err := objstore.New(objstore.Default(), nodes, sim.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*faas.Runner{
		"DSCS-Serverless": faas.NewRunner(store, platform.DSCS()),
		"Baseline (CPU)":  faas.NewRunner(store, platform.BaselineCPU()),
	}
}

func TestPoolCoreLifecycle(t *testing.T) {
	core, err := NewPoolCore(2, 4, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		ok := core.Submit(sched.HybridTask{ID: i, Payload: "w"})
		if want := i < 4; ok != want {
			t.Fatalf("submit %d admitted=%v, want %v", i, ok, want)
		}
	}
	if core.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", core.Dropped())
	}
	t1, ok := core.Dispatch(0)
	if !ok || t1.ID != 0 {
		t.Fatalf("first dispatch = %+v ok=%v, want task 0", t1, ok)
	}
	// Coalesce grabs matching queued work for the same worker.
	extra := core.Coalesce(10, func(t sched.HybridTask) bool { return t.Payload == "w" })
	if len(extra) != 3 {
		t.Fatalf("coalesced %d tasks, want 3", len(extra))
	}
	if _, ok := core.Dispatch(0); ok {
		t.Fatal("dispatch from empty queue succeeded")
	}
	if core.Busy() != 1 || core.Running() != 4 {
		t.Fatalf("busy=%d running=%d, want 1/4", core.Busy(), core.Running())
	}
	core.Complete(4)
	if err := core.Conservation(); err != nil {
		t.Fatal(err)
	}
	if core.Completed() != 4 || core.Busy() != 0 {
		t.Fatalf("completed=%d busy=%d after retire", core.Completed(), core.Busy())
	}
}

func TestPoolCoreValidation(t *testing.T) {
	if _, err := NewPoolCore(0, 4, sched.ClassCPU, nil); err == nil {
		t.Error("zero workers must fail")
	}
	if _, err := NewPoolCore(2, 0, sched.ClassCPU, nil); err == nil {
		t.Error("zero queue depth must fail")
	}
}

func TestEngineServesConcurrently(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 4, QueueDepth: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 64
	bench := workload.BySlug("asset-damage")
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			if err != nil {
				errs <- err
				return
			}
			if inv.Result.Total() <= 0 || inv.BatchRequests < 1 || inv.BatchSize < inv.BatchRequests {
				errs <- fmt.Errorf("degenerate invocation: %+v", inv)
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
	if eng.Dropped() != 0 {
		t.Fatalf("dropped = %d below queue depth", eng.Dropped())
	}
}

// TestCollectBatchCoalesces drives the batching step deterministically,
// with no goroutine scheduling involved: a queue holding a mix of
// benchmarks and options must coalesce only compatible same-benchmark
// requests up to the MaxBatch budget, in arrival order.
func TestCollectBatchCoalesces(t *testing.T) {
	runners := testRunners(t)
	eng, err := NewEngine(runners, Options{Workers: 1, QueueDepth: 64, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	core, err := NewPoolCore(1, 64, sched.ClassDSCS, sched.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// A detached pool the engine's workers never see.
	p := &pool{name: "test", runner: runners["DSCS-Serverless"], core: core, ingress: newIngress(1, 64)}

	chatbot := workload.BySlug("chatbot")
	moderation := workload.BySlug("moderation")
	enqueue := func(id int, b *workload.Benchmark, opt faas.Options) {
		req := &request{bench: b, opt: opt, done: make(chan outcome, 1)}
		if !core.Submit(sched.HybridTask{ID: id, Payload: b.Slug, Ref: req}) {
			t.Fatalf("task %d rejected", id)
		}
	}
	warm := faas.Options{Quantile: 0.5}
	enqueue(1, chatbot, warm)                                    // lead
	enqueue(2, chatbot, warm)                                    // coalesces
	enqueue(3, moderation, warm)                                 // different benchmark: stays queued
	enqueue(4, chatbot, faas.Options{Quantile: 0.5, Cold: true}) // incompatible
	enqueue(5, chatbot, faas.Options{Quantile: 0.5, Batch: 4})   // coalesces (batch 4)
	enqueue(6, chatbot, faas.Options{Quantile: 0.5, Batch: 4})   // over budget: stays
	enqueue(7, chatbot, warm)                                    // coalesces (fills the last slot)

	task, ok := core.Dispatch(0)
	if !ok || task.ID != 1 {
		t.Fatalf("dispatch = %+v ok=%v, want task 1", task, ok)
	}
	reqs, batch := eng.collectBatch(p, task)
	if len(reqs) != 4 || batch != 7 {
		t.Fatalf("collectBatch = %d reqs, batch %d; want 4 reqs, batch 7", len(reqs), batch)
	}
	if core.QueueLen() != 3 {
		t.Fatalf("queue kept %d tasks, want 3 (moderation, cold, over-budget)", core.QueueLen())
	}
	if core.Running() != 4 {
		t.Fatalf("running = %d, want 4", core.Running())
	}
	core.Complete(len(reqs))
	if err := core.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineBatchBounds floods a single-worker engine and checks every
// batching invariant that holds regardless of goroutine scheduling (on a
// single-P runtime the queue may drain request-by-request, so whether
// coalescing triggers is timing-dependent; its mechanics are covered
// deterministically above).
func TestEngineBatchBounds(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 1, QueueDepth: 64, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 24
	bench := workload.BySlug("chatbot")
	var wg sync.WaitGroup
	invs := make(chan Invocation, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			if err != nil {
				t.Error(err)
				return
			}
			invs <- inv
		}()
	}
	wg.Wait()
	close(invs)
	served := 0
	for inv := range invs {
		served++
		if inv.BatchRequests < 1 || inv.BatchRequests > 8 {
			t.Fatalf("batch of %d outside [1, MaxBatch]", inv.BatchRequests)
		}
		if inv.BatchSize < inv.BatchRequests {
			t.Fatalf("combined batch %d < %d coalesced requests", inv.BatchSize, inv.BatchRequests)
		}
	}
	if served != n {
		t.Fatalf("served %d, want %d", served, n)
	}
	if got := eng.Telemetry().Counter("serve_completed_total"); got != n {
		t.Fatalf("serve_completed_total = %g, want %d", got, n)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAdmissionControl(t *testing.T) {
	// Tiny queue + one worker: a burst must see ErrQueueFull, and
	// accepted + dropped must account for every submission.
	eng, err := NewEngine(testRunners(t), Options{Workers: 1, QueueDepth: 2, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 32
	bench := workload.BySlug("translation")
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				counts["ok"]++
			case errors.Is(err, ErrQueueFull):
				counts["full"]++
			default:
				counts["err"]++
			}
		}()
	}
	wg.Wait()
	if counts["err"] != 0 {
		t.Fatalf("unexpected errors: %+v", counts)
	}
	if counts["ok"]+counts["full"] != n {
		t.Fatalf("lost requests: %+v", counts)
	}
	if counts["full"] != eng.Dropped() {
		t.Fatalf("dropped mismatch: %d callers saw full, engine counted %d",
			counts["full"], eng.Dropped())
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineUnknownPlatformAndClose(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit("TPU", workload.Chatbot(), faas.Options{}); err == nil {
		t.Error("unknown platform must fail")
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Submit("DSCS-Serverless", workload.Chatbot(), faas.Options{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil || p == nil {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := PolicyByName(""); err != nil || p.Name() != "fcfs" {
		t.Errorf("empty name must default to fcfs, got %v, %v", p, err)
	}
	if _, err := PolicyByName("lifo"); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestEnginePoliciesServeEverything(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			policy, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(testRunners(t), Options{Workers: 2, QueueDepth: 64, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				b := workload.Suite()[i%len(workload.Suite())]
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := eng.Submit("Baseline (CPU)", b, faas.Options{Quantile: 0.5}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if err := eng.Conservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEstimateOrdersBenchmarks(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cpu, dscs, accel := eng.estimate(workload.BySlug("chatbot"))
	if cpu <= 0 || dscs <= 0 || cpu <= dscs {
		t.Errorf("estimate(chatbot) cpu=%v dscs=%v: CPU service must dominate", cpu, dscs)
	}
	if accel < 1 {
		t.Errorf("chatbot accel funcs = %d, want >= 1", accel)
	}
}

// TestEstimateCachePerEngine is the regression test for the shared
// estimate cache: a second engine (or a test redefining a benchmark slug)
// must not read another engine's cached pricing for that slug.
func TestEstimateCachePerEngine(t *testing.T) {
	e1, err := NewEngine(testRunners(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e2, err := NewEngine(testRunners(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	cpu1, _, _ := e1.estimate(workload.BySlug("chatbot"))
	// A "redefined" chatbot: the credit-risk models under the chatbot
	// slug. With the old package-level cache e2 would return e1's BERT
	// pricing for it.
	fake := *workload.BySlug("credit-risk")
	fake.Slug = "chatbot"
	cpu2, _, _ := e2.estimate(&fake)
	if cpu2 == cpu1 {
		t.Fatalf("engine 2 served engine 1's cached estimate (%v) for a redefined slug", cpu2)
	}
	// And e1's own cache is undisturbed.
	if again, _, _ := e1.estimate(workload.BySlug("chatbot")); again != cpu1 {
		t.Fatalf("engine 1 estimate changed: %v != %v", again, cpu1)
	}
}
