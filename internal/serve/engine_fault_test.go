package serve

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"dscs/internal/csd"
	"dscs/internal/faas"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// testRunnersTwoCPU is testRunners plus a second CPU-class pool, so the
// spill-target scans have a live/dead choice to make.
func testRunnersTwoCPU(t testing.TB) map[string]*faas.Runner {
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
		"Standby (CPU)":   faas.NewRunner(store, platform.BaselineCPU()),
	}
}

// armedSpill arms the DSCS pool's adaptive spill — a warmed wait digest and
// a backlog (the mirror is what the balancer's view reads; workers only ever
// store the true depth over it) — and returns the spill decision as enqueue
// takes it, nil when nothing spills.
func armedSpill(t *testing.T, eng *Engine) func() *pool {
	dscs := eng.pools["DSCS-Serverless"]
	dscs.chargeWaits(eng.opt.EstimateWindow, []time.Duration{50 * time.Millisecond})
	dscs.ingress.syncQueued(1)
	t.Cleanup(func() { dscs.ingress.syncQueued(0) })
	return func() *pool {
		if i, ok := eng.bal.BalanceTarget(dscs.idx, eng.spillEligible); ok {
			return eng.order[i]
		}
		return nil
	}
}

// TestDeadPoolNotSpillTarget is the satellite regression for the idle-pool
// fast path: a dead pool looks exactly like an idle one — empty queue,
// free workers, zero-count digest — and before the health gate it priced
// as "idle, free" and won every spill-target scan by name order. The fix
// checks the health bit before the zero-price shortcut and skips dead
// pools in the scans outright.
func TestDeadPoolNotSpillTarget(t *testing.T) {
	eng, err := NewEngine(testRunnersTwoCPU(t), Options{
		Workers: 1, QueueDepth: 16, AdaptiveBalance: true, EstimateWarmup: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	dscs, base, standby := eng.pools["DSCS-Serverless"], eng.pools["Baseline (CPU)"], eng.pools["Standby (CPU)"]
	spill := armedSpill(t, eng)

	// "Baseline (CPU)" sorts before "Standby (CPU)", so with both priced at
	// zero the scan keeps Baseline. Killing it must hand the choice to the
	// survivor — a dead pool serves nothing, whatever its price.
	if got := spill(); got != base {
		t.Fatalf("adaptive spill target with both CPU pools idle = %v, want Baseline (CPU)", got)
	}
	if err := eng.FailPool("Baseline (CPU)"); err != nil {
		t.Fatal(err)
	}
	if got := spill(); got != standby {
		t.Fatalf("adaptive spill target with Baseline dead = %v, want Standby (CPU)", got)
	}
	// The dead-home reroute skips the dead peer too.
	if err := eng.FailPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	if dg := eng.WaitDigest("DSCS-Serverless"); dg != nil {
		t.Fatalf("the dead DSCS pool kept its wait digest (%d waits)", dg.Count())
	}
	if got := spill(); got != standby {
		t.Fatalf("reroute from a dead DSCS pool with Baseline dead = %v, want Standby (CPU)", got)
	}
	if err := eng.RecoverPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	if dg := eng.WaitDigest("DSCS-Serverless"); dg != nil {
		t.Fatalf("recovery restored the DSCS pool's forgotten wait digest (%d waits)", dg.Count())
	}
	spill = armedSpill(t, eng) // the DSCS pool's death forgot its waits
	// The wait-gap trigger must never route onto a dead peer either.
	if eng.bal.Overloaded(dscs.idx, base.idx) {
		t.Fatal("wait gap latched toward a dead pool")
	}
	if err := eng.RecoverPool("Baseline (CPU)"); err != nil {
		t.Fatal(err)
	}
	if got := spill(); got != base {
		t.Fatalf("adaptive spill target after recovery = %v, want Baseline (CPU)", got)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestNamedSpillTargetDeadFallsBack: a configured SpilloverTo pool takes
// every adaptive spill while it lives; once it is down the spill falls back
// to the CPU class instead of vanishing into a pool that cannot dispatch.
func TestNamedSpillTargetDeadFallsBack(t *testing.T) {
	eng, err := NewEngine(testRunnersTwoCPU(t), Options{
		Workers: 1, QueueDepth: 16, AdaptiveBalance: true, EstimateWarmup: 1,
		SpilloverTo: "Standby (CPU)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base, standby := eng.pools["Baseline (CPU)"], eng.pools["Standby (CPU)"]
	spill := armedSpill(t, eng)
	for _, step := range []struct {
		fail, recover string
		want          *pool
	}{
		{want: standby},
		{fail: standby.name, want: base},
		{recover: standby.name, want: standby},
	} {
		if step.fail != "" {
			if err := eng.FailPool(step.fail); err != nil {
				t.Fatal(err)
			}
		}
		if step.recover != "" {
			if err := eng.RecoverPool(step.recover); err != nil {
				t.Fatal(err)
			}
		}
		if got := spill(); got != step.want {
			t.Fatalf("after fail=%q recover=%q: spill target %v, want %s", step.fail, step.recover, got, step.want.name)
		}
	}
}

// TestEngineRequeueOnPoolDeath drives the tentpole invariant end to end on
// the live engine: a pool killed while a batch is executing must return
// that batch's tasks to its queue (the execution result is void — a killed
// worker delivers nothing), keep the requests in-flight, and deliver each
// exactly once after recovery. Conservation must hold throughout.
func TestEngineRequeueOnPoolDeath(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 16,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			if calls.Add(1) == 1 {
				<-release
			}
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")
	tel := eng.Telemetry()

	done := make(chan Invocation, 1)
	go func() {
		inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
		if err != nil {
			t.Error(err)
			return
		}
		done <- inv
	}()
	waitFor(t, "first request dispatched", func() bool { return dscsBusy(eng) == 1 })

	// Kill the pool mid-execution, then let the doomed execution finish:
	// its completion must requeue, not deliver.
	if err := eng.FailPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitFor(t, "batch requeued", func() bool { return tel.Counter("serve_requeues_total") >= 1 })
	if eng.InFlight() != 1 {
		t.Fatalf("in-flight after requeue = %d, want 1 (the request is still owed a delivery)", eng.InFlight())
	}
	if got := eng.QueueLen("DSCS-Serverless"); got != 1 {
		t.Fatalf("dead pool queue after requeue = %d, want 1", got)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("request delivered by a dead pool")
	case <-time.After(20 * time.Millisecond):
	}

	if err := eng.RecoverPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request not delivered after recovery")
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("serve_faults_total"); got != 1 {
		t.Fatalf("serve_faults_total = %v, want 1", got)
	}
}

// TestEngineStealsFromDeadPool: a dead pool's backlog is rescue work — the
// steal path must pull it regardless of class and with no wait evidence
// (warmup is far out of reach, so only the dead-donor bypass can move
// this work), and submissions landing on a dead pool must wake the
// rescuers. The dead pool is the CPU one: a dead DSCS home reroutes at
// submit time instead, so its submissions never land.
func TestEngineStealsFromDeadPool(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 16, MaxBatch: 1,
		AdaptiveBalance: true, EstimateWarmup: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")
	if err := eng.FailPool("Baseline (CPU)"); err != nil {
		t.Fatal(err)
	}

	done := make(chan Invocation, 3)
	for i := 0; i < 3; i++ {
		go func() {
			inv, err := eng.Submit("Baseline (CPU)", bench, faas.Options{Quantile: 0.5})
			if err != nil {
				t.Error(err)
				return
			}
			done <- inv
		}()
	}
	for i := 0; i < 3; i++ {
		select {
		case inv := <-done:
			if inv.Platform != "DSCS-Serverless" {
				t.Fatalf("rescued request served by %q, want DSCS-Serverless", inv.Platform)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d stranded on the dead pool", i)
		}
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_steal_total{from=Baseline (CPU),to=DSCS-Serverless}"); got != 3 {
		t.Fatalf("rescue steal counter = %v, want 3", got)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRescueSeesDrainInTransit replays, step by step, the
// interleaving behind a rare strand in TestEngineStealsFromDeadPool. A
// submitter staged a request on the dead pool and woke its peers while
// none was parked, so that wakeup was spent; then the dead pool's own
// worker drained the stage into its core. A peer that makes its steal
// scan and pre-park rescue re-check inside that drain — after the entry
// left the stage, before the queued mirror counts it — must still see the
// backlog. If it read the pool as empty it would park, and nothing would
// wake it again.
func TestEngineRescueSeesDrainInTransit(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 16, MaxBatch: 1,
		AdaptiveBalance: true, EstimateWarmup: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cpu, dscs := eng.pools["Baseline (CPU)"], eng.pools["DSCS-Serverless"]
	if err := eng.FailPool(cpu.name); err != nil {
		t.Fatal(err)
	}

	// The submitter's half: stage the request, its peer wakeup spent.
	req := eng.getRequest()
	req.bench, req.opt = workload.BySlug("asset-damage"), faas.Options{Quantile: 0.5}
	eng.inflight.Add(1)
	task := sched.HybridTask{ID: 1, Arrived: eng.now(), Payload: req.bench.Slug, Ref: req}
	if err := cpu.ingress.offer(0, ingressEntry{task: task, req: req}); err != nil {
		t.Fatal(err)
	}
	// The dead pool's worker drains, and the peer checks mid-drain.
	cpu.mu.Lock()
	entries := cpu.ingress.drainInto(cpu.scratch)
	if i, ok := eng.bal.StealDonor(dscs.idx, nil); !ok || eng.order[i] != cpu {
		t.Error("mid-drain steal scan found no donor, want the dead pool")
	}
	dscs.mu.Lock()
	rescue := eng.rescueWaiting(dscs)
	dscs.mu.Unlock()
	if !rescue {
		t.Error("mid-drain rescue re-check read the dead pool's backlog as empty")
	}
	for _, en := range entries {
		if !cpu.core.Submit(en.task) {
			t.Fatal("the dead pool's queue refused the drained entry")
		}
	}
	eng.syncView(cpu)
	cpu.mu.Unlock()

	// Spend the peer wakeup now, so the request is rescued either way.
	eng.wakePeers(cpu, eng.poolDepth(cpu))
	select {
	case out := <-req.done:
		if out.platform != dscs.name {
			t.Errorf("rescued request served by %q, want %q", out.platform, dscs.name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request stranded on the dead pool")
	}
}

// TestEngineHedgedDispatch: an execution outliving HedgeFactor x the
// adopted service-p95 forks a second dispatch on a healthy peer; the first
// completion wins and the loser is discarded.
func TestEngineHedgedDispatch(t *testing.T) {
	release := make(chan struct{})
	dscsRunner := make(chan *faas.Runner, 1)
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 16, HedgeFactor: 1,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			select {
			case dr := <-dscsRunner:
				if dr == r {
					// The primary execution on the DSCS pool hangs — the
					// straggler the hedge exists to cut off.
					<-release
				} else {
					dscsRunner <- dr
				}
			default:
			}
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer close(release)
	dscsRunner <- eng.pools["DSCS-Serverless"].runner
	bench := workload.BySlug("asset-damage")

	inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_ = inv
	tel := eng.Telemetry()
	if got := tel.Counter("serve_hedges_fired_total"); got != 1 {
		t.Fatalf("serve_hedges_fired_total = %v, want 1", got)
	}
	if got := tel.Counter("serve_hedges_won_total"); got != 1 {
		t.Fatalf("serve_hedges_won_total = %v, want 1", got)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineExecutionPanicContained: an execution that panics fails its
// own batch with ErrExecutionPanicked and takes nothing else down — the
// next submission is served, the pool made its one Complete for the failed
// batch, and Conservation holds. The hedged arm runs the primary on its own
// goroutine, where an escaped panic would kill the process outright.
func TestEngineExecutionPanicContained(t *testing.T) {
	for _, hedge := range []float64{0, 1} {
		t.Run(fmt.Sprintf("hedge=%g", hedge), func(t *testing.T) {
			eng, err := NewEngine(testRunners(t), Options{
				Workers: 1, QueueDepth: 16, HedgeFactor: hedge,
				Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
					if b.Slug == "chatbot" {
						panic("model crashed")
					}
					return faas.Result{}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			_, err = eng.Submit("DSCS-Serverless", workload.BySlug("chatbot"), faas.Options{Quantile: 0.5})
			if !errors.Is(err, ErrExecutionPanicked) {
				t.Fatalf("panicking execution returned %v, want ErrExecutionPanicked", err)
			}
			if _, err := eng.Submit("DSCS-Serverless", workload.BySlug("asset-damage"), faas.Options{Quantile: 0.5}); err != nil {
				t.Fatalf("submission after a panic: %v", err)
			}
			if err := eng.Conservation(); err != nil {
				t.Fatal(err)
			}
			if got := eng.Telemetry().Counter("serve_completed_total"); got != 2 {
				t.Fatalf("serve_completed_total = %v, want 2 (the failed batch completes too)", got)
			}
		})
	}
}

// TestEngineFaultScriptValidation: a typo'd fault script fails at
// construction, not silently at fire time — and sub-1 hedge factors are
// rejected (they would fork every request).
func TestEngineFaultScriptValidation(t *testing.T) {
	if _, err := NewEngine(testRunners(t), Options{
		Faults: []trace.FaultEvent{{Kind: trace.FaultPoolDown, Target: "TPU"}},
	}); err == nil {
		t.Error("unknown fault-script pool target must fail construction")
	}
	if _, err := NewEngine(testRunners(t), Options{
		Faults: []trace.FaultEvent{{Kind: trace.FaultDriveDown, Target: "nvme-99"}},
	}); err == nil {
		t.Error("unknown fault-script drive target must fail construction")
	}
	if _, err := NewEngine(testRunners(t), Options{HedgeFactor: 0.5}); err == nil {
		t.Error("HedgeFactor below 1 must fail construction")
	}
}

// TestEngineRejectsNonFiniteHedgeFactor: NaN and +Inf slip past a plain
// "non-zero and below 1" check — NaN compares false and +Inf is not below
// 1 — and would arm a hedge path that never fires. Construction must
// refuse both, as it refuses -Inf.
func TestEngineRejectsNonFiniteHedgeFactor(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if eng, err := NewEngine(testRunners(t), Options{HedgeFactor: f}); err == nil {
			eng.Close()
			t.Errorf("HedgeFactor %g must fail construction", f)
		}
	}
	eng, err := NewEngine(testRunners(t), Options{HedgeFactor: math.MaxFloat64})
	if err != nil {
		t.Fatalf("the largest finite HedgeFactor must construct: %v", err)
	}
	eng.Close()
}

// TestEngineFaultScriptInjection: a scripted pool-down/pool-up pair fires
// on the live clock and the engine keeps serving through it.
func TestEngineFaultScriptInjection(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 16,
		Faults: []trace.FaultEvent{
			{At: 10 * time.Millisecond, Kind: trace.FaultPoolDown, Target: "DSCS-Serverless"},
			{At: 60 * time.Millisecond, Kind: trace.FaultPoolUp, Target: "DSCS-Serverless"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	waitFor(t, "scripted pool-down", func() bool { return !eng.PoolHealthy("DSCS-Serverless") })
	waitFor(t, "scripted pool-up", func() bool { return eng.PoolHealthy("DSCS-Serverless") })
	bench := workload.BySlug("asset-damage")
	if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Telemetry().Counter("serve_faults_total"); got != 1 {
		t.Fatalf("serve_faults_total = %v, want 1", got)
	}
}

// TestEngineFailDrive: a downed drive removes in-storage execution for the
// data it held; the engine serves through it via the runner's conventional
// fallback, and recovery restores the DSCS path.
func TestEngineFailDrive(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, id := range []string{"dscs-0", "dscs-1"} {
		if err := eng.FailDrive(id); err != nil {
			t.Fatal(err)
		}
	}
	bench := workload.BySlug("asset-damage")
	if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatalf("submit with every DSCS drive down: %v", err)
	}
	for _, id := range []string{"dscs-0", "dscs-1"} {
		if err := eng.RecoverDrive(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := eng.FailDrive("nvme-99"); err == nil {
		t.Error("unknown drive must error")
	}
}

// TestEngineFailPoolMidColdStart: an elastic pool killed while slots are
// warming must not let the armed lifecycle timer fire capacity into the
// dead pool — the quench cancels the pending pulls and disarms the timer,
// and a stale time.AfterFunc callback racing the kill is a gated no-op
// (run under -race in CI). Recovery re-warms and serves the queued work.
func TestEngineFailPoolMidColdStart(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Elastic: &scale.Config{
			Mode: scale.ModeReactive, Min: 0, Max: 2,
			ColdStart: 150 * time.Millisecond, IdleLinger: time.Millisecond,
		},
		QueueDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
			t.Error(err)
		}
	}()
	p := eng.pools["DSCS-Serverless"]
	lifecycle := func() (warm, warming int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		lc := p.core.Lifecycle()
		return lc.Warm(), lc.Warming()
	}
	waitFor(t, "cold start underway", func() bool { _, w := lifecycle(); return w > 0 })
	if err := eng.FailPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	// Well past the cancelled pull's readyAt: had the timer survived the
	// kill, the slot would have promoted into the dead pool by now.
	time.Sleep(250 * time.Millisecond)
	if warm, warming := lifecycle(); warm != 0 || warming != 0 {
		t.Fatalf("capacity resurrected into a dead pool: warm=%d warming=%d", warm, warming)
	}
	select {
	case <-done:
		t.Fatal("request served by a dead scaled-to-zero pool")
	default:
	}
	if err := eng.RecoverPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request not served after recovery")
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}
