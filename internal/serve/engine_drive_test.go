package serve

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/platform"
	"dscs/internal/workload"
)

// driveID names the store node whose drive serves bench's input at batch
// on the runner.
func driveID(t *testing.T, r *faas.Runner, bench *workload.Benchmark, batch int) string {
	t.Helper()
	d, ok := r.DriveFor(bench, batch)
	if !ok {
		t.Fatalf("%s at batch %d has no DSCS drive", bench.Slug, batch)
	}
	for _, n := range r.Store.Nodes() {
		if n.CSD == d {
			return n.ID
		}
	}
	t.Fatalf("%s's drive is not in the store", bench.Slug)
	return ""
}

// TestDriveBusyHoldsBatchInQueue is the locality scenario: five
// credit-risk requests whose inputs sit on one drive, then one
// asset-damage request whose input sits on the other, into four DSCS
// workers with 20 ms executions. The busy drive holds its batches back in
// the queue, so the asset-damage request runs on its idle drive at once
// instead of queueing behind workers stuck on the busy one, and each
// credit-risk request's wait for its drive is queue delay: in its
// Invocation.Queued and in the pool's wait digest.
func TestDriveBusyHoldsBatchInQueue(t *testing.T) {
	const service = 20 * time.Millisecond
	runners := testRunners(t)
	dscs := runners["DSCS-Serverless"]
	credit, asset := workload.BySlug("credit-risk"), workload.BySlug("asset-damage")
	if a, b := driveID(t, dscs, credit, 1), driveID(t, dscs, asset, 1); a == b {
		t.Fatalf("credit-risk and asset-damage share drive %s; the scenario needs two", a)
	}
	eng, err := NewEngine(runners, Options{Workers: 4, QueueDepth: 64, MaxBatch: 1,
		Execute: func(*faas.Runner, *workload.Benchmark, faas.Options) (faas.Result, error) {
			time.Sleep(service)
			return faas.Result{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	queued := make(chan time.Duration, 5)
	for i := 0; i < 5; i++ {
		go func() {
			inv, err := eng.Submit("DSCS-Serverless", credit, faas.Options{Quantile: 0.5})
			if err != nil {
				t.Error(err)
			}
			queued <- inv.Queued
		}()
	}
	tel := eng.Telemetry()
	waitFor(t, "credit-risk requests admitted", func() bool {
		return tel.Counter("serve_submitted_total") == 5 && dscsBusy(eng) >= 1
	})
	start := time.Now()
	if _, err := eng.Submit("DSCS-Serverless", asset, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > service*12/10 {
		t.Errorf("asset-damage took %v on an idle drive, want within 1.2 x %v", took, service)
	}

	var waits []time.Duration
	for i := 0; i < 5; i++ {
		waits = append(waits, <-queued)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	// The i-th credit-risk execution starts after i others held the drive
	// for service each; a tenth of slack covers the arrivals' spread.
	for i, w := range waits {
		if min := time.Duration(i) * service * 9 / 10; w < min {
			t.Errorf("credit-risk waits %v: #%d queued %v, want >= %v", waits, i, w, min)
		}
	}
	dg := eng.WaitDigest("DSCS-Serverless")
	if dg.Count() != 6 {
		t.Errorf("wait digest holds %d observations, want one per executed request (6)", dg.Count())
	}
	if got, min := dg.Quantile(1), 4*service*9/10; got < min {
		t.Errorf("wait digest's largest wait %v, want >= %v: the drive wait is queue delay", got, min)
	}
}

// TestDriveFailUnblocksHeldBatch: a batch held back behind a stalled
// execution on its drive runs as soon as that drive fails — it resolves to
// another replica or to the conventional fallback — without waiting for
// the stalled execution.
func TestDriveFailUnblocksHeldBatch(t *testing.T) {
	runners := testRunners(t)
	credit := workload.BySlug("credit-risk")
	id := driveID(t, runners["DSCS-Serverless"], credit, 1)
	gate := newDSCSGate()
	var calls atomic.Int32
	eng, err := NewEngine(runners, Options{Workers: 2, QueueDepth: 64, MaxBatch: 1,
		Execute: func(r *faas.Runner, b *workload.Benchmark, o faas.Options) (faas.Result, error) {
			if calls.Add(1) == 1 {
				return gate.execute(r, b, o)
			}
			return r.Invoke(b, o)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer gate.open()
	tel := eng.Telemetry()
	done := make(chan error, 2)
	submit := func() {
		go func() {
			_, err := eng.Submit("DSCS-Serverless", credit, faas.Options{Quantile: 0.5})
			done <- err
		}()
	}
	submit()
	waitFor(t, "first execution on "+id, func() bool { return tel.Counter("serve_drive_acquired_total{drive="+id+"}") == 1 })
	submit()
	waitFor(t, "second batch held back", func() bool { return tel.Counter("serve_drive_contention_total") == 1 })
	if err := eng.FailDrive(id); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held batch did not run after its drive failed")
	}
	gate.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDriveCloseDrainsHeldBatch: Close with a batch held back behind a
// stalled execution waits for that execution and drains the held batch,
// without hanging.
func TestDriveCloseDrainsHeldBatch(t *testing.T) {
	gate := newDSCSGate()
	eng, err := NewEngine(testRunners(t), Options{Workers: 2, QueueDepth: 64, MaxBatch: 1, Execute: gate.execute})
	if err != nil {
		t.Fatal(err)
	}
	defer gate.open()
	tel := eng.Telemetry()
	credit := workload.BySlug("credit-risk")
	done := make(chan error, 2)
	submit := func() {
		go func() {
			_, err := eng.Submit("DSCS-Serverless", credit, faas.Options{Quantile: 0.5})
			done <- err
		}()
	}
	submit()
	waitFor(t, "first execution on its drive", func() bool { return dscsBusy(eng) == 1 })
	submit()
	waitFor(t, "second batch held back", func() bool { return tel.Counter("serve_drive_contention_total") == 1 })
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with an execution in flight")
	case <-time.After(20 * time.Millisecond):
	}
	gate.open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a held batch queued")
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

// TestDriveHeldBatchFormsOnce: with a batch former attached, a formed
// batch that goes back to the queue for a busy drive counts as formed once,
// when it runs, so serve_batch_formed_total still equals the former's own
// count.
func TestDriveHeldBatchFormsOnce(t *testing.T) {
	gate := newDSCSGate()
	eng, err := NewEngine(testRunners(t), Options{Workers: 2, QueueDepth: 64, MaxBatch: 4,
		BatchLinger: time.Millisecond, Execute: gate.execute})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer gate.open()
	tel := eng.Telemetry()
	credit := workload.BySlug("credit-risk")
	done := make(chan error, 2)
	submit := func() {
		go func() {
			_, err := eng.Submit("DSCS-Serverless", credit, faas.Options{Quantile: 0.5})
			done <- err
		}()
	}
	submit()
	waitFor(t, "first batch on its drive", func() bool { return dscsBusy(eng) == 1 })
	submit()
	waitFor(t, "second batch held back", func() bool { return tel.Counter("serve_drive_contention_total") >= 1 })
	gate.open()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	p := eng.pools["DSCS-Serverless"]
	p.mu.Lock()
	formed := p.core.Former().Formed()
	p.mu.Unlock()
	if got := tel.Counter("serve_batch_formed_total"); got != float64(formed) || formed != 2 {
		t.Errorf("serve_batch_formed_total = %g, former counted %d, want both 2", got, formed)
	}
}

// TestDriveReleaseUnblocksPeerPool: two DSCS pools over one store share
// its drives, so a batch one pool holds back for a drive the other pool's
// execution holds runs when that execution releases it.
func TestDriveReleaseUnblocksPeerPool(t *testing.T) {
	runners := testRunners(t)
	dscs := runners["DSCS-Serverless"]
	runners["DSCS-Peer"] = faas.NewRunner(dscs.Store, dscs.Platform)
	gate := newDSCSGate()
	var calls atomic.Int32
	eng, err := NewEngine(runners, Options{Workers: 2, QueueDepth: 64, MaxBatch: 1,
		Execute: func(r *faas.Runner, b *workload.Benchmark, o faas.Options) (faas.Result, error) {
			if calls.Add(1) == 1 {
				return gate.execute(r, b, o)
			}
			return r.Invoke(b, o)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer gate.open()
	tel := eng.Telemetry()
	credit := workload.BySlug("credit-risk")
	done := make(chan error, 2)
	submit := func(platform string) {
		go func() {
			_, err := eng.Submit(platform, credit, faas.Options{Quantile: 0.5})
			done <- err
		}()
	}
	submit("DSCS-Serverless")
	waitFor(t, "first execution on its drive", func() bool { return dscsBusy(eng) == 1 })
	submit("DSCS-Peer")
	waitFor(t, "peer's batch held back", func() bool { return tel.Counter("serve_drive_contention_total") == 1 })
	gate.open()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the peer pool's held batch did not run after the drive was released")
		}
	}
}

// heldDSCS stages the drive-blocked pool both tests below start from, on a
// balanced engine with two workers per pool whose wait evidence warms only
// after 16 dispatches, so nothing moves by latch while it stages. Both CPU
// workers run an asset-damage request stalled until cpuGate opens. One
// credit-risk request runs stalled on its drive until dscsGate opens, and a
// second is held back in the DSCS queue for that drive: the DSCS pool has a
// free worker and a queue holding only a blocked payload, and the CPU pool
// no free worker to take the held request. submit sends one more request
// in the background.
func heldDSCS(t *testing.T) (eng *Engine, cpuGate, dscsGate *dscsGate, submit func(pool, slug string)) {
	t.Helper()
	cpuGate, dscsGate = newDSCSGate(), newDSCSGate()
	eng, err := NewEngine(testRunners(t), Options{Workers: 2, QueueDepth: 64, MaxBatch: 1,
		AdaptiveBalance: true, EstimateWarmup: 16,
		Execute: func(r *faas.Runner, b *workload.Benchmark, o faas.Options) (faas.Result, error) {
			if r.Platform.Class() != platform.InStorageDSA {
				<-cpuGate.ch
			}
			return dscsGate.execute(r, b, o)
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	t.Cleanup(dscsGate.open)
	t.Cleanup(cpuGate.open)
	submit = func(pool, slug string) {
		go func() {
			if _, err := eng.Submit(pool, workload.BySlug(slug), faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	submit("Baseline (CPU)", "asset-damage")
	submit("Baseline (CPU)", "asset-damage")
	waitFor(t, "both CPU workers busy", func() bool { return poolBusy(eng, "Baseline (CPU)") == 2 })
	submit("DSCS-Serverless", "credit-risk")
	waitFor(t, "first credit-risk request on its drive", func() bool { return dscsBusy(eng) == 1 })
	submit("DSCS-Serverless", "credit-risk")
	waitFor(t, "second credit-risk request held back", func() bool {
		return eng.Telemetry().Counter("serve_drive_contention_total") == 1
	})
	return eng, cpuGate, dscsGate, submit
}

// TestEngineDriveBlockedPoolDoesNotSteal: a DSCS pool whose queue holds
// only payloads held back for their busy drive is no thief, even with a
// free worker and a CPU backlog whose wait gap over it has latched
// (PoolCore.StealBudget). The held requests are its own to run; a steal on
// top of them is a request the pools may hand back and forth.
func TestEngineDriveBlockedPoolDoesNotSteal(t *testing.T) {
	eng, cpuGate, dscsGate, submit := heldDSCS(t)
	tel := eng.Telemetry()
	cpu := eng.pools["Baseline (CPU)"]
	// The CPU pool's wait evidence, warm: its p95 dwarfs the DSCS pool's
	// one near-zero wait, so the CPU-over-DSCS latch trips on the first
	// look.
	waits := make([]time.Duration, 16)
	for i := range waits {
		waits[i] = 50 * time.Millisecond
	}
	cpu.chargeWaits(eng.opt.EstimateWindow, waits)
	submit("Baseline (CPU)", "asset-damage")
	submit("Baseline (CPU)", "asset-damage")
	waitFor(t, "CPU backlog queued", func() bool { return eng.poolDepth(cpu) == 2 })
	// A third credit-risk request joins the held one; its admission wakes
	// the DSCS pool's parked free worker, which re-decides with the CPU
	// backlog latched.
	submit("DSCS-Serverless", "credit-risk")
	waitFor(t, "third credit-risk request queued", func() bool { return eng.poolDepth(eng.pools["DSCS-Serverless"]) == 2 })
	time.Sleep(100 * time.Millisecond)
	if got := tel.Counter("serve_steal_total{from=Baseline (CPU),to=DSCS-Serverless}"); got != 0 {
		t.Errorf("the drive-blocked DSCS pool stole %g CPU requests, want 0", got)
	}
	cpuGate.open()
	dscsGate.open()
	waitFor(t, "every request served", func() bool { return tel.Counter("serve_completed_total") == 7 })
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDriveBlockedRescueParks: the drive-blocked DSCS pool beside a
// dead CPU pool holding a backlog parks instead of spinning on its rescue
// re-check, because the steal and the re-check apply one budget. Once the
// drive is released it runs its own requests and rescues the dead pool's
// backlog: the requests it queued after the death and the two its
// stalled executions hand back.
func TestEngineDriveBlockedRescueParks(t *testing.T) {
	eng, cpuGate, dscsGate, submit := heldDSCS(t)
	tel := eng.Telemetry()
	if err := eng.FailPool("Baseline (CPU)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		submit("Baseline (CPU)", "asset-damage")
	}
	cpuGate.open()
	waitFor(t, "dead pool's backlog queued", func() bool {
		return tel.Counter("serve_requeues_total") == 2 && eng.poolDepth(eng.pools["Baseline (CPU)"]) == 5
	})
	time.Sleep(20 * time.Millisecond)
	dscsGate.open()
	deadline := time.Now().Add(5 * time.Second)
	for tel.Counter("serve_completed_total") < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("%g of 7 requests completed within 5 s of the drive's release", tel.Counter("serve_completed_total"))
		}
		time.Sleep(time.Millisecond)
	}
	if got := tel.Counter("serve_steal_total{from=Baseline (CPU),to=DSCS-Serverless}"); got != 5 {
		t.Errorf("rescue steal counter = %g, want the dead pool's 5", got)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}
