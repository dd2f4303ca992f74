package serve

import (
	"fmt"
	"testing"
	"time"

	"dscs/internal/sched"
)

// multiTask is a minimal task arriving at the given instant.
func multiTask(id int, arrived time.Duration) sched.HybridTask {
	return sched.HybridTask{
		ID: id, Arrived: arrived, Payload: "w",
		CPUService: 10 * time.Millisecond, DSCSService: 2 * time.Millisecond,
	}
}

func threePools(t *testing.T, depth int) *MultiCore {
	t.Helper()
	mc, err := NewMultiCore([]PoolSpec{
		{Name: "cpu0", Class: sched.ClassCPU, Workers: 2, QueueDepth: depth},
		{Name: "cpu1", Class: sched.ClassCPU, Workers: 2, QueueDepth: depth},
		{Name: "dscs", Class: sched.ClassDSCS, Workers: 2, QueueDepth: depth},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestMultiCoreValidation(t *testing.T) {
	if _, err := NewMultiCore(nil); err == nil {
		t.Error("empty pool set must fail")
	}
	if _, err := NewMultiCore([]PoolSpec{
		{Name: "a", Workers: 1, QueueDepth: 4},
		{Name: "a", Workers: 1, QueueDepth: 4},
	}); err == nil {
		t.Error("duplicate pool names must fail")
	}
	if _, err := NewMultiCore([]PoolSpec{{Name: "a", Workers: 0, QueueDepth: 4}}); err == nil {
		t.Error("a core with no workers at all must fail")
	}
	// A zero-worker pool is fine as long as a peer can drain it.
	mc, err := NewMultiCore([]PoolSpec{
		{Name: "backlog", Workers: 0, QueueDepth: 4},
		{Name: "drain", Workers: 1, QueueDepth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Index("drain") != 1 || mc.Index("nope") != -1 {
		t.Error("Index lookup broken")
	}
}

// TestMultiCoreStealRebalancesIdlePool is the two-pool hybrid shape: every
// arrival lands on the DSCS backlog, its one worker dispatches first, and
// the idle CPU pool can only get work by stealing — oldest first.
func TestMultiCoreStealRebalancesIdlePool(t *testing.T) {
	const cpu, dscs = 0, 1
	mc, err := NewMultiCore([]PoolSpec{
		{Name: "cpu", Class: sched.ClassCPU, Workers: 2, QueueDepth: 8},
		{Name: "dscs", Class: sched.ClassDSCS, Workers: 1, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !mc.SubmitTo(dscs, multiTask(i, time.Duration(i)*time.Millisecond)) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if task, ok := mc.Dispatch(dscs, 0); !ok || task.ID != 0 {
		t.Fatalf("DSCS dispatch = %+v ok=%v, want task 0", task, ok)
	}
	if _, ok := mc.Dispatch(dscs, 0); ok {
		t.Fatal("the one DSCS worker is busy")
	}
	if _, ok := mc.Dispatch(cpu, 0); ok {
		t.Fatal("CPU must not dispatch from an empty backlog")
	}
	moved := mc.Steal(dscs, cpu, 2)
	if len(moved) != 2 || moved[0].ID != 1 || moved[1].ID != 2 {
		t.Fatalf("steal moved %+v, want tasks 1,2", moved)
	}
	for want := 1; want <= 2; want++ {
		if task, ok := mc.Dispatch(cpu, 0); !ok || task.ID != want {
			t.Fatalf("CPU dispatch = %+v ok=%v, want stolen task %d", task, ok, want)
		}
	}
	mc.Complete(dscs, 1)
	mc.Complete(cpu, 1)
	mc.Complete(cpu, 1)
	if mc.Stolen() != 2 {
		t.Fatalf("Stolen() = %d, want 2", mc.Stolen())
	}
	if err := mc.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCoreWaitChargedToServingPool pins the wait-digest contract: a
// task's arrival instant survives a steal, and its queue delay — arrival to
// dispatch — is charged to the pool that actually served it, not the pool
// that admitted it.
func TestMultiCoreWaitChargedToServingPool(t *testing.T) {
	mc := threePools(t, 8)
	mc.SetWaitTuning(16, 1)

	if !mc.SubmitTo(2, multiTask(1, 0)) { // lands on the dscs backlog at t=0
		t.Fatal("submit dropped")
	}
	if moved := mc.Steal(2, 0, 4); len(moved) != 1 {
		t.Fatalf("stole %d tasks, want 1", len(moved))
	}
	task, ok := mc.Dispatch(0, 10*time.Millisecond)
	if !ok || task.ID != 1 {
		t.Fatalf("dispatch = %+v ok=%v, want task 1", task, ok)
	}
	if dg := mc.WaitDigest(2); dg != nil {
		t.Errorf("donor pool recorded a wait for work it never served (count %d)", dg.Count())
	}
	dg := mc.WaitDigest(0)
	if dg == nil {
		t.Fatal("serving pool recorded no wait")
	}
	if got := dg.Quantile(0.95); got != 10*time.Millisecond {
		t.Errorf("serving pool wait p95 = %v, want 10ms (arrival instant must survive the steal)", got)
	}
	mc.Complete(0, 1)
	if err := mc.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCoreWaitSurvivesBatchForming: a task held by the queue-level
// batch former still measures its wait from the original arrival — the
// forming hold is queue delay — and coalesced batch members record their
// waits too.
func TestMultiCoreWaitSurvivesBatchForming(t *testing.T) {
	mc, err := NewMultiCore([]PoolSpec{
		{Name: "a", Class: sched.ClassCPU, Workers: 1, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	mc.SetWaitTuning(16, 1)
	former := NewBatchFormer(4, 40*time.Millisecond, 0, sched.ClassCPU)
	mc.Pool(0).AttachFormer(former)

	t1 := multiTask(1, 0)
	t2 := multiTask(2, 2*time.Millisecond)
	for _, tk := range []sched.HybridTask{t1, t2} {
		if !mc.SubmitTo(0, tk) {
			t.Fatal("submit dropped")
		}
		former.Observe(tk, 1)
	}
	// Below target and before the linger deadline: the pick is held.
	var task sched.HybridTask
	if ok, _, wakeOK := mc.DispatchFormed(0, 5*time.Millisecond, &task); ok || !wakeOK {
		t.Fatalf("former released a batch early (ok=%v wakeOK=%v)", ok, wakeOK)
	}
	if dg := mc.WaitDigest(0); dg != nil {
		t.Fatalf("held dispatch recorded a wait (count %d)", dg.Count())
	}
	// Past the linger deadline the group releases; the lead's wait spans
	// the whole hold, and the coalesced member's does too.
	now := 50 * time.Millisecond
	if ok, _, _ := mc.DispatchFormed(0, now, &task); !ok {
		t.Fatal("former held past its deadline")
	}
	taken := mc.Coalesce(0, now, 3, func(x sched.HybridTask) bool { return x.Payload == task.Payload })
	if len(taken) != 1 {
		t.Fatalf("coalesced %d, want 1", len(taken))
	}
	dg := mc.WaitDigest(0)
	if dg == nil || dg.Count() != 2 {
		t.Fatalf("wait digest count = %v, want 2", dg)
	}
	if min, max := dg.Quantile(0), dg.Quantile(1); min != 48*time.Millisecond || max != 50*time.Millisecond {
		t.Errorf("recorded waits span [%v, %v], want [48ms, 50ms]", min, max)
	}
	mc.Complete(0, 2)
	if err := mc.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCoreDoubleMoveCountedOnce is the bookkeeping regression test: a
// task that moves twice — spilled onto one pool at submit, then stolen by
// another at drain — must count exactly once in the core-level conservation
// sum. If a move ever double-counted a submission (or dropped one), the
// Conservation check after each step fails.
func TestMultiCoreDoubleMoveCountedOnce(t *testing.T) {
	mc := threePools(t, 8)
	const n = 5
	for i := 0; i < n; i++ {
		// "Spill": the submission targets dscs but lands on cpu0.
		if !mc.SubmitTo(0, multiTask(i, time.Duration(i)*time.Millisecond)) {
			t.Fatal("submit dropped")
		}
		if err := mc.Conservation(); err != nil {
			t.Fatalf("after spill-submit %d: %v", i, err)
		}
	}
	// Second move: cpu1 steals the spilled backlog.
	if moved := mc.Steal(0, 1, n); len(moved) != n {
		t.Fatalf("stole %d, want %d", len(moved), n)
	}
	if err := mc.Conservation(); err != nil {
		t.Fatalf("after steal: %v", err)
	}
	served := 0
	for {
		task, ok := mc.Dispatch(1, 20*time.Millisecond)
		if !ok {
			break
		}
		_ = task
		mc.Complete(1, 1)
		served++
		if err := mc.Conservation(); err != nil {
			t.Fatalf("after serve %d: %v", served, err)
		}
	}
	// Two workers drain the five-task backlog in waves.
	for served < n {
		task, ok := mc.Dispatch(1, 30*time.Millisecond)
		if !ok {
			t.Fatalf("backlog stuck with %d/%d served", served, n)
		}
		_ = task
		mc.Complete(1, 1)
		served++
	}
	if got := mc.Completed(); got != n {
		t.Fatalf("completed %d, want %d — double-moved work must complete exactly once", got, n)
	}
	if mc.Stolen() != n {
		t.Fatalf("stolen = %d, want %d", mc.Stolen(), n)
	}
	if err := mc.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCoreOverloadedHysteresis drives the wait-gap latch through a
// full cycle: quiet pools do not trip it, a warmed diverged donor trips it
// once, and it releases only when the peer's waits catch back up within the
// exit ratio.
func TestMultiCoreOverloadedHysteresis(t *testing.T) {
	mc, err := NewMultiCore([]PoolSpec{
		{Name: "hot", Class: sched.ClassCPU, Workers: 4, QueueDepth: 64},
		{Name: "cold", Class: sched.ClassCPU, Workers: 4, QueueDepth: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	mc.SetWaitTuning(32, 3)

	if mc.Overloaded(0, 1) {
		t.Fatal("un-warmed pools must not trip the latch")
	}
	// Serve three requests on the hot pool, each having queued 80ms; the
	// cold pool has never waited, so any warmed wait diverges above it.
	id := 0
	serveWithWait := func(pool int, wait time.Duration, now time.Duration) {
		t.Helper()
		id++
		if !mc.SubmitTo(pool, multiTask(id, now-wait)) {
			t.Fatal("submit dropped")
		}
		if _, ok := mc.Dispatch(pool, now); !ok {
			t.Fatal("dispatch failed")
		}
		mc.Complete(pool, 1)
	}
	for i := 0; i < 2; i++ {
		serveWithWait(0, 80*time.Millisecond, time.Duration(i+1)*100*time.Millisecond)
		if mc.Overloaded(0, 1) {
			t.Fatalf("latch tripped below warmup (%d observations)", i+1)
		}
	}
	serveWithWait(0, 80*time.Millisecond, 300*time.Millisecond)
	if !mc.Overloaded(0, 1) {
		t.Fatal("warmed 80ms-vs-idle gap must trip the latch")
	}
	if mc.Overloaded(1, 0) {
		t.Fatal("the cold pool must never read as overloaded")
	}
	// The cold pool starts serving comparable waits. While it keeps going
	// idle between requests, it still prices at zero — an idle pool serves
	// moved work immediately, whatever its digest says.
	for i := 0; i < 4; i++ {
		serveWithWait(1, 75*time.Millisecond, time.Duration(i+4)*100*time.Millisecond)
	}
	if !mc.Overloaded(0, 1) {
		t.Fatal("an idle peer prices at zero: the latch must hold while pool 0 still waits")
	}
	// With the peer genuinely loaded (a queued backlog), its recorded
	// waits are what moved work would pay: 80ms vs 75ms is inside the
	// exit band, so the latch releases.
	id++
	if !mc.SubmitTo(1, multiTask(id, time.Second)) {
		t.Fatal("submit dropped")
	}
	if mc.Overloaded(0, 1) {
		t.Fatal("latch must release once the loaded peer's waits converge")
	}
	// The hysteresis state lives in the directed pair's latch (not the
	// digest): exactly one enter and one release across the whole cycle,
	// and the reverse direction's latch never moved.
	if flips := mc.flips(0, 1); flips != 2 {
		t.Fatalf("latch flipped %d times, want exactly 2 (on, then off)", flips)
	}
	if flips := mc.flips(1, 0); flips != 0 {
		t.Fatalf("reverse-direction latch flipped %d times, want 0", flips)
	}
}

// TestMultiCorePairwiseLatchIndependence pins the N-way fix: one donor
// compared against several peers must not share hysteresis state between
// the comparisons. An idle peer adopting the donor's wait outright must
// not arm the latch that a busy peer's comparison reads — before the
// per-pair latches, evaluation order decided whether a 1.3x gap (inside
// the 1.5x entry band) stole.
func TestMultiCorePairwiseLatchIndependence(t *testing.T) {
	mc, err := NewMultiCore([]PoolSpec{
		{Name: "donor", Class: sched.ClassCPU, Workers: 4, QueueDepth: 64},
		{Name: "idle", Class: sched.ClassCPU, Workers: 4, QueueDepth: 64},
		{Name: "busy", Class: sched.ClassCPU, Workers: 1, QueueDepth: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	mc.SetWaitTuning(32, 1)
	id := 0
	serveWithWait := func(pool int, wait, now time.Duration) {
		t.Helper()
		id++
		if !mc.SubmitTo(pool, multiTask(id, now-wait)) {
			t.Fatal("submit dropped")
		}
		if _, ok := mc.Dispatch(pool, now); !ok {
			t.Fatal("dispatch failed")
		}
		mc.Complete(pool, 1)
	}
	// Donor waits 130ms; the busy pool waits 100ms and is left genuinely
	// busy (queued backlog behind its one busy worker) so it prices by
	// its digest: a 1.3x gap, inside the entry band.
	serveWithWait(0, 130*time.Millisecond, 200*time.Millisecond)
	serveWithWait(2, 100*time.Millisecond, 200*time.Millisecond)
	id++
	if !mc.SubmitTo(2, multiTask(id, 200*time.Millisecond)) {
		t.Fatal("submit dropped")
	}
	if _, ok := mc.Dispatch(2, 210*time.Millisecond); !ok {
		t.Fatal("dispatch failed")
	}
	id++
	if !mc.SubmitTo(2, multiTask(id, 220*time.Millisecond)) {
		t.Fatal("submit dropped")
	}

	// Evaluating the idle pair first arms that pair's latch...
	if !mc.Overloaded(0, 1) {
		t.Fatal("donor-vs-idle must latch (any warmed wait beats an idle peer)")
	}
	// ...and the busy pair's comparison must still apply the 1.5x entry
	// band, not the idle pair's armed latch with its 1.2x exit band.
	if mc.Overloaded(0, 2) {
		t.Fatal("a 1.3x gap inside the entry band stole because another pair's latch leaked")
	}
}

// TestMultiCorePropertyHarness extends the PR 3 model-checking harness to
// an N=3 pool set (two same-class CPU pools plus a DSCS pool) with steals
// in every direction — including the wait-keyed StealDonor path — mixed
// into the schedule. After every step: conservation across the pool set,
// per-pool worker bounds, no task dispatched twice even after multiple
// moves, and the sched.AgingMultiple starvation bound on whichever pool
// served the dispatch.
func TestMultiCorePropertyHarness(t *testing.T) {
	const pools = 3
	classes := []sched.InstanceClass{sched.ClassCPU, sched.ClassCPU, sched.ClassDSCS}
	run := func(ops []propOp) error {
		mc, err := NewMultiCore([]PoolSpec{
			{Name: "cpu0", Class: classes[0], Workers: 2, QueueDepth: 8, Policy: sched.CriticalityPolicy{}},
			{Name: "cpu1", Class: classes[1], Workers: 1, QueueDepth: 8, Policy: sched.CriticalityPolicy{}},
			{Name: "dscs", Class: classes[2], Workers: 2, QueueDepth: 8, Policy: sched.CriticalityPolicy{}},
		})
		if err != nil {
			return err
		}
		mc.SetWaitTuning(16, 4)
		now := time.Duration(0)
		nextID := 0
		dispatched := map[int]bool{}
		execs := make([][]int, pools)
		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			switch op.kind {
			case 0: // submit, biased toward the DSCS backlog
				pool := 2
				if op.a%4 == 0 {
					pool = op.a % pools
				}
				mc.SubmitTo(pool, propTask(nextID, now, op.a))
				nextID++
			case 1: // dispatch from a random pool
				pool := op.a % pools
				head, hadHead := mc.Pool(pool).queue.Head()
				got, ok := mc.Dispatch(pool, now)
				if !ok {
					break
				}
				if dispatched[got.ID] {
					return fmt.Errorf("task %d dispatched twice", got.ID)
				}
				dispatched[got.ID] = true
				if err := agedPassedOver(head, hadHead, got, classes[pool], now); err != nil {
					return err
				}
				if w := now - got.Arrived; w < 0 {
					return fmt.Errorf("task %d dispatched before it arrived (wait %v)", got.ID, w)
				}
				execs[pool] = append(execs[pool], 1)
			case 2: // coalesce onto the pool's latest execution
				pool := op.b % pools
				if len(execs[pool]) == 0 {
					break
				}
				payload := string(rune('a' + op.a%3))
				taken := mc.Coalesce(pool, now, 1+op.a%4, func(x sched.HybridTask) bool { return x.Payload == payload })
				for _, tk := range taken {
					if dispatched[tk.ID] {
						return fmt.Errorf("task %d coalesced after dispatch", tk.ID)
					}
					dispatched[tk.ID] = true
				}
				execs[pool][len(execs[pool])-1] += len(taken)
			case 3: // complete a random execution of a random pool
				pool := op.b % pools
				if len(execs[pool]) == 0 {
					break
				}
				i := op.a % len(execs[pool])
				mc.Complete(pool, execs[pool][i])
				execs[pool] = append(execs[pool][:i], execs[pool][i+1:]...)
			case 4: // advance the clock a long way (ages heads, warms latches)
				now += time.Duration(op.a%2000) * time.Millisecond
			case 5: // steal in a random direction (N-way: same class included)
				from := op.a % pools
				to := op.b % pools
				moved := mc.Steal(from, to, 1+op.a%4)
				for _, tk := range moved {
					if dispatched[tk.ID] {
						return fmt.Errorf("task %d stolen after dispatch", tk.ID)
					}
				}
			case 6: // wait-keyed steal: whatever the latch picks must hold up
				to := op.b % pools
				if from, ok := mc.StealDonor(to, nil); ok {
					moved := mc.Steal(from, to, 1+op.a%4)
					for _, tk := range moved {
						if dispatched[tk.ID] {
							return fmt.Errorf("task %d balance-stolen after dispatch", tk.ID)
						}
					}
				}
			}
			if err := mc.Conservation(); err != nil {
				return err
			}
			for i := 0; i < pools; i++ {
				pc := mc.Pool(i)
				if pc.Busy() < 0 || pc.Busy() > pc.Workers() {
					return fmt.Errorf("pool %d busy %d outside [0, %d]", i, pc.Busy(), pc.Workers())
				}
				if pc.Running() < 0 {
					return fmt.Errorf("pool %d running negative", i)
				}
			}
		}
		return nil
	}
	checkSequences(t, 4000, 7, run)
}

// TestMultiCoreChaosPropertyHarness is the failure-model extension of the
// harness above: the same N=3 pool set with randomized kill/recover
// interleavings mixed into the schedule. A kill requeues every open
// execution of the dying pool (the in-flight work its workers were
// holding), so the harness checks the at-most-once accounting the requeue
// path promises: Conservation across the pool set, per-pool worker bounds,
// no task dispatched twice within one life, and the aged-head starvation
// bound — after every single step, dead pools included.
func TestMultiCoreChaosPropertyHarness(t *testing.T) {
	const pools = 3
	classes := []sched.InstanceClass{sched.ClassCPU, sched.ClassCPU, sched.ClassDSCS}
	run := func(ops []propOp) error {
		mc, err := NewMultiCore([]PoolSpec{
			{Name: "cpu0", Class: classes[0], Workers: 2, QueueDepth: 8, Policy: sched.CriticalityPolicy{}},
			{Name: "cpu1", Class: classes[1], Workers: 1, QueueDepth: 8, Policy: sched.CriticalityPolicy{}},
			{Name: "dscs", Class: classes[2], Workers: 2, QueueDepth: 8, Policy: sched.CriticalityPolicy{}},
		})
		if err != nil {
			return err
		}
		mc.SetWaitTuning(16, 4)
		now := time.Duration(0)
		nextID := 0
		dispatched := map[int]bool{}
		// Open executions carry their task slices: a kill must hand the
		// exact in-flight tasks back to the queue, one worker per exec.
		execs := make([][][]sched.HybridTask, pools)
		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			switch op.kind {
			case 0: // submit, biased toward the DSCS backlog
				pool := 2
				if op.a%4 == 0 {
					pool = op.a % pools
				}
				mc.SubmitTo(pool, propTask(nextID, now, op.a))
				nextID++
			case 1: // dispatch from a random pool (a no-op on a dead one)
				pool := op.a % pools
				head, hadHead := mc.Pool(pool).queue.Head()
				got, ok := mc.Dispatch(pool, now)
				if !ok {
					if !mc.Healthy(pool) && mc.Pool(pool).QueueLen() > 0 {
						break // a dead pool must refuse, backlog or not
					}
					break
				}
				if !mc.Healthy(pool) {
					return fmt.Errorf("dead pool %d dispatched task %d", pool, got.ID)
				}
				if dispatched[got.ID] {
					return fmt.Errorf("task %d dispatched twice", got.ID)
				}
				dispatched[got.ID] = true
				if err := agedPassedOver(head, hadHead, got, classes[pool], now); err != nil {
					return err
				}
				execs[pool] = append(execs[pool], []sched.HybridTask{got})
			case 2: // coalesce onto the pool's latest execution
				pool := op.b % pools
				if len(execs[pool]) == 0 {
					break
				}
				payload := string(rune('a' + op.a%3))
				taken := mc.Coalesce(pool, now, 1+op.a%4, func(x sched.HybridTask) bool { return x.Payload == payload })
				for _, tk := range taken {
					if dispatched[tk.ID] {
						return fmt.Errorf("task %d coalesced after dispatch", tk.ID)
					}
					dispatched[tk.ID] = true
				}
				last := len(execs[pool]) - 1
				execs[pool][last] = append(execs[pool][last], taken...)
			case 3: // complete a random execution of a random pool
				pool := op.b % pools
				if len(execs[pool]) == 0 {
					break
				}
				i := op.a % len(execs[pool])
				mc.Complete(pool, len(execs[pool][i]))
				execs[pool] = append(execs[pool][:i], execs[pool][i+1:]...)
			case 4: // advance the clock a long way (ages heads, warms latches)
				now += time.Duration(op.a%2000) * time.Millisecond
			case 5: // steal in a random direction (dead donors are fair game)
				from := op.a % pools
				to := op.b % pools
				moved := mc.Steal(from, to, 1+op.a%4)
				if len(moved) > 0 && !mc.Healthy(to) {
					return fmt.Errorf("dead pool %d stole %d tasks", to, len(moved))
				}
				for _, tk := range moved {
					if dispatched[tk.ID] {
						return fmt.Errorf("task %d stolen after dispatch", tk.ID)
					}
				}
			case 6: // kill a pool: every open execution requeues exactly once
				pool := op.a % pools
				if !mc.Healthy(pool) {
					break
				}
				mc.FailPool(pool, now)
				for _, tasks := range execs[pool] {
					mc.Requeue(pool, tasks)
					for _, tk := range tasks {
						// Requeued work gets a second dispatch in its next
						// life; the at-most-once check tracks per life.
						delete(dispatched, tk.ID)
					}
				}
				execs[pool] = execs[pool][:0]
			case 7: // recover a pool
				pool := op.a % pools
				mc.RecoverPool(pool, now)
			}
			if err := mc.Conservation(); err != nil {
				return err
			}
			for i := 0; i < pools; i++ {
				pc := mc.Pool(i)
				if pc.Busy() < 0 || pc.Busy() > pc.Workers() {
					return fmt.Errorf("pool %d busy %d outside [0, %d]", i, pc.Busy(), pc.Workers())
				}
				if pc.Running() < 0 {
					return fmt.Errorf("pool %d running negative", i)
				}
			}
		}
		return nil
	}
	checkSequences(t, 4000, 8, run)
}

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// TestStealAllocatesNothing pins the rebalancing pull at zero allocations:
// the moved tasks come back in the thief's reused scratch.
func TestStealAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	donor, err := NewPoolCore(1, 64, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	thief, err := NewPoolCore(8, 64, sched.ClassDSCS, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			id++
			donor.Submit(multiTask(id, time.Duration(id)))
		}
		moved := thief.StealFrom(donor, 8)
		if len(moved) != 8 {
			t.Fatalf("stole %d of 8", len(moved))
		}
		for range moved {
			if _, ok := thief.Dispatch(0); ok {
				thief.Complete(1)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("StealFrom allocated %.2f per steal, want 0", allocs)
	}
	if err := thief.Conservation(); err != nil {
		t.Fatal(err)
	}
}
