package serve

import (
	"fmt"
	"testing"
	"time"

	"dscs/internal/scale"
	"dscs/internal/sched"
)

func newTestLifecycle(t *testing.T, cfg scale.Config, initial int) *Lifecycle {
	t.Helper()
	lc, err := newLifecycle(cfg, initial, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func TestLifecycleValidation(t *testing.T) {
	bad := []scale.Config{
		{Min: 0, Max: 0},
		{Min: -1, Max: 4},
		{Min: 5, Max: 4},
		{Min: 0, Max: 4, ColdStart: -time.Second},
		{Min: 0, Max: 4, IdleLinger: -time.Second},
	}
	for _, cfg := range bad {
		if _, err := newLifecycle(cfg, 1, 0); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
	// initialWarm clamps into [Min, Max].
	lc := newTestLifecycle(t, scale.Config{Min: 2, Max: 4}, 0)
	if lc.Warm() != 2 {
		t.Errorf("initial warm clamped to %d, want Min=2", lc.Warm())
	}
	lc = newTestLifecycle(t, scale.Config{Min: 0, Max: 4}, 9)
	if lc.Warm() != 4 {
		t.Errorf("initial warm clamped to %d, want Max=4", lc.Warm())
	}
}

// TestLifecycleColdStartThenLinger walks one slot through the full state
// cycle: cold -> warming (paying the penalty) -> warm -> lingering ->
// suspended once the surplus linger expires.
func TestLifecycleColdStartThenLinger(t *testing.T) {
	cfg := scale.Config{Min: 1, Max: 4, ColdStart: 100 * time.Millisecond, IdleLinger: 50 * time.Millisecond}
	lc := newTestLifecycle(t, cfg, 1)

	if got := lc.SetDesired(3, 0); got != 1 {
		t.Fatalf("warm immediately after raise = %d, want 1 (cold start pending)", got)
	}
	if lc.Warming() != 2 || lc.Cold() != 1 {
		t.Fatalf("warming/cold = %d/%d, want 2/1", lc.Warming(), lc.Cold())
	}
	evt, ok := lc.NextEvent()
	if !ok || evt != 100*time.Millisecond {
		t.Fatalf("next event = %v/%v, want warming ready at 100ms", evt, ok)
	}
	// Just before the penalty elapses nothing is ready.
	if lc.advance(99*time.Millisecond, 0); lc.Warm() != 1 {
		t.Fatalf("warm before penalty = %d, want 1", lc.Warm())
	}
	if lc.advance(100*time.Millisecond, 0); lc.Warm() != 3 || lc.ColdStarts() != 2 {
		t.Fatalf("warm/coldStarts after penalty = %d/%d, want 3/2", lc.Warm(), lc.ColdStarts())
	}

	// Shrink back to 1. The slot idle since t=0 already outlived its
	// linger, so it suspends in place; the two freshly warmed slots
	// (idle since 100ms) only suspend when their own lingers expire.
	lc.SetDesired(1, 100*time.Millisecond)
	if lc.Warm() != 2 || lc.Suspends() != 1 {
		t.Fatalf("after shrink: warm=%d suspends=%d, want 2/1", lc.Warm(), lc.Suspends())
	}
	evt, ok = lc.NextEvent()
	if !ok || evt != 150*time.Millisecond {
		t.Fatalf("next event = %v/%v, want linger expiry at 150ms", evt, ok)
	}
	lc.advance(200*time.Millisecond, 0)
	if lc.Warm() != 1 || lc.Suspends() != 2 {
		t.Fatalf("warm/suspends after linger = %d/%d, want 1/2", lc.Warm(), lc.Suspends())
	}
	// The floor holds: desired == Min, so the last slot never suspends.
	if _, ok := lc.NextEvent(); ok {
		t.Error("no event should be pending at the Min floor")
	}
}

// TestLifecycleBusySlotNeverSuspends: a slot reported busy is not idle;
// suspension only parks genuinely idle surplus.
func TestLifecycleBusySlotNeverSuspends(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 2, IdleLinger: 10 * time.Millisecond}
	lc := newTestLifecycle(t, cfg, 2)
	lc.SetDesired(0, 0)
	// Both slots busy: deadlines pass but nothing suspends.
	lc.advance(time.Second, 2)
	if lc.Warm() != 2 || lc.Suspends() != 0 {
		t.Fatalf("busy slots suspended: warm=%d suspends=%d", lc.Warm(), lc.Suspends())
	}
	// One frees up: it lingers from now, then suspends.
	lc.advance(time.Second, 1)
	if lc.Lingering() != 1 {
		t.Fatalf("lingering = %d, want 1", lc.Lingering())
	}
	lc.advance(time.Second+10*time.Millisecond, 1)
	if lc.Warm() != 1 || lc.Suspends() != 1 {
		t.Fatalf("warm/suspends = %d/%d, want 1/1", lc.Warm(), lc.Suspends())
	}
}

// TestLifecycleCancelWarming: a shrink cancels not-yet-ready warming slots
// without charging their cold start.
func TestLifecycleCancelWarming(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 8, ColdStart: 100 * time.Millisecond}
	lc := newTestLifecycle(t, cfg, 0)
	lc.SetDesired(6, 0)
	if lc.Warming() != 6 {
		t.Fatalf("warming = %d, want 6", lc.Warming())
	}
	lc.SetDesired(2, 50*time.Millisecond)
	if lc.Warming() != 2 || lc.Cold() != 6 {
		t.Fatalf("warming/cold after cancel = %d/%d, want 2/6", lc.Warming(), lc.Cold())
	}
	lc.advance(150*time.Millisecond, 0)
	if lc.ColdStarts() != 2 {
		t.Fatalf("cold starts = %d, want 2 (cancelled pulls pay nothing)", lc.ColdStarts())
	}
}

// TestLifecycleLIFOReconcile: when slots become busy, the newest idle
// deadlines release first, so the longest-idle slot keeps aging and
// suspends at its original deadline.
func TestLifecycleLIFOReconcile(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 2, IdleLinger: 100 * time.Millisecond}
	lc := newTestLifecycle(t, cfg, 2)
	lc.SetDesired(1, 0) // surplus of one: deadlines at 100ms armed for both idles
	// At 40ms one slot goes busy: the NEWEST deadline pops; the oldest
	// (armed at t=0, due 100ms) keeps aging.
	lc.advance(40*time.Millisecond, 1)
	if lc.Lingering() != 1 {
		t.Fatalf("lingering = %d, want 1", lc.Lingering())
	}
	evt, ok := lc.NextEvent()
	if !ok || evt != 100*time.Millisecond {
		t.Fatalf("surviving deadline = %v/%v, want the original 100ms", evt, ok)
	}
	lc.advance(100*time.Millisecond, 1)
	if lc.Warm() != 1 || lc.Suspends() != 1 {
		t.Fatalf("warm/suspends = %d/%d, want 1/1", lc.Warm(), lc.Suspends())
	}
}

// TestLifecycleFreeze: Close drain semantics — warming promotes instantly,
// at least one slot stays warm, and nothing ever suspends again.
func TestLifecycleFreeze(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 4, ColdStart: time.Hour, IdleLinger: time.Millisecond}
	lc := newTestLifecycle(t, cfg, 0)
	lc.SetDesired(2, 0)
	lc.Freeze(time.Millisecond)
	if lc.Warm() != 2 || lc.Warming() != 0 || lc.ColdStarts() != 2 {
		t.Fatalf("freeze must promote warming: warm=%d warming=%d coldStarts=%d",
			lc.Warm(), lc.Warming(), lc.ColdStarts())
	}
	lc.SetDesired(0, time.Millisecond)
	lc.advance(time.Hour, 0)
	if lc.Warm() != 2 || lc.Suspends() != 0 {
		t.Fatalf("frozen lifecycle suspended: warm=%d suspends=%d", lc.Warm(), lc.Suspends())
	}

	// Scale-to-zero pool: Freeze resurrects one slot to drain the queue.
	lc2 := newTestLifecycle(t, cfg, 0)
	lc2.Freeze(0)
	if lc2.Warm() != 1 {
		t.Fatalf("frozen empty pool warm = %d, want 1", lc2.Warm())
	}
	if err := lc2.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleIdleCost pins the integral: warm-but-idle worker-time,
// charged segment-wise with the occupancy that held during each interval.
func TestLifecycleIdleCost(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 4}
	lc := newTestLifecycle(t, cfg, 2)
	// [0, 1s]: 2 warm, 0 busy -> 2 slot-seconds.
	lc.advance(time.Second, 1)
	// [1s, 3s]: 2 warm, 1 busy -> 2 slot-seconds.
	lc.advance(3*time.Second, 2)
	// [3s, 4s]: 2 warm, 2 busy -> 0.
	lc.advance(4*time.Second, 2)
	if got, want := lc.IdleCost(), 4*time.Second; got != want {
		t.Fatalf("idle cost = %v, want %v", got, want)
	}
	// A stale caller clock never rewinds the integral.
	lc.advance(2*time.Second, 0)
	if got := lc.IdleCost(); got != 4*time.Second {
		t.Fatalf("stale advance changed the integral: %v", got)
	}
}

// TestLifecycleZeroColdStart: with no penalty, raises take effect in place.
func TestLifecycleZeroColdStart(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 8}
	lc := newTestLifecycle(t, cfg, 0)
	if got := lc.SetDesired(5, 0); got != 5 {
		t.Fatalf("warm after zero-penalty raise = %d, want 5", got)
	}
	if lc.ColdStarts() != 5 || lc.Warming() != 0 {
		t.Fatalf("coldStarts/warming = %d/%d, want 5/0", lc.ColdStarts(), lc.Warming())
	}
}

// TestElasticPoolPropertyHarness model-checks PoolCore with elastic
// capacity attached under randomized schedules that mix scheduling ops
// with suspend/resume traffic (scaleTo raises and drops, long clock
// advances that expire lingers and finish warmings). After every step:
// queue/worker conservation, slot conservation inside the lifecycle, the
// pool's worker count tracking warm capacity exactly, and the aging bound
// on dispatches. The pool starts at Min (one warm slot), and across the
// sequences the ops must both warm and suspend capacity.
func TestElasticPoolPropertyHarness(t *testing.T) {
	coldStarts, suspends := 0, 0
	run := func(ops []propOp) error {
		core, err := NewPoolCore(8, 16, sched.ClassCPU, sched.CriticalityPolicy{})
		if err != nil {
			return err
		}
		if err := core.AttachElastic(scale.Config{
			Mode: scale.ModeReactive, Min: 1, Max: 8,
			ColdStart: 40 * time.Millisecond, IdleLinger: 60 * time.Millisecond,
		}, "pool", 0); err != nil {
			return err
		}
		lc := core.Lifecycle()
		defer func() { coldStarts, suspends = coldStarts+lc.ColdStarts(), suspends+lc.Suspends() }()
		now := time.Duration(0)
		nextID := 0
		dispatched := map[int]bool{}
		var execs []int
		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			core.AdvanceLifecycle(now)
			switch op.kind {
			case 0: // submit
				core.Submit(propTask(nextID, now, op.a))
				nextID++
			case 1: // dispatch
				head, hadHead := core.queue.Head()
				got, ok := core.Dispatch(now)
				if !ok {
					break
				}
				if dispatched[got.ID] {
					return fmt.Errorf("task %d dispatched twice", got.ID)
				}
				dispatched[got.ID] = true
				if err := agedPassedOver(head, hadHead, got, sched.ClassCPU, now); err != nil {
					return err
				}
				execs = append(execs, 1)
			case 2: // coalesce onto the latest execution
				if len(execs) == 0 {
					break
				}
				payload := string(rune('a' + op.a%3))
				taken := core.Coalesce(1+op.a%4, func(x sched.HybridTask) bool { return x.Payload == payload })
				for _, tk := range taken {
					if dispatched[tk.ID] {
						return fmt.Errorf("task %d coalesced after dispatch", tk.ID)
					}
					dispatched[tk.ID] = true
				}
				execs[len(execs)-1] += len(taken)
			case 3: // complete a random open execution
				if len(execs) == 0 {
					break
				}
				i := op.a % len(execs)
				core.Complete(execs[i])
				execs = append(execs[:i], execs[i+1:]...)
			case 4: // advance far: lingers expire, warmings finish
				now += time.Duration(op.a%200) * time.Millisecond
				core.AdvanceLifecycle(now)
			case 5: // autoscaler decision: raise or drop desired capacity
				core.scaleTo(op.a%10, now) // clamped into [Min, Max]
			case 6: // drive the lifecycle alone (a timer tick)
				core.AdvanceLifecycle(now)
			}
			if err := poolInvariants(core); err != nil {
				return err
			}
			if err := lc.checkInvariants(); err != nil {
				return err
			}
			if core.Workers() != lc.Warm() {
				return fmt.Errorf("pool capacity %d diverged from warm %d", core.Workers(), lc.Warm())
			}
			if lc.Warm() < core.Busy() {
				return fmt.Errorf("warm %d below busy %d: a suspended slot was still running",
					lc.Warm(), core.Busy())
			}
		}
		return nil
	}
	checkSequences(t, 4000, 7, run)
	t.Logf("%d cold starts, %d suspends across the sequences", coldStarts, suspends)
	if coldStarts == 0 || suspends == 0 {
		t.Errorf("the ops never exercised the lifecycle: %d cold starts, %d suspends", coldStarts, suspends)
	}
}

// TestAttachElastic pins the one elastic construction: the starting
// capacity per mode, the idle-pool precondition, and that a refused config
// leaves the pool fixed.
func TestAttachElastic(t *testing.T) {
	cfg := scale.Config{Min: 1, Max: 4, ColdStart: time.Second}
	for mode, warm := range map[scale.Mode]int{
		scale.ModeFixed: 4, scale.ModeReactive: 1, scale.ModePredictive: 1,
	} {
		core, err := NewPoolCore(4, 8, sched.ClassCPU, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mode = mode
		if err := core.AttachElastic(cfg, "pool", 0); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if core.Workers() != warm || core.Lifecycle().Warm() != warm || core.Lifecycle().ColdStarts() != 0 {
			t.Errorf("%v starts at %d workers (%d warm), want %d and no cold start",
				mode, core.Workers(), core.Lifecycle().Warm(), warm)
		}
		if core.Autoscaler() == nil {
			t.Errorf("%v: no autoscaler attached", mode)
		}
	}

	busy, err := NewPoolCore(4, 8, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	busy.Submit(sched.HybridTask{ID: 1, Payload: "a"})
	if _, ok := busy.Dispatch(0); !ok {
		t.Fatal("dispatch failed")
	}
	cfg.Mode = scale.ModeReactive
	if err := busy.AttachElastic(cfg, "pool", 0); err == nil || busy.Lifecycle() != nil {
		t.Errorf("a busy pool accepted elastic capacity (err %v)", err)
	}

	for _, bad := range []scale.Config{
		{Mode: scale.ModeReactive, Min: 5, Max: 4},
		{Mode: scale.ModeReactive, Max: 4, IdleLinger: -time.Second},
		{Mode: 9, Max: 4},
	} {
		core, err := NewPoolCore(4, 8, sched.ClassCPU, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.AttachElastic(bad, "pool", 0); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
		if core.Lifecycle() != nil || core.Autoscaler() != nil || core.Workers() != 4 {
			t.Errorf("config %+v left the pool elastic (%d workers)", bad, core.Workers())
		}
	}
}

// TestPoolCoreRescale: a starved reactive pool grows to its backlog on
// Rescale, an unchanged target is a no-op, and a fixed pool never
// rescales.
func TestPoolCoreRescale(t *testing.T) {
	core, err := NewPoolCore(4, 8, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.AttachElastic(scale.Config{Mode: scale.ModeReactive, Min: 1, Max: 4}, "pool", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		core.Submit(sched.HybridTask{ID: i, Payload: "a"})
	}
	if _, ok := core.Dispatch(0); !ok {
		t.Fatal("dispatch failed")
	}
	if !core.Starved() {
		t.Fatal("one busy slot with two queued tasks must be starved")
	}
	// Zero cold start: the raise to busy+queued = 3 promotes in place.
	if !core.Rescale(time.Millisecond, 0) || core.Workers() != 3 {
		t.Fatalf("rescale left %d workers, want 3", core.Workers())
	}
	if core.Starved() || core.Rescale(2*time.Millisecond, 0) {
		t.Error("a pool at its target must neither starve nor rescale")
	}

	fixed, err := NewPoolCore(2, 8, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed.Submit(sched.HybridTask{ID: 1, Payload: "a"})
	fixed.Submit(sched.HybridTask{ID: 2, Payload: "a"})
	fixed.Submit(sched.HybridTask{ID: 3, Payload: "a"})
	fixed.Dispatch(0)
	fixed.Dispatch(0)
	if fixed.Starved() || fixed.Rescale(time.Millisecond, 0) {
		t.Error("a pool without elastic capacity starved or rescaled")
	}
}

// TestLifecycleQuenchCancelsWarming is the regression for a pool dying
// mid-ColdStart: the quench must cancel pending warming slots uncharged —
// before the fix, a timer armed at their readyAt would later fire
// NextEvent into the dead pool and resurrect capacity into a grave — and
// must pin SetDesired so no new cold starts are scheduled while dead.
func TestLifecycleQuenchCancelsWarming(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 4, ColdStart: 100 * time.Millisecond, IdleLinger: 50 * time.Millisecond}
	lc := newTestLifecycle(t, cfg, 0)
	lc.SetDesired(2, 0)
	if lc.Warming() != 2 {
		t.Fatalf("warming = %d, want 2", lc.Warming())
	}
	lc.Quench(50 * time.Millisecond)
	if lc.Warming() != 0 || !lc.Quenched() {
		t.Fatalf("after quench: warming=%d quenched=%v, want 0/true", lc.Warming(), lc.Quenched())
	}
	if at, ok := lc.NextEvent(); ok {
		t.Fatalf("quenched pool armed an event at %v; a dead pool has no self-transitions", at)
	}
	// Past the cancelled pulls' readyAt: nothing may promote, and the
	// aborted pulls pay no cold start.
	lc.advance(200*time.Millisecond, 0)
	if lc.Warm() != 0 || lc.ColdStarts() != 0 {
		t.Fatalf("capacity resurrected into a quenched pool: warm=%d coldStarts=%d", lc.Warm(), lc.ColdStarts())
	}
	// Raising desired while quenched records the target but schedules
	// nothing.
	lc.SetDesired(3, 210*time.Millisecond)
	if lc.Warming() != 0 || lc.Desired() != 3 {
		t.Fatalf("quenched SetDesired: warming=%d desired=%d, want 0/3", lc.Warming(), lc.Desired())
	}
	// Unquench re-warms toward the recorded target, paying the cold
	// starts the fault deferred.
	lc.Unquench(300 * time.Millisecond)
	if lc.Warming() != 3 {
		t.Fatalf("warming after unquench = %d, want 3", lc.Warming())
	}
	lc.advance(400*time.Millisecond, 0)
	if lc.Warm() != 3 || lc.ColdStarts() != 3 {
		t.Fatalf("after recovery warm=%d coldStarts=%d, want 3/3", lc.Warm(), lc.ColdStarts())
	}
	if err := lc.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleQuenchKeepsWarmCapacity: warm slots are the durable half —
// a brown-out disarms their lingers (no suspension fires into a dead
// pool) but never releases them, so recovery resumes at pre-fault size.
func TestLifecycleQuenchKeepsWarmCapacity(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 4, ColdStart: 100 * time.Millisecond, IdleLinger: 50 * time.Millisecond}
	lc := newTestLifecycle(t, cfg, 2)
	lc.advance(0, 0) // both slots idle, lingers armed
	lc.Quench(10 * time.Millisecond)
	if lc.Warm() != 2 || lc.Lingering() != 0 {
		t.Fatalf("after quench: warm=%d lingering=%d, want 2/0", lc.Warm(), lc.Lingering())
	}
	// Far past both linger deadlines: no suspend may fire while quenched.
	lc.advance(500*time.Millisecond, 0)
	if lc.Warm() != 2 || lc.Suspends() != 0 {
		t.Fatalf("quenched pool suspended capacity: warm=%d suspends=%d", lc.Warm(), lc.Suspends())
	}
	lc.Unquench(600 * time.Millisecond)
	if lc.Warm() != 2 {
		t.Fatalf("warm after unquench = %d, want the pre-fault 2", lc.Warm())
	}
}

// TestLifecycleFreezeOutranksQuench: Close drains a dead pool too — the
// freeze clears the quench pin and guarantees a warm slot, so queued work
// leaves instead of stranding behind the fault.
func TestLifecycleFreezeOutranksQuench(t *testing.T) {
	cfg := scale.Config{Min: 0, Max: 4, ColdStart: 100 * time.Millisecond}
	lc := newTestLifecycle(t, cfg, 0)
	lc.SetDesired(2, 0)
	lc.Quench(10 * time.Millisecond)
	lc.Freeze(20 * time.Millisecond)
	if lc.Quenched() {
		t.Fatal("freeze must clear the quench pin: a drain outranks a brown-out")
	}
	if lc.Warm() < 1 {
		t.Fatalf("frozen pool warm = %d, want >= 1 to drain its queue", lc.Warm())
	}
	if at, ok := lc.NextEvent(); ok {
		t.Fatalf("frozen pool armed an event at %v", at)
	}
	if err := lc.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
