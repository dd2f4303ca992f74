package serve

import (
	"errors"
	"testing"
	"time"

	"dscs/internal/scale"
	"dscs/internal/sched"
)

func arrival(id int, at time.Duration, payload string, svcMS int) sched.HybridTask {
	return sched.HybridTask{
		ID: id, Arrived: at, Payload: payload,
		CPUService:  time.Duration(svcMS) * time.Millisecond,
		DSCSService: time.Duration(svcMS) * time.Millisecond / 4,
	}
}

func TestBatchFormerLingerAndTarget(t *testing.T) {
	f := NewBatchFormer(4, 100*time.Millisecond, 0, sched.ClassCPU)
	f.Observe(arrival(1, 0, "a", 10), 1)
	if f.Ready("a", 50*time.Millisecond) {
		t.Fatal("half-lingered singleton must keep forming")
	}
	if !f.Ready("a", 100*time.Millisecond) {
		t.Fatal("group must release once the oldest member lingered out")
	}
	// Filling to target releases regardless of the clock.
	f.Observe(arrival(2, 10*time.Millisecond, "a", 10), 2)
	f.Observe(arrival(3, 20*time.Millisecond, "a", 10), 1)
	if !f.Ready("a", 30*time.Millisecond) {
		t.Fatal("group at target size must release immediately")
	}
	// Unknown payloads (stolen-in work) are never held.
	if !f.Ready("never-seen", 0) {
		t.Fatal("work without a forming group must not be held")
	}
}

func TestBatchFormerSLOBoundsTheHold(t *testing.T) {
	// 100ms linger, but the member's SLO budget is 40ms with a 10ms
	// service estimate: the group must release by 30ms, not 100ms.
	f := NewBatchFormer(8, 100*time.Millisecond, 40*time.Millisecond, sched.ClassCPU)
	due := f.Observe(arrival(1, 0, "a", 10), 1)
	if due != 30*time.Millisecond {
		t.Fatalf("due = %v, want 30ms (SLO 40ms - service 10ms)", due)
	}
	if f.Ready("a", 29*time.Millisecond) {
		t.Fatal("slack remains at 29ms")
	}
	if !f.Ready("a", 30*time.Millisecond) {
		t.Fatal("slack exhausted at 30ms: the batch must go")
	}
	// A member already out of slack clamps due to its arrival: never held.
	f2 := NewBatchFormer(8, 100*time.Millisecond, 5*time.Millisecond, sched.ClassCPU)
	if due := f2.Observe(arrival(2, time.Second, "b", 10), 1); due != time.Second {
		t.Fatalf("due = %v, want the arrival instant for a no-slack member", due)
	}
}

func TestBatchFormerTightestMemberWins(t *testing.T) {
	f := NewBatchFormer(8, 100*time.Millisecond, 0, sched.ClassCPU)
	f.Observe(arrival(1, 0, "a", 10), 1) // due 100ms
	f.Observe(arrival(2, 20*time.Millisecond, "a", 10), 1)
	if !f.Ready("a", 100*time.Millisecond) {
		t.Fatal("oldest member's linger bounds the whole group")
	}
	if wake, ok := f.NextDue(nil); !ok || wake != 100*time.Millisecond {
		t.Fatalf("NextDue = %v ok=%v, want 100ms", wake, ok)
	}
	// Shed and Drop bookkeeping.
	f.Shed("a", 1)
	if f.Forming() != 1 {
		t.Fatal("partial shed must keep the group")
	}
	f.Shed("a", 1)
	if f.Forming() != 0 {
		t.Fatal("fully shed group must vanish")
	}
	if _, ok := f.NextDue(nil); ok {
		t.Fatal("no groups, no due instant")
	}
}

func TestDispatchFormedHoldsAndReleases(t *testing.T) {
	core, err := NewPoolCore(2, 16, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := NewBatchFormer(3, 50*time.Millisecond, 0, sched.ClassCPU)
	core.AttachFormer(f)

	submit := func(tk sched.HybridTask) {
		if !core.Submit(tk) {
			t.Fatalf("task %d rejected", tk.ID)
		}
		f.Observe(tk, 1)
	}
	submit(arrival(1, 0, "a", 10))

	// Below target, before due: the pick is held and the caller learns
	// when to come back.
	if _, ok, wake, wakeOK := core.DispatchFormed(10 * time.Millisecond); ok || !wakeOK || wake != 50*time.Millisecond {
		t.Fatalf("forming singleton dispatched (ok=%v wake=%v wakeOK=%v)", ok, wake, wakeOK)
	}
	if core.QueueLen() != 1 {
		t.Fatalf("held task left the queue: len=%d", core.QueueLen())
	}

	// Filling to target releases the batch at once.
	submit(arrival(2, 10*time.Millisecond, "a", 10))
	submit(arrival(3, 20*time.Millisecond, "a", 10))
	task, ok, _, _ := core.DispatchFormed(20 * time.Millisecond)
	if !ok || task.ID != 1 {
		t.Fatalf("full group must dispatch its oldest member, got %+v ok=%v", task, ok)
	}
	got := core.Coalesce(2, func(x sched.HybridTask) bool { return x.Payload == "a" })
	if len(got) != 2 {
		t.Fatalf("coalesced %d, want 2", len(got))
	}
	core.Complete(3)

	// A lingered-out group releases at its due instant.
	submit(arrival(4, 30*time.Millisecond, "b", 10))
	if _, ok, _, _ := core.DispatchFormed(40 * time.Millisecond); ok {
		t.Fatal("fresh singleton must form")
	}
	task, ok, _, _ = core.DispatchFormed(80 * time.Millisecond)
	if !ok || task.ID != 4 {
		t.Fatalf("lingered-out singleton must dispatch, got %+v ok=%v", task, ok)
	}
	core.Complete(1)
	if err := core.Conservation(); err != nil {
		t.Fatal(err)
	}
	if f.Formed() != 2 {
		t.Fatalf("formed = %d, want 2", f.Formed())
	}
}

// TestDispatchFormedServesDuePayloadOverPolicyPick: when the policy's
// preference is still forming but another payload's group is due, the due
// group's oldest member dispatches instead of nothing.
func TestDispatchFormedServesDuePayloadOverPolicyPick(t *testing.T) {
	core, err := NewPoolCore(1, 16, sched.ClassCPU, sched.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewBatchFormer(4, 50*time.Millisecond, 0, sched.ClassCPU)
	core.AttachFormer(f)
	submit := func(tk sched.HybridTask) {
		core.Submit(tk)
		f.Observe(tk, 1)
	}
	// "a" is at the head (FCFS pick) but still fresh; "b" arrived earlier
	// on the clock? No — "b" arrives later but with a group already due
	// because "a" keeps re-forming. Stage it directly: an old "b" behind a
	// fresh "a" head cannot happen (arrival order), so instead make "a"
	// fresh and "b" due by observing "b" first.
	submit(arrival(1, 0, "b", 10))
	submit(arrival(2, 45*time.Millisecond, "a", 10))
	// At 50ms: FCFS picks "b" (head) which is due — dispatches. Then at
	// 60ms "a" is not due (due 95ms) and nothing else is ready.
	task, ok, _, _ := core.DispatchFormed(50 * time.Millisecond)
	if !ok || task.Payload != "b" {
		t.Fatalf("due head must dispatch, got %+v ok=%v", task, ok)
	}
	core.Complete(1)
	if _, ok, wake, wakeOK := core.DispatchFormed(60 * time.Millisecond); ok || !wakeOK || wake != 95*time.Millisecond {
		t.Fatalf("fresh group must hold until 95ms (ok=%v wake=%v %v)", ok, wake, wakeOK)
	}
	if err := core.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchFormedDropsStaleGroup: a forming group whose queued members
// all left by another door (an unshed extraction) must be discarded, not
// starve the dispatcher — the next due group still serves.
func TestDispatchFormedDropsStaleGroup(t *testing.T) {
	core, err := NewPoolCore(1, 16, sched.ClassCPU, sched.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewBatchFormer(4, 50*time.Millisecond, 0, sched.ClassCPU)
	core.AttachFormer(f)
	// "b" forms with no queued member (its task was extracted without a
	// shed) and comes due at 50ms; "a" queues later and is still forming.
	f.Observe(arrival(2, 0, "b", 10), 1)
	a := arrival(1, 40*time.Millisecond, "a", 10)
	core.Submit(a)
	f.Observe(a, 1)
	if f.Forming() != 2 {
		t.Fatalf("forming = %d, want 2", f.Forming())
	}
	// At 60ms the pick ("a") is unready; the due-group scan must discard
	// the stale "b" instead of dispatching nothing forever, and report
	// "a"'s due instant as the wake-up.
	_, ok, wake, wakeOK := core.DispatchFormed(60 * time.Millisecond)
	if ok {
		t.Fatal("nothing dispatchable: \"a\" is forming, \"b\" is stale")
	}
	if !wakeOK || wake != 90*time.Millisecond {
		t.Fatalf("wake = %v ok=%v, want 90ms (\"a\" linger deadline)", wake, wakeOK)
	}
	if f.Forming() != 1 {
		t.Fatalf("stale group survived: forming = %d, want 1", f.Forming())
	}
	if err := core.Conservation(); err != nil {
		t.Fatal(err)
	}
	// Drop is also the public escape hatch ("a" is still forming).
	f.Observe(arrival(3, 0, "c", 10), 1)
	f.Drop("c")
	if f.Forming() != 1 {
		t.Fatal("Drop left the group behind")
	}
}

func TestPoolCoreStealFrom(t *testing.T) {
	donor, err := NewPoolCore(1, 16, sched.ClassDSCS, nil)
	if err != nil {
		t.Fatal(err)
	}
	thief, err := NewPoolCore(2, 4, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		donor.Submit(arrival(i, time.Duration(i)*time.Millisecond, "a", 10))
	}

	// The pull takes the donor's oldest work, capped at the thief's room.
	moved := thief.StealFrom(donor, 10)
	if len(moved) != 4 {
		t.Fatalf("stole %d, want 4 (thief queue room)", len(moved))
	}
	if moved[0].ID != 0 || moved[3].ID != 3 {
		t.Fatalf("steal must drain oldest-first, got %d..%d", moved[0].ID, moved[3].ID)
	}
	if donor.QueueLen() != 2 || thief.QueueLen() != 4 {
		t.Fatalf("queues after steal: donor %d thief %d", donor.QueueLen(), thief.QueueLen())
	}

	// Accounting moved with the tasks: both sides stay conserved after
	// serving what they hold.
	for _, pc := range []*PoolCore{thief, donor} {
		for {
			if _, ok := pc.Dispatch(0); !ok {
				break
			}
			pc.Complete(1)
		}
	}
	if err := donor.Conservation(); err != nil {
		t.Fatalf("donor: %v", err)
	}
	if err := thief.Conservation(); err != nil {
		t.Fatalf("thief: %v", err)
	}
	if thief.Completed() != 4 || donor.Completed() != 2 {
		t.Fatalf("completions: thief %d donor %d", thief.Completed(), donor.Completed())
	}

	// Self-steals are no-ops.
	if got := thief.StealFrom(thief, 4); got != nil {
		t.Fatal("self-steal must be a no-op")
	}
}

// TestPoolCoreStealBudget pins the one thief rule both clocks apply: a
// healthy pool with an empty queue takes one batch per free worker, and
// nothing else steals — not a dead pool, not one holding work it cannot
// dispatch yet.
func TestPoolCoreStealBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setup    func(*PoolCore) error
		maxBatch int
		want     int
	}{
		{name: "idle, maxBatch 0 steals one per worker", maxBatch: 0, want: 2},
		{name: "idle, maxBatch 1", maxBatch: 1, want: 2},
		{name: "idle, maxBatch 8", maxBatch: 8, want: 16},
		{name: "one worker busy", maxBatch: 8, want: 8, setup: func(c *PoolCore) error {
			c.Submit(arrival(1, 0, "a", 10))
			if _, ok := c.Dispatch(0); !ok {
				return errors.New("dispatch refused")
			}
			return nil
		}},
		{name: "no free worker", maxBatch: 8, want: 0, setup: func(c *PoolCore) error {
			for i := 0; i < 2; i++ {
				c.Submit(arrival(i, 0, "a", 10))
				if _, ok := c.Dispatch(0); !ok {
					return errors.New("dispatch refused")
				}
			}
			return nil
		}},
		{name: "dead", maxBatch: 8, want: 0, setup: func(c *PoolCore) error {
			c.Fail(0)
			return nil
		}},
		{name: "dispatchable queue", maxBatch: 8, want: 0, setup: func(c *PoolCore) error {
			c.Submit(arrival(1, 0, "a", 10))
			return nil
		}},
		{name: "only blocked payloads queued", maxBatch: 8, want: 0, setup: func(c *PoolCore) error {
			c.Submit(arrival(1, 0, "a", 10))
			c.Block("a")
			if c.Dispatchable() {
				return errors.New("a blocked queue reads dispatchable")
			}
			return nil
		}},
		{name: "elastic pool counts warm workers", maxBatch: 8, want: 8, setup: func(c *PoolCore) error {
			return c.AttachElastic(scale.Config{Mode: scale.ModeReactive, Min: 1, Max: 2, ColdStart: time.Second}, 0)
		}},
	} {
		c, err := NewPoolCore(2, 8, sched.ClassCPU, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.setup != nil {
			if err := tc.setup(c); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got := c.StealBudget(tc.maxBatch); got != tc.want {
			t.Errorf("%s: StealBudget(%d) = %d, want %d", tc.name, tc.maxBatch, got, tc.want)
		}
	}
}

// TestPoolCoreFormerWeight: a pool's former counts each task at the
// owner's model batch (BatchFormer.SetWeight) on every door the core
// drives itself: a steal sheds it from the donor's forming group, and a
// requeue re-observes it, reopening the group its dispatch closed.
func TestPoolCoreFormerWeight(t *testing.T) {
	newPool := func() (*PoolCore, *BatchFormer) {
		c, err := NewPoolCore(1, 8, sched.ClassCPU, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := NewBatchFormer(4, time.Second, 0, sched.ClassCPU)
		f.SetWeight(func(sched.HybridTask) int { return 2 })
		c.AttachFormer(f)
		return c, f
	}
	donor, f := newPool()
	thief, _ := newPool()
	donor.Submit(arrival(1, 0, "a", 10))
	f.Observe(arrival(1, 0, "a", 10), 2)
	if moved := thief.StealFrom(donor, 1); len(moved) != 1 || f.Forming() != 0 {
		t.Fatalf("stole %d, donor former still forms %d groups; want 1 and 0", len(moved), f.Forming())
	}

	c, f := newPool()
	for i := 0; i < 2; i++ {
		c.Submit(arrival(i, 0, "a", 10))
		f.Observe(arrival(i, 0, "a", 10), 2)
	}
	lead, ok, _, _ := c.DispatchFormed(0)
	rest := c.Coalesce(1, func(sched.HybridTask) bool { return true })
	if !ok || len(rest) != 1 || f.Formed() != 1 {
		t.Fatalf("dispatch ok=%v coalesced %d formed %d, want a formed batch of 2", ok, len(rest), f.Formed())
	}
	c.Requeue(append([]sched.HybridTask{lead}, rest...), true)
	if f.Formed() != 0 || !f.Ready("a", 0) {
		t.Fatalf("after the requeue formed %d, ready %v; want 0 and a group of weight 4 ready", f.Formed(), f.Ready("a", 0))
	}
	if _, ok, _, _ := c.DispatchFormed(0); !ok || f.Formed() != 1 {
		t.Fatalf("re-dispatch ok=%v formed %d, want the batch to count once", ok, f.Formed())
	}
}

// formedPayloads are the benchmarks one formed round mixes.
var formedPayloads = [...]string{"a", "b", "c", "d"}

// newFormedPool is a one-worker FCFS pool with a former releasing at a
// target of two.
func newFormedPool(tb testing.TB) *PoolCore {
	tb.Helper()
	core, err := NewPoolCore(1, 64, sched.ClassCPU, nil)
	if err != nil {
		tb.Fatal(err)
	}
	core.AttachFormer(NewBatchFormer(2, time.Second, 0, sched.ClassCPU))
	return core
}

// formedRound submits two arrivals per payload at now, observing each on
// the pool's former, then drains the pool through DispatchFormed: every
// group opens, reaches its target, and releases a batch whose worker takes
// the other member through Coalesce and completes. It returns the number
// of batches dispatched.
func formedRound(core *PoolCore, id *int, now time.Duration) int {
	for range 2 {
		for _, p := range formedPayloads {
			*id++
			if tk := arrival(*id, now, p, 10); core.Submit(tk) {
				core.Former().Observe(tk, 1)
			}
		}
	}
	batches := 0
	for {
		t, ok, _, _ := core.DispatchFormed(now)
		if !ok {
			return batches
		}
		taken := core.Coalesce(1, func(x sched.HybridTask) bool { return x.Payload == t.Payload })
		core.Complete(1 + len(taken))
		batches++
	}
}

// TestDispatchFormedAllocatesNothing pins the former-gated dispatch path
// at zero allocations once the pool is warm: the former keeps its groups
// by value, so opening a group for each payload costs no heap object.
func TestDispatchFormedAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	core := newFormedPool(t)
	id := 0
	now := time.Duration(0)
	formedRound(core, &id, now) // warm the queue, the scratch and the group slice
	allocs := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		if got := formedRound(core, &id, now); got != len(formedPayloads) {
			t.Fatalf("dispatched %d batches, want %d", got, len(formedPayloads))
		}
	})
	if allocs != 0 {
		t.Fatalf("a formed round of %d groups allocated %.2f times, want 0", len(formedPayloads), allocs)
	}
	if f := core.Former(); f.Forming() != 0 || f.Formed() != id/2 {
		t.Fatalf("former left %d groups open and formed %d batches, want 0 and %d", f.Forming(), f.Formed(), id/2)
	}
	if err := core.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDispatchFormed times one formed round: eight arrivals over four
// payloads observed, then four batches formed, coalesced and completed.
func BenchmarkDispatchFormed(b *testing.B) {
	core := newFormedPool(b)
	id := 0
	formedRound(core, &id, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if got := formedRound(core, &id, time.Duration(i)); got != len(formedPayloads) {
			b.Fatalf("dispatched %d batches, want %d", got, len(formedPayloads))
		}
	}
}
