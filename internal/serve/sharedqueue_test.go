package serve

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dscs/internal/sched"
)

func hybridTask(id int, cpuMS int, accel int) sched.HybridTask {
	return sched.HybridTask{
		ID: id, Payload: "t",
		CPUService:  time.Duration(cpuMS) * time.Millisecond,
		DSCSService: time.Duration(cpuMS) * time.Millisecond / 4,
		AccelFuncs:  accel,
	}
}

// The classic layout as a MultiCore: the DSCS pool owns the one queue and
// the CPU pool drains it too.
const sharedDSCS, sharedCPU = 0, 1

func sharedQueueCore(cpuWorkers, dscsWorkers, queueDepth int, policy sched.Policy) (*MultiCore, error) {
	return NewMultiCore([]PoolSpec{
		{Name: "dscs", Class: sched.ClassDSCS, Workers: dscsWorkers, QueueDepth: queueDepth, Policy: policy},
		{Name: "cpu", Class: sched.ClassCPU, Workers: cpuWorkers, Policy: policy, Backlog: "dscs"},
	})
}

// dispatchShared prefers DSCS capacity (it serves faster), as the cluster
// driver's dispatch order does.
func dispatchShared(m *MultiCore, now time.Duration) (sched.HybridTask, int, bool) {
	for _, pool := range []int{sharedDSCS, sharedCPU} {
		if t, ok := m.Dispatch(pool, now); ok {
			return t, pool, true
		}
	}
	return sched.HybridTask{}, sharedCPU, false
}

func TestSharedQueueFCFSOrder(t *testing.T) {
	h, err := sharedQueueCore(1, 1, 10, sched.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.SubmitTo(sharedDSCS, hybridTask(i, 100, 2))
	}
	// DSCS is preferred and FCFS hands it the head of line.
	got, pool, ok := dispatchShared(h, 0)
	if !ok || got.ID != 0 || pool != sharedDSCS {
		t.Fatalf("first dispatch: id=%d pool=%d ok=%v", got.ID, pool, ok)
	}
	got, pool, _ = dispatchShared(h, 0)
	if got.ID != 1 || pool != sharedCPU {
		t.Fatalf("second dispatch: id=%d pool=%d", got.ID, pool)
	}
	if _, _, ok := dispatchShared(h, 0); ok {
		t.Fatal("no free instances left")
	}
	if err := h.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedQueueCriticalityRouting(t *testing.T) {
	h, _ := sharedQueueCore(1, 1, 10, sched.CriticalityPolicy{})
	h.SubmitTo(sharedDSCS, hybridTask(0, 10, 2))  // short
	h.SubmitTo(sharedDSCS, hybridTask(1, 500, 2)) // long
	h.SubmitTo(sharedDSCS, hybridTask(2, 50, 2))  // medium
	// DSCS takes the longest-running task...
	got, pool, _ := dispatchShared(h, 0)
	if got.ID != 1 || pool != sharedDSCS {
		t.Fatalf("DSCS got id=%d", got.ID)
	}
	// ...the CPU the shortest.
	got, pool, _ = dispatchShared(h, 0)
	if got.ID != 0 || pool != sharedCPU {
		t.Fatalf("CPU got id=%d pool=%d", got.ID, pool)
	}
}

func TestSharedQueueDAGAwareRouting(t *testing.T) {
	h, _ := sharedQueueCore(1, 1, 10, sched.DAGAwarePolicy{})
	h.SubmitTo(sharedDSCS, hybridTask(0, 100, 1))
	h.SubmitTo(sharedDSCS, hybridTask(1, 100, 4)) // deep accelerated chain
	h.SubmitTo(sharedDSCS, hybridTask(2, 100, 2))
	got, pool, _ := dispatchShared(h, 0)
	if got.ID != 1 || pool != sharedDSCS {
		t.Fatalf("DSCS should take the deepest chain, got id=%d", got.ID)
	}
	got, _, _ = dispatchShared(h, 0)
	if got.ID != 0 {
		t.Fatalf("CPU should take the shallowest chain, got id=%d", got.ID)
	}
}

func TestSharedQueueBound(t *testing.T) {
	h, _ := sharedQueueCore(1, 0, 2, sched.FCFSPolicy{})
	for i := 0; i < 2; i++ {
		if !h.SubmitTo(sharedDSCS, hybridTask(i, 10, 1)) {
			t.Fatalf("submit %d should fit", i)
		}
	}
	if h.SubmitTo(sharedDSCS, hybridTask(9, 10, 1)) {
		t.Fatal("queue bound ignored")
	}
	// Both pools see the one queue; the core counts it once.
	if h.Dropped() != 1 || h.QueueLen() != 2 {
		t.Fatalf("dropped = %d, queued = %d, want 1 and 2", h.Dropped(), h.QueueLen())
	}
}

func TestSharedQueueCompleteReleases(t *testing.T) {
	h, _ := sharedQueueCore(2, 1, 10, sched.FCFSPolicy{})
	for i := 0; i < 5; i++ {
		h.SubmitTo(sharedDSCS, hybridTask(i, 10, 1))
	}
	pools := map[int]int{}
	for {
		_, pool, ok := dispatchShared(h, 0)
		if !ok {
			break
		}
		pools[pool]++
	}
	if pools[sharedDSCS] != 1 || pools[sharedCPU] != 2 {
		t.Fatalf("dispatch mix: %v", pools)
	}
	h.Complete(sharedDSCS, 1)
	if _, pool, ok := dispatchShared(h, 0); !ok || pool != sharedDSCS {
		t.Fatal("freed DSCS instance should dispatch next")
	}
	if err := h.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedQueueValidation(t *testing.T) {
	if _, err := sharedQueueCore(0, 0, 10, nil); err == nil {
		t.Error("empty pool must fail")
	}
	if _, err := sharedQueueCore(1, 1, 0, nil); err == nil {
		t.Error("zero queue depth must fail")
	}
	own := func(name string) PoolSpec { return PoolSpec{Name: name, Workers: 1, QueueDepth: 4} }
	drains := func(name, backlog string) PoolSpec { return PoolSpec{Name: name, Workers: 1, Backlog: backlog} }
	for name, specs := range map[string][]PoolSpec{
		"unknown name": {own("a"), drains("b", "nope")},
		"later pool":   {drains("a", "b"), own("b")},
		"self":         {own("a"), drains("b", "b")},
		"chain":        {own("a"), drains("b", "a"), drains("c", "b")},
	} {
		if _, err := NewMultiCore(specs); err == nil || !strings.Contains(err.Error(), "backlog") {
			t.Errorf("%s: Backlog accepted (err = %v)", name, err)
		}
	}
}

// TestSharedQueueConservationAcrossSharers submits on the owner and
// dispatches on the sharer: neither pool's own ledger balances (the owner
// admitted a task it never ran, the sharer ran one it never admitted), the
// core's sum does.
func TestSharedQueueConservationAcrossSharers(t *testing.T) {
	h, err := sharedQueueCore(1, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.SubmitTo(sharedDSCS, hybridTask(0, 10, 1))
	h.SubmitTo(sharedDSCS, hybridTask(1, 10, 1))
	if got, ok := h.Dispatch(sharedCPU, 0); !ok || got.ID != 0 {
		t.Fatalf("sharer dispatch: id=%d ok=%v", got.ID, ok)
	}
	if err := h.Conservation(); err != nil {
		t.Fatalf("mid-flight: %v", err)
	}
	h.Complete(sharedCPU, 1)
	if err := h.Conservation(); err != nil {
		t.Fatal(err)
	}
	if h.QueueLen() != 1 || h.Completed() != 1 || h.Pool(sharedCPU).Completed() != 1 {
		t.Fatalf("queued=%d completed=%d (cpu %d), want 1, 1 (1)",
			h.QueueLen(), h.Completed(), h.Pool(sharedCPU).Completed())
	}
	// Sharers have no backlog of their own to steal.
	if moved := h.Steal(sharedDSCS, sharedCPU, 1); len(moved) != 0 {
		t.Fatalf("steal across one queue moved %d", len(moved))
	}
}

func TestSharedQueueConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		h, _ := sharedQueueCore(2, 2, 6, sched.CriticalityPolicy{})
		id := 0
		inFlight := map[int]int{}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				h.SubmitTo(sharedDSCS, hybridTask(id, int(op)+1, int(op)%4))
				id++
			case 1:
				if _, pool, ok := dispatchShared(h, 0); ok {
					inFlight[pool]++
				}
			case 2:
				for _, pool := range []int{sharedCPU, sharedDSCS} {
					if inFlight[pool] > 0 {
						h.Complete(pool, 1)
						inFlight[pool]--
						break
					}
				}
			}
			if err := h.Conservation(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPoolCoreOverComplete is the regression test for the silent clamp: a
// Complete with no busy worker used to clamp free at total and cancel out
// of the conservation sum; it must now surface as a violation.
func TestPoolCoreOverComplete(t *testing.T) {
	core, err := NewPoolCore(2, 4, sched.ClassCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	core.Submit(sched.HybridTask{ID: 0, Payload: "w"})
	if _, ok := core.Dispatch(0); !ok {
		t.Fatal("dispatch failed")
	}
	core.Complete(1)
	if err := core.Conservation(); err != nil {
		t.Fatalf("legitimate complete flagged: %v", err)
	}
	core.Complete(1) // caller bug: nothing is running
	if core.OverCompleted() != 1 {
		t.Fatalf("overCompleted = %d, want 1", core.OverCompleted())
	}
	if err := core.Conservation(); err == nil {
		t.Fatal("double-complete must violate conservation")
	}
}

func TestSharedQueueOverComplete(t *testing.T) {
	h, _ := sharedQueueCore(1, 1, 10, sched.FCFSPolicy{})
	h.SubmitTo(sharedDSCS, hybridTask(0, 10, 1))
	if _, _, ok := dispatchShared(h, 0); !ok {
		t.Fatal("dispatch failed")
	}
	h.Complete(sharedDSCS, 1)
	if err := h.Conservation(); err != nil {
		t.Fatalf("legitimate complete flagged: %v", err)
	}
	h.Complete(sharedDSCS, 1) // double-complete on the DSCS pool
	if err := h.Conservation(); err == nil {
		t.Fatal("double-complete must violate shared-queue conservation")
	}
}

func TestBatchWindow(t *testing.T) {
	w := NewBatchWindow(100*time.Millisecond, 50*time.Millisecond, 8, 3)
	if !w.Open(120 * time.Millisecond) {
		t.Fatal("window must stay open before the deadline with room left")
	}
	w.Add(5)
	if w.Open(120 * time.Millisecond) {
		t.Fatal("window must close at target")
	}
	w2 := NewBatchWindow(0, 10*time.Millisecond, 8, 1)
	if w2.Open(10 * time.Millisecond) {
		t.Fatal("window must close at the deadline")
	}
	// Zero linger never opens: the deadline is now.
	w3 := NewBatchWindow(time.Second, 0, 8, 1)
	if w3.Open(time.Second) {
		t.Fatal("zero linger must not open a window")
	}
}
