package serve

import (
	"testing"
	"testing/quick"
	"time"

	"dscs/internal/sched"
)

func hybridTask(id int, cpuMS int) sched.HybridTask {
	return sched.HybridTask{
		ID: id, Payload: "t",
		CPUService:  time.Duration(cpuMS) * time.Millisecond,
		DSCSService: time.Duration(cpuMS) * time.Millisecond / 4,
	}
}

// The shared-backlog layout as a MultiCore: arrivals land on the DSCS
// pool's backlog, and the CPU pool's free workers serve it through
// DispatchFrom once their own queue is empty.
const sharedDSCS, sharedCPU = 0, 1

func sharedQueueCore(cpuWorkers, dscsWorkers, queueDepth int, policy sched.Policy) (*MultiCore, error) {
	return NewMultiCore([]PoolSpec{
		{Name: "dscs", Class: sched.ClassDSCS, Workers: dscsWorkers, QueueDepth: queueDepth, Policy: policy},
		{Name: "cpu", Class: sched.ClassCPU, Workers: cpuWorkers, QueueDepth: queueDepth, Policy: policy},
	})
}

// dispatchShared prefers DSCS capacity (it serves faster), then lets the
// CPU pool serve its own queue and then the DSCS backlog, as the cluster
// driver's dispatch does.
func dispatchShared(m *MultiCore, now time.Duration) (sched.HybridTask, int, bool) {
	if t, ok := m.Dispatch(sharedDSCS, now); ok {
		return t, sharedDSCS, true
	}
	if t, ok := m.Dispatch(sharedCPU, now); ok {
		return t, sharedCPU, true
	}
	var t sched.HybridTask
	ok := m.DispatchFrom(sharedCPU, sharedDSCS, now, &t)
	return t, sharedCPU, ok
}

func TestSharedQueueFCFSOrder(t *testing.T) {
	h, err := sharedQueueCore(1, 1, 10, sched.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.SubmitTo(sharedDSCS, hybridTask(i, 100))
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
	h.SubmitTo(sharedDSCS, hybridTask(0, 10))  // short
	h.SubmitTo(sharedDSCS, hybridTask(1, 500)) // long
	h.SubmitTo(sharedDSCS, hybridTask(2, 50))  // medium
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

func TestSharedQueueBound(t *testing.T) {
	h, _ := sharedQueueCore(1, 0, 2, sched.FCFSPolicy{})
	for i := 0; i < 2; i++ {
		if !h.SubmitTo(sharedDSCS, hybridTask(i, 10)) {
			t.Fatalf("submit %d should fit", i)
		}
	}
	if h.SubmitTo(sharedDSCS, hybridTask(9, 10)) {
		t.Fatal("queue bound ignored")
	}
	// The CPU pool's own queue stays empty: the core's totals are the
	// backlog's, and the CPU pool drains it whole.
	if h.Dropped() != 1 || h.QueueLen() != 2 {
		t.Fatalf("dropped = %d, queued = %d, want 1 and 2", h.Dropped(), h.QueueLen())
	}
	for i := 0; i < 2; i++ {
		if _, pool, ok := dispatchShared(h, 0); !ok || pool != sharedCPU {
			t.Fatalf("dispatch %d: pool=%d ok=%v, want the CPU pool", i, pool, ok)
		}
		h.Complete(sharedCPU, 1)
	}
	if err := h.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedQueueCompleteReleases(t *testing.T) {
	h, _ := sharedQueueCore(2, 1, 10, sched.FCFSPolicy{})
	for i := 0; i < 5; i++ {
		h.SubmitTo(sharedDSCS, hybridTask(i, 10))
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
}

// TestSharedQueueConservationAcrossSharers submits on the DSCS pool and
// dispatches on the CPU pool: the submission ledger moves with the task,
// so each pool's own ledger balances as well as the core's sum, and a
// dead CPU pool serves nothing from the backlog.
func TestSharedQueueConservationAcrossSharers(t *testing.T) {
	h, err := sharedQueueCore(1, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.SubmitTo(sharedDSCS, hybridTask(0, 10))
	h.SubmitTo(sharedDSCS, hybridTask(1, 10))
	var got sched.HybridTask
	if ok := h.DispatchFrom(sharedCPU, sharedDSCS, 0, &got); !ok || got.ID != 0 {
		t.Fatalf("cross-pool dispatch: id=%d ok=%v", got.ID, ok)
	}
	for i := 0; i < h.Pools(); i++ {
		if err := h.Pool(i).Conservation(); err != nil {
			t.Fatalf("pool %d mid-flight: %v", i, err)
		}
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
	if w := h.WaitWindow(sharedCPU); w == nil || w.Count() != 1 || h.WaitWindow(sharedDSCS) != nil {
		t.Fatal("the wait must be charged to the serving pool")
	}
	h.FailPool(sharedCPU, 0)
	if h.DispatchFrom(sharedCPU, sharedDSCS, 0, &got) {
		t.Fatal("a dead pool served the backlog")
	}
	if h.DispatchFrom(sharedCPU, sharedCPU, 0, &got) {
		t.Fatal("a pool dispatched from itself")
	}
}

// TestDispatchFromShedsDonorFormer: a task served across pools leaves the
// donor's forming group, as a stolen one does.
func TestDispatchFromShedsDonorFormer(t *testing.T) {
	h, err := sharedQueueCore(1, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := NewBatchFormer(4, time.Second, 0, sched.ClassDSCS)
	h.Pool(sharedDSCS).AttachFormer(f)
	task := hybridTask(0, 10)
	h.SubmitTo(sharedDSCS, task)
	f.Observe(task, 1)
	var got sched.HybridTask
	if !h.DispatchFrom(sharedCPU, sharedDSCS, 0, &got) {
		t.Fatal("cross-pool dispatch failed")
	}
	if f.Forming() != 0 {
		t.Fatalf("donor former still forms %d groups", f.Forming())
	}
	if err := h.Conservation(); err != nil {
		t.Fatal(err)
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
				h.SubmitTo(sharedDSCS, hybridTask(id, int(op)+1))
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
	h.SubmitTo(sharedDSCS, hybridTask(0, 10))
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
