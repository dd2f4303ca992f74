package sched

import (
	"math"
	"testing"
	"time"
)

func task(id int, cpuMS int) HybridTask {
	return HybridTask{
		ID: id, Payload: "t",
		CPUService:  time.Duration(cpuMS) * time.Millisecond,
		DSCSService: time.Duration(cpuMS) * time.Millisecond / 4,
	}
}

func mustSubmit(t *testing.T, q *HybridQueue, tasks ...HybridTask) {
	t.Helper()
	for _, tk := range tasks {
		if !q.Submit(tk) {
			t.Fatalf("task %d rejected", tk.ID)
		}
	}
}

func TestFCFSPickOrder(t *testing.T) {
	q, err := NewHybridQueue(10)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, task(0, 100), task(1, 10), task(2, 500))
	for want := 0; want < 3; want++ {
		got, ok := FCFSPolicy{}.Pick(q, ClassDSCS, 0)
		if !ok || got.ID != want {
			t.Fatalf("pick %d: id=%d ok=%v", want, got.ID, ok)
		}
	}
	if _, ok := (FCFSPolicy{}).Pick(q, ClassCPU, 0); ok {
		t.Fatal("pick from empty queue succeeded")
	}
}

func TestCriticalityRouting(t *testing.T) {
	q, _ := NewHybridQueue(10)
	mustSubmit(t, q, task(0, 10), task(1, 500), task(2, 50))
	// DSCS takes the longest-running task...
	got, _ := CriticalityPolicy{}.Pick(q, ClassDSCS, 0)
	if got.ID != 1 {
		t.Fatalf("DSCS got id=%d", got.ID)
	}
	// ...the CPU the shortest.
	got, _ = CriticalityPolicy{}.Pick(q, ClassCPU, 0)
	if got.ID != 0 {
		t.Fatalf("CPU got id=%d", got.ID)
	}
}

// TestCPUAgingPreventsStarvation is the regression test for the policy
// starvation bug: on a single-class CPU pool (the live engine's layout),
// CriticalityPolicy degenerates to pure shortest-job-first, so a steady
// stream of short requests starves a long one forever. With the arrival-age bound, the long task must be picked
// once its wait exceeds AgingMultiple times its own service estimate.
// Against the pre-fix policies (no agedHead call in Pick) the long task is
// never selected and this test fails.
func TestCPUAgingPreventsStarvation(t *testing.T) {
	for _, p := range []Policy{CriticalityPolicy{}} {
		t.Run(p.Name(), func(t *testing.T) {
			q, err := NewHybridQueue(1000)
			if err != nil {
				t.Fatal(err)
			}
			long := HybridTask{
				ID: 0, Arrived: 0, Payload: "long",
				CPUService: time.Second, DSCSService: 250 * time.Millisecond,
			}
			mustSubmit(t, q, long)
			bound := time.Duration(AgingMultiple) * long.CPUService

			// One short arrival per 100ms tick, one CPU pick per tick —
			// there is always a fresher, shorter task to prefer.
			pickedLongAt := time.Duration(-1)
			for i := 1; i <= 200; i++ {
				now := time.Duration(i) * 100 * time.Millisecond
				mustSubmit(t, q, HybridTask{
					ID: i, Arrived: now, Payload: "short",
					CPUService: 10 * time.Millisecond, DSCSService: 3 * time.Millisecond,
				})
				var got HybridTask
				ok := PickInto(p, q, ClassCPU, now, &got)
				if !ok {
					t.Fatalf("tick %d: nothing picked from a non-empty queue", i)
				}
				if got.ID == 0 {
					pickedLongAt = now
					break
				}
			}
			if pickedLongAt < 0 {
				t.Fatalf("%s: long task starved across 20s of short arrivals", p.Name())
			}
			if pickedLongAt <= bound {
				t.Errorf("%s: long task picked at %v, before its aging bound %v — SJF should still prefer shorts",
					p.Name(), pickedLongAt, bound)
			}
			if limit := bound + time.Second; pickedLongAt > limit {
				t.Errorf("%s: long task picked only at %v, bound was %v", p.Name(), pickedLongAt, bound)
			}
		})
	}
}

// TestDSCSAgingPreventsStarvation is the mirrored case: on the DSCS class
// the estimate-ordered policy prefers the longest task, so short requests
// can starve; the same age bound rescues them.
func TestDSCSAgingPreventsStarvation(t *testing.T) {
	q, _ := NewHybridQueue(1000)
	short := HybridTask{
		ID: 0, Arrived: 0, Payload: "short",
		CPUService: 40 * time.Millisecond, DSCSService: 10 * time.Millisecond,
	}
	mustSubmit(t, q, short)
	picked := false
	for i := 1; i <= 100; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		mustSubmit(t, q, HybridTask{
			ID: i, Arrived: now, Payload: "long",
			CPUService: time.Second, DSCSService: 250 * time.Millisecond,
		})
		got, ok := CriticalityPolicy{}.Pick(q, ClassDSCS, now)
		if !ok {
			t.Fatal("nothing picked")
		}
		if got.ID == 0 {
			picked = true
			break
		}
	}
	if !picked {
		t.Fatal("short task starved on the DSCS class")
	}
}

func TestAgingUsesClassEstimate(t *testing.T) {
	// The bound is per-class: a task whose DSCS estimate is tiny ages out
	// on the DSCS class long before it would on the CPU class.
	tk := HybridTask{ID: 0, CPUService: time.Second, DSCSService: time.Millisecond}
	now := 10 * AgingMultiple * time.Millisecond // >> 8*DSCS, << 8*CPU
	q, _ := NewHybridQueue(4)
	mustSubmit(t, q, tk, task(1, 2000))
	if got, _ := (CriticalityPolicy{}).Pick(q, ClassDSCS, now); got.ID != 0 {
		t.Errorf("DSCS class should age out the head, got id=%d", got.ID)
	}
	q2, _ := NewHybridQueue(4)
	mustSubmit(t, q2, tk, HybridTask{ID: 1, CPUService: time.Millisecond})
	if got, _ := (CriticalityPolicy{}).Pick(q2, ClassCPU, now); got.ID != 1 {
		t.Errorf("CPU class must not age yet, got id=%d", got.ID)
	}
}

func TestHybridQueueBound(t *testing.T) {
	q, _ := NewHybridQueue(2)
	for i := 0; i < 2; i++ {
		if !q.Submit(task(i, 10)) {
			t.Fatalf("submit %d should fit", i)
		}
	}
	if q.Submit(task(9, 10)) {
		t.Fatal("queue bound ignored")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d", q.Dropped())
	}
	if _, err := NewHybridQueue(0); err == nil {
		t.Error("zero queue must fail")
	}
}

func TestTaskServicePerClass(t *testing.T) {
	tk := task(0, 100)
	if tk.Service(ClassCPU) != 100*time.Millisecond || tk.Service(ClassDSCS) != 25*time.Millisecond {
		t.Errorf("Service() = %v/%v", tk.Service(ClassCPU), tk.Service(ClassDSCS))
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{FCFSPolicy{}, CriticalityPolicy{}} {
		if p.Name() == "" || names[p.Name()] {
			t.Errorf("bad policy name %q", p.Name())
		}
		names[p.Name()] = true
	}
	if ClassCPU.String() == ClassDSCS.String() {
		t.Error("classes must render differently")
	}
}

// TestHybridQueueCapacityTracksBacklog pins the storage bound: a deep queue
// (depth 100,000) that never holds more than 64 tasks must keep its backing
// array near twice that backlog. Compacting only when the dead prefix
// reached the depth grew it past 116,000 slots over this run.
func TestHybridQueueCapacityTracksBacklog(t *testing.T) {
	const (
		depth   = 100_000
		backlog = 64
		cycles  = 1_000_000
	)
	q, err := NewHybridQueue(depth)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	submit := func() {
		if !q.Submit(HybridTask{ID: next, Arrived: time.Duration(next)}) {
			t.Fatalf("task %d dropped below the bound", next)
		}
		next++
	}
	for q.Len() < backlog {
		submit()
	}
	var got HybridTask
	var scratch []HybridTask
	want, peak := 0, 0
	for i := 0; i < cycles; i++ {
		if i%1000 == 999 {
			// A steal-shaped drain of the oldest few, then refill.
			scratch = q.TakePrefixInto(scratch[:0], 8, nil)
			for _, tk := range scratch {
				if tk.ID != want {
					t.Fatalf("cycle %d: took %d, want %d", i, tk.ID, want)
				}
				want++
				submit()
			}
		} else {
			if !PickInto(FCFSPolicy{}, q, ClassCPU, 0, &got) || got.ID != want {
				t.Fatalf("cycle %d: picked %d, want %d", i, got.ID, want)
			}
			want++
			submit()
		}
		if q.Len() > backlog {
			t.Fatalf("cycle %d: %d live tasks, want at most %d", i, q.Len(), backlog)
		}
		peak = max(peak, cap(q.tasks))
	}
	if peak > 4*backlog {
		t.Fatalf("backing array peaked at %d slots for a backlog of at most %d (depth %d)", peak, backlog, depth)
	}
	t.Logf("peak capacity %d for a backlog of %d", peak, backlog)
}

// TestHybridQueueCapacityTracksBacklogWaves pins the storage bound while
// the backlog grows: in each wave arrivals outpace FCFS picks four to
// three, so the backlog climbs into the thousands while the head keeps
// advancing, and then the queue drains. The backing array must stay under
// three times the peak backlog (past its first minQueueCap slots) and be
// replaced at most ⌈log1.5(peak/4)⌉ times over all the waves (18 for this
// run's peak of 4003). Growing by append, 1.25x over the dead prefix as
// well as the live window, broke the capacity bound at a peak of 42.
func TestHybridQueueCapacityTracksBacklogWaves(t *testing.T) {
	const (
		depth = 100_000
		waves = 4
		crest = 4000
	)
	q, err := NewHybridQueue(depth)
	if err != nil {
		t.Fatal(err)
	}
	next, want, peak, regrowths := 0, 0, 0, 0
	lastCap := 0
	observe := func() {
		if c := cap(q.tasks); c != lastCap {
			if lastCap > 0 {
				regrowths++
			}
			lastCap = c
		}
		peak = max(peak, q.Len())
		if c := cap(q.tasks); c > minQueueCap && c >= 3*peak {
			t.Fatalf("backing array of %d slots for a peak backlog of %d (live %d, head %d)", c, peak, q.Len(), q.head)
		}
	}
	pick := func() {
		var got HybridTask
		if !PickInto(FCFSPolicy{}, q, ClassCPU, 0, &got) || got.ID != want {
			t.Fatalf("picked %d, want %d", got.ID, want)
		}
		want++
		observe()
	}
	for w := 0; w < waves; w++ {
		for q.Len() < crest {
			for i := 0; i < 4; i++ {
				if !q.Submit(HybridTask{ID: next, Arrived: time.Duration(next)}) {
					t.Fatalf("task %d dropped below the bound", next)
				}
				next++
				observe()
			}
			for i := 0; i < 3; i++ {
				pick()
			}
		}
		for q.Len() > 0 {
			pick()
		}
	}
	if limit := int(math.Ceil(math.Log(float64(peak)/4) / math.Log(1.5))); regrowths > limit {
		t.Fatalf("backing array replaced %d times for a peak backlog of %d, want at most %d", regrowths, peak, limit)
	}
	t.Logf("peak backlog %d, capacity %d, %d regrowths", peak, cap(q.tasks), regrowths)
}
