package sched

import (
	"testing"
	"time"
)

func TestHeadAndRoom(t *testing.T) {
	q, _ := NewHybridQueue(3)
	if _, ok := q.Head(); ok {
		t.Fatal("empty queue has no head")
	}
	if q.Room() != 3 {
		t.Fatalf("room = %d, want 3", q.Room())
	}
	mustSubmit(t, q, task(0, 10), task(1, 20))
	if h, ok := q.Head(); !ok || h.ID != 0 {
		t.Fatalf("head = %+v ok=%v, want task 0", h, ok)
	}
	if q.Room() != 1 {
		t.Fatalf("room = %d, want 1", q.Room())
	}
	mustSubmit(t, q, task(2, 30))
	if q.Room() != 0 {
		t.Fatalf("room = %d at the bound, want 0", q.Room())
	}
}

func TestTakePrefix(t *testing.T) {
	q, _ := NewHybridQueue(10)
	mk := func(id int, payload string) HybridTask {
		return HybridTask{ID: id, Arrived: time.Duration(id) * time.Millisecond, Payload: payload}
	}
	mustSubmit(t, q, mk(0, "a"), mk(1, "a"), mk(2, "b"), mk(3, "a"))

	// The predicate stops the prefix at the first rejection: task 3
	// matches but sits behind the "b" task, so it must stay queued.
	taken := q.TakePrefixInto(nil, 10, func(x HybridTask) bool { return x.Payload == "a" })
	if len(taken) != 2 || taken[0].ID != 0 || taken[1].ID != 1 {
		t.Fatalf("TakePrefixInto took %+v, want tasks 0,1", taken)
	}
	if h, _ := q.Head(); h.ID != 2 {
		t.Fatalf("head after prefix = %d, want 2", h.ID)
	}

	// max caps the pull; a nil predicate accepts everything; the taken
	// tasks append to the caller's buffer.
	if taken = q.TakePrefixInto(taken, 1, nil); len(taken) != 3 || taken[2].ID != 2 {
		t.Fatalf("capped TakePrefixInto gave %+v, want task 2 appended", taken)
	}
	if q.Len() != 1 {
		t.Fatalf("queue kept %d, want 1", q.Len())
	}
	if taken := q.TakePrefixInto(nil, 0, nil); taken != nil {
		t.Fatalf("zero max must take nothing, got %+v", taken)
	}
}

func TestRestoreKeepsArrivalOrder(t *testing.T) {
	q, _ := NewHybridQueue(10)
	mk := func(id int, at time.Duration) HybridTask {
		return HybridTask{ID: id, Arrived: at, Payload: "t"}
	}
	mustSubmit(t, q, mk(0, 0), mk(1, 10*time.Millisecond), mk(3, 30*time.Millisecond))

	// A policy removed the middle-aged task and decided not to run it;
	// Restore must put it back between its neighbors, not at the tail.
	q.Restore(mk(2, 20*time.Millisecond))
	for want := 0; want < 4; want++ {
		got, ok := FCFSPolicy{}.Pick(q, ClassCPU, 0)
		if !ok || got.ID != want {
			t.Fatalf("pick %d: id=%d ok=%v", want, got.ID, ok)
		}
	}

	// Equal arrivals order by ID.
	q.Restore(mk(7, time.Second))
	q.Restore(mk(5, time.Second))
	a, _ := FCFSPolicy{}.Pick(q, ClassCPU, 0)
	b, _ := FCFSPolicy{}.Pick(q, ClassCPU, 0)
	if a.ID != 5 || b.ID != 7 {
		t.Fatalf("equal-arrival restore order: %d, %d, want 5, 7", a.ID, b.ID)
	}
}

// TestRestoreAllRequeue pins the requeue op: an in-flight batch returned
// by a killed worker re-enters by (Arrived, ID) even when younger work
// arrived behind it, the admission bound never drops a requeue, and a
// batch larger than the dead prefix still lands fully ordered.
func TestRestoreAllRequeue(t *testing.T) {
	q, _ := NewHybridQueue(4)
	mk := func(id int, at time.Duration) HybridTask {
		return HybridTask{ID: id, Arrived: at, Payload: "t"}
	}
	mustSubmit(t, q, mk(0, 0), mk(1, 10*time.Millisecond))

	// Tasks 0 and 1 were dispatched together and their worker was killed;
	// meanwhile tasks 2–4 arrived. The requeued batch must slot ahead of
	// everything younger.
	batch := make([]HybridTask, 2)
	q.removeAt(0, &batch[0])
	q.removeAt(0, &batch[1])
	mustSubmit(t, q, mk(2, 20*time.Millisecond), mk(3, 30*time.Millisecond), mk(4, 40*time.Millisecond))
	q.RestoreAll(batch)

	// 5 tasks now live in a queue bounded at 4: requeues bypass admission.
	if q.Len() != 5 {
		t.Fatalf("len = %d after requeue, want 5", q.Len())
	}
	for want := 0; want < 5; want++ {
		got, ok := FCFSPolicy{}.Pick(q, ClassCPU, 0)
		if !ok || got.ID != want {
			t.Fatalf("pick %d: id=%d ok=%v", want, got.ID, ok)
		}
	}
	if q.RestoreAll(nil); q.Len() != 0 {
		t.Fatal("empty requeue must be a no-op")
	}
}

// TestRestoredHeadStillAges pins the steal/restore contract that matters
// for starvation: a task moved between queues keeps its arrival instant,
// so the aging bound fires on the destination exactly as it would have on
// the source.
func TestRestoredHeadStillAges(t *testing.T) {
	q, _ := NewHybridQueue(10)
	old := HybridTask{ID: 0, Arrived: 0, Payload: "old",
		CPUService: 10 * time.Millisecond, DSCSService: 2 * time.Millisecond}
	q.Restore(old) // arrives via a steal, not Submit
	mustSubmit(t, q, HybridTask{ID: 1, Arrived: time.Second, Payload: "short",
		CPUService: time.Millisecond, DSCSService: time.Millisecond})

	now := time.Second // old has waited 1s >> AgingMultiple * 10ms
	got, ok := CriticalityPolicy{}.Pick(q, ClassCPU, now)
	if !ok || got.ID != 0 {
		t.Fatalf("aged restored head must be picked, got id=%d ok=%v", got.ID, ok)
	}
}
