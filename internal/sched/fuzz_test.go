package sched

import (
	"fmt"
	"testing"
	"time"
)

// FuzzHybridQueueOps decodes a byte stream into queue operations and
// checks the HybridQueue's structural invariants after every step: no task
// is lost or duplicated, the queue stays sorted by (Arrived, ID) so the
// head is always the oldest task, the admission bound only ever drops (it
// never truncates admitted work), and the estimate-ordered policies never
// pass over a head that has aged beyond the sched.AgingMultiple starvation
// bound. Each byte is one op; its high bits parameterize the op.
func FuzzHybridQueueOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Add([]byte("submit-pick-steal-restore"))
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i * 11)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runQueueOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// runQueueOps is the fuzz body, shared with the corpus regression test.
func runQueueOps(data []byte) error {
	const depth = 16
	q, err := NewHybridQueue(depth)
	if err != nil {
		return err
	}
	policies := []Policy{FCFSPolicy{}, CriticalityPolicy{}, DAGAwarePolicy{}}

	present := make(map[int]HybridTask) // queued tasks by ID
	var removed []HybridTask            // picked/taken tasks eligible for Restore
	nextID := 0
	now := time.Duration(0)
	lastDropped := 0

	mkTask := func(b byte) HybridTask {
		t := HybridTask{
			ID:          nextID,
			Arrived:     now,
			Payload:     string(rune('a' + int(b)%3)),
			CPUService:  time.Duration(1+int(b)%7) * 10 * time.Millisecond,
			AccelFuncs:  int(b) % 5,
			DSCSService: time.Duration(1+int(b)%7) * 2 * time.Millisecond,
		}
		nextID++
		return t
	}

	check := func(op string) error {
		if q.Len() != len(present) {
			return fmt.Errorf("%s: queue holds %d tasks, model holds %d", op, q.Len(), len(present))
		}
		if q.Dropped() < lastDropped {
			return fmt.Errorf("%s: dropped count went backwards (%d -> %d)", op, lastDropped, q.Dropped())
		}
		lastDropped = q.Dropped()
		// A task that left the queue must not stay reachable from a slot
		// outside the live window: every such slot is the zero task.
		slots := q.tasks[:cap(q.tasks)]
		for i := range slots {
			if (i < q.head || i >= len(q.tasks)) && slots[i] != (HybridTask{}) {
				return fmt.Errorf("%s: slot %d outside the live window [%d, %d) still holds task %d",
					op, i, q.head, len(q.tasks), slots[i].ID)
			}
		}
		for i, tk := range q.live() {
			model, ok := present[tk.ID]
			if !ok {
				return fmt.Errorf("%s: queue holds unknown task %d", op, tk.ID)
			}
			if model.Arrived != tk.Arrived {
				return fmt.Errorf("%s: task %d arrival mutated", op, tk.ID)
			}
			if i == 0 {
				continue
			}
			prev := q.live()[i-1]
			if prev.Arrived > tk.Arrived || (prev.Arrived == tk.Arrived && prev.ID > tk.ID) {
				return fmt.Errorf("%s: arrival order broken at %d: (%v,%d) before (%v,%d)",
					op, i, prev.Arrived, prev.ID, tk.Arrived, tk.ID)
			}
		}
		return nil
	}

	for _, b := range data {
		now += time.Duration(1+int(b)/16) * 5 * time.Millisecond
		switch b % 6 {
		case 0: // Submit
			tk := mkTask(b)
			wasFull := q.Full()
			if q.Submit(tk) {
				if wasFull {
					return fmt.Errorf("submit: admitted past the bound")
				}
				present[tk.ID] = tk
			} else if !wasFull {
				return fmt.Errorf("submit: dropped below the bound")
			}
		case 1, 2: // policy Pick
			p := policies[int(b/8)%len(policies)]
			class := InstanceClass(int(b/4) % 2)
			head, hadHead := q.Head()
			var got HybridTask
			ok := PickInto(p, q, class, now, &got)
			if !ok {
				if hadHead {
					return fmt.Errorf("pick(%s): nothing from a non-empty queue", p.Name())
				}
				break
			}
			if _, known := present[got.ID]; !known {
				return fmt.Errorf("pick(%s): returned unknown task %d", p.Name(), got.ID)
			}
			// The starvation bound: an aged head is never passed over.
			if hadHead && now-head.Arrived > AgingMultiple*head.Service(class) && got.ID != head.ID {
				return fmt.Errorf("pick(%s/%s): head %d aged %v (service %v) passed over for %d",
					p.Name(), class, head.ID, now-head.Arrived, head.Service(class), got.ID)
			}
			delete(present, got.ID)
			removed = append(removed, got)
		case 3: // TakeWhere (the coalescing extraction)
			payload := string(rune('a' + int(b/8)%3))
			taken := q.TakeWhere(int(b/32)+1, func(x HybridTask) bool { return x.Payload == payload })
			for _, tk := range taken {
				if tk.Payload != payload {
					return fmt.Errorf("takewhere: predicate violated for task %d", tk.ID)
				}
				if _, known := present[tk.ID]; !known {
					return fmt.Errorf("takewhere: unknown task %d", tk.ID)
				}
				delete(present, tk.ID)
				removed = append(removed, tk)
			}
		case 4: // TakePrefixInto (the steal extraction)
			head, hadHead := q.Head()
			taken := q.TakePrefixInto(nil, int(b/32)+1, nil)
			if hadHead && len(taken) > 0 && taken[0].ID != head.ID {
				return fmt.Errorf("takeprefix: first stolen task %d is not the head %d", taken[0].ID, head.ID)
			}
			for _, tk := range taken {
				if _, known := present[tk.ID]; !known {
					return fmt.Errorf("takeprefix: unknown task %d", tk.ID)
				}
				delete(present, tk.ID)
				removed = append(removed, tk)
			}
		case 5: // Restore (an undone pick or an incoming steal)
			if len(removed) == 0 {
				break
			}
			i := int(b/8) % len(removed)
			tk := removed[i]
			removed = append(removed[:i], removed[i+1:]...)
			q.Restore(tk)
			present[tk.ID] = tk
		}
		if err := check(fmt.Sprintf("op %d", b)); err != nil {
			return err
		}
	}
	return nil
}

// TestQueueOpsCorpus replays a deterministic op stream through the fuzz
// body so the invariants run on every plain `go test`, not only under
// -fuzz.
func TestQueueOpsCorpus(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte((i*7 + i/13) % 251)
	}
	if err := runQueueOps(data); err != nil {
		t.Fatal(err)
	}
}
