// property_test.go is the scheduling core's model-checking harness: it
// drives randomized Submit/Dispatch/Coalesce/Steal/Complete/Block
// sequences against PoolCore, plain and former-gated (MultiCore's harnesses, with
// cross-pool dispatch, are in multicore_test.go and sharedqueue_test.go), and
// after every single step asserts the invariants future refactors must
// preserve — Conservation, worker counts inside [0, Workers], no task
// dispatched twice, no blocked payload dispatched, and the
// sched.AgingMultiple starvation bound (an aged queue head is never passed
// over by a dispatch that could serve it).
// Sequences are seeded and a failure is shrunk greedily to a minimal op
// trace before being dumped, so a red run prints a replayable recipe.
package serve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/sched"
)

// propSeed anchors every randomized sequence; change it only on purpose.
const propSeed = 0x5eed

// propOp is one step of a random schedule: kind indexes the harness's own
// op names, and a and b are its arguments.
type propOp struct {
	kind int
	a, b int
}

// formatOps renders a trace with the harness's op names, so a dump reads
// the way the harness's switch does.
func formatOps(ops []propOp, names []string) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, o := range ops {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s(%d,%d)", names[o.kind], o.a, o.b)
	}
	b.WriteByte(']')
	return b.String()
}

// genOps draws one op sequence from the given stream.
func genOps(rng *rand.Rand, kinds int) []propOp {
	n := 30 + rng.Intn(90)
	ops := make([]propOp, n)
	for i := range ops {
		ops[i] = propOp{kind: rng.Intn(kinds), a: rng.Intn(1 << 16), b: rng.Intn(1 << 16)}
	}
	return ops
}

// shrink greedily removes ops while the sequence still fails, returning a
// (locally) minimal failing trace and its error.
func shrink(ops []propOp, run func([]propOp) error) ([]propOp, error) {
	err := run(ops)
	if err == nil {
		return ops, nil
	}
	for removed := true; removed; {
		removed = false
		for i := 0; i < len(ops); i++ {
			candidate := append(append([]propOp(nil), ops[:i]...), ops[i+1:]...)
			if e := run(candidate); e != nil {
				ops, err, removed = candidate, e, true
				break
			}
		}
	}
	return ops, err
}

// checkSequences runs count seeded sequences through run, shrinking and
// dumping the first failure. names are the harness's ops, by kind: the
// sequences draw len(names) kinds.
func checkSequences(t *testing.T, count int, names []string, run func([]propOp) error) {
	t.Helper()
	for i := 0; i < count; i++ {
		rng := rand.New(rand.NewSource(propSeed + int64(i)))
		ops := genOps(rng, len(names))
		if err := run(ops); err != nil {
			minimal, merr := shrink(ops, run)
			t.Fatalf("sequence %d (seed %#x) violated an invariant: %v\nminimal trace (%d ops): %s",
				i, propSeed+int64(i), merr, len(minimal), formatOps(minimal, names))
		}
	}
}

// propTask derives a task from op arguments: three payload classes, a
// spread of service estimates, arrivals on the harness clock.
func propTask(id int, now time.Duration, arg int) sched.HybridTask {
	return sched.HybridTask{
		ID: id, Arrived: now,
		Payload:     string(rune('a' + arg%3)),
		CPUService:  time.Duration(1+arg%9) * 10 * time.Millisecond,
		DSCSService: time.Duration(1+arg%9) * 2 * time.Millisecond,
	}
}

// agedPassedOver is the starvation-bound assertion: head was the queue's
// oldest task before a successful dispatch on class; if its wait exceeded
// the aging bound, the dispatch must have taken it.
func agedPassedOver(head sched.HybridTask, hadHead bool, got sched.HybridTask,
	class sched.InstanceClass, now time.Duration) error {
	if !hadHead {
		return nil
	}
	if now-head.Arrived > sched.AgingMultiple*head.Service(class) && got.ID != head.ID {
		return fmt.Errorf("starvation bound: head %d aged %v (service %v on %s) passed over for %d",
			head.ID, now-head.Arrived, head.Service(class), class, got.ID)
	}
	return nil
}

// blockModel is a harness's own record of the payloads it blocked on one
// core, kept apart from the core's so the assertions do not read back the
// state under test.
type blockModel map[string]bool

// apply runs a harness's block op (a payload drawn from arg) or, when
// block is false, its unblock op on c.
func (m blockModel) apply(c *PoolCore, block bool, arg int) {
	if !block {
		clear(m)
		c.Unblock()
		return
	}
	payload := string(rune('a' + arg%3))
	m[payload] = true
	c.Block(payload)
}

// canDispatch is what a dispatch on c must do by the blocking contract:
// run a task exactly when a slot is free, the pool is alive and some
// queued payload is not blocked.
func (m blockModel) canDispatch(c *PoolCore) bool {
	return c.Busy() < c.Workers() && c.Healthy() && m.runnable(c)
}

// runnable reports whether c queues a task the model has not blocked.
func (m blockModel) runnable(c *PoolCore) bool {
	return c.queue.Any(func(x sched.HybridTask) bool { return !m[x.Payload] })
}

// check asserts one dispatch against the blocking contract: a blocked
// payload never leaves, and the dispatch reports nothing exactly when
// want (canDispatch, read before it) is false — or, through the former's
// door, when held: a forming group holds the work back.
func (m blockModel) check(want bool, got sched.HybridTask, ok, held bool) error {
	switch {
	case ok && m[got.Payload]:
		return fmt.Errorf("blocked payload %q dispatched (task %d)", got.Payload, got.ID)
	case ok && !want:
		return fmt.Errorf("task %d dispatched with no free slot, a dead pool or every queued payload blocked", got.ID)
	case !ok && want && !held:
		return fmt.Errorf("dispatch reported nothing with a free slot and an unblocked task queued")
	}
	return nil
}

// poolInvariants are the step assertions shared by the PoolCore harnesses.
func poolInvariants(c *PoolCore) error {
	if err := c.Conservation(); err != nil {
		return err
	}
	if c.Busy() < 0 || c.Busy() > c.Workers() {
		return fmt.Errorf("busy workers %d outside [0, %d]", c.Busy(), c.Workers())
	}
	if c.Running() < 0 {
		return fmt.Errorf("running %d negative", c.Running())
	}
	return nil
}

// TestPoolCorePropertyHarness model-checks the single-pool core under the
// criticality policy (the starvation-prone one) with randomized schedules.
func TestPoolCorePropertyHarness(t *testing.T) {
	run := func(ops []propOp) error {
		core, err := NewPoolCore(3, 12, sched.ClassCPU, sched.CriticalityPolicy{})
		if err != nil {
			return err
		}
		now := time.Duration(0)
		nextID := 0
		dispatched := map[int]bool{}
		blocked := blockModel{}
		var execs []int // open executions' request counts
		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			switch op.kind {
			case 0: // submit
				core.Submit(propTask(nextID, now, op.a))
				nextID++
			case 1: // dispatch
				head, hadHead := core.queue.Head()
				want := blocked.canDispatch(core)
				got, ok := core.Dispatch(now)
				if err := blocked.check(want, got, ok, false); err != nil {
					return err
				}
				if !ok {
					break
				}
				if dispatched[got.ID] {
					return fmt.Errorf("task %d dispatched twice", got.ID)
				}
				dispatched[got.ID] = true
				if err := agedPassedOver(head, hadHead && !blocked[head.Payload], got, sched.ClassCPU, now); err != nil {
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
			case 4: // advance the clock a long way (ages the head)
				now += time.Duration(op.a%2000) * time.Millisecond
			case 5, 6: // block a payload, or unblock them all
				blocked.apply(core, op.kind == 5, op.a)
			}
			if err := poolInvariants(core); err != nil {
				return err
			}
			if core.Dispatchable() != blocked.runnable(core) {
				return fmt.Errorf("Dispatchable = %v, but the model says %v", core.Dispatchable(), blocked.runnable(core))
			}
		}
		return nil
	}
	checkSequences(t, 4000, []string{"submit", "dispatch", "coalesce", "complete", "advance", "block", "unblock"}, run)
}

// TestFormerPropertyHarness model-checks the former-gated pool: the same
// invariants, plus the former's own contract — a held pick never leaves
// the queue, and an aged head whose group is ready is never passed over.
func TestFormerPropertyHarness(t *testing.T) {
	run := func(ops []propOp) error {
		core, err := NewPoolCore(2, 10, sched.ClassCPU, sched.CriticalityPolicy{})
		if err != nil {
			return err
		}
		former := NewBatchFormer(4, 40*time.Millisecond, 200*time.Millisecond, sched.ClassCPU)
		core.AttachFormer(former)
		now := time.Duration(0)
		nextID := 0
		dispatched := map[int]bool{}
		blocked := blockModel{}
		var execs []int
		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			switch op.kind {
			case 0: // submit + observe
				tk := propTask(nextID, now, op.a)
				nextID++
				if core.Submit(tk) {
					former.Observe(tk, 1)
				}
			case 1: // formed dispatch
				head, hadHead := core.queue.Head()
				before := core.QueueLen()
				want := blocked.canDispatch(core)
				got, ok, wake, wakeOK := core.DispatchFormed(now)
				if err := blocked.check(want, got, ok, wakeOK); err != nil {
					return err
				}
				if !ok {
					if core.QueueLen() != before {
						return fmt.Errorf("held dispatch changed the queue (%d -> %d)", before, core.QueueLen())
					}
					if wakeOK && wake <= now && core.Busy() < core.Workers() {
						return fmt.Errorf("former reported a due instant %v in the past (now %v) without dispatching", wake, now)
					}
					break
				}
				if dispatched[got.ID] {
					return fmt.Errorf("task %d dispatched twice", got.ID)
				}
				dispatched[got.ID] = true
				if hadHead && former.Ready(head.Payload, now) && !blocked[head.Payload] {
					if err := agedPassedOver(head, hadHead, got, sched.ClassCPU, now); err != nil {
						return err
					}
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
					former.Shed(tk.Payload, 1)
				}
				execs[len(execs)-1] += len(taken)
			case 3: // complete
				if len(execs) == 0 {
					break
				}
				i := op.a % len(execs)
				core.Complete(execs[i])
				execs = append(execs[:i], execs[i+1:]...)
			case 4: // advance
				now += time.Duration(op.a%500) * time.Millisecond
			case 5, 6: // block a payload, or unblock them all
				blocked.apply(core, op.kind == 5, op.a)
			}
			if err := poolInvariants(core); err != nil {
				return err
			}
		}
		return nil
	}
	checkSequences(t, 3000, []string{"submit", "dispatch-formed", "coalesce", "complete", "advance", "block", "unblock"}, run)
}

// TestAdaptiveFormerPropertyHarness model-checks the former-gated pool
// with a digest-backed live estimator in the loop, feeding the digest
// adversarial observations (zeros, the maximum duration, negatives,
// collapsing magnitudes) between scheduling ops. On top of the usual pool
// invariants it asserts the adaptive-estimation contract: the digest never
// feeds a NaN, zero, or negative service estimate into the former's slack
// arithmetic, and group due instants never precede their oldest arrival.
func TestAdaptiveFormerPropertyHarness(t *testing.T) {
	run := func(ops []propOp) error {
		core, err := NewPoolCore(2, 10, sched.ClassCPU, sched.CriticalityPolicy{})
		if err != nil {
			return err
		}
		obs := metrics.NewObservatory(16, 6)
		former := NewBatchFormer(4, 40*time.Millisecond, 200*time.Millisecond, sched.ClassCPU)
		var estErr error
		former.SetEstimator(func(payload string, static time.Duration) time.Duration {
			got := obs.ServiceQuantile(payload, "pool", static, 0.95)
			if static > 0 && got <= 0 && estErr == nil {
				estErr = fmt.Errorf("digest fed a non-positive estimate %v into the former (static %v)", got, static)
			}
			return got
		})
		core.AttachFormer(former)
		now := time.Duration(0)
		nextID := 0
		dispatched := map[int]bool{}
		var execs []int
		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			switch op.kind {
			case 0: // submit + observe
				tk := propTask(nextID, now, op.a)
				nextID++
				if core.Submit(tk) {
					former.Observe(tk, 1)
					if i := former.find(tk.Payload); i >= 0 {
						if g := former.groups[i]; g.Due < g.Oldest {
							return fmt.Errorf("group %q due %v precedes its oldest arrival %v",
								tk.Payload, g.Due, g.Oldest)
						}
					}
				}
			case 1: // formed dispatch
				before := core.QueueLen()
				got, ok, _, _ := core.DispatchFormed(now)
				if !ok {
					if core.QueueLen() != before {
						return fmt.Errorf("held dispatch changed the queue (%d -> %d)", before, core.QueueLen())
					}
					break
				}
				if dispatched[got.ID] {
					return fmt.Errorf("task %d dispatched twice", got.ID)
				}
				dispatched[got.ID] = true
				execs = append(execs, 1)
			case 2: // complete
				if len(execs) == 0 {
					break
				}
				i := op.a % len(execs)
				core.Complete(execs[i])
				execs = append(execs[:i], execs[i+1:]...)
			case 3: // advance
				now += time.Duration(op.a%500) * time.Millisecond
			case 4: // record an adversarial observation
				payload := string(rune('a' + op.a%3))
				var v time.Duration
				switch op.a % 5 {
				case 0:
					v = 0
				case 1:
					v = time.Duration(1<<63 - 1) // max duration
				case 2:
					v = time.Duration(1<<40) >> uint(op.b%40) // collapsing magnitude
				case 3:
					v = -time.Duration(1 + op.a) // negative (clamped by Record)
				default:
					v = time.Duration(op.a) * time.Microsecond
				}
				obs.Record(payload, "pool", v)
			}
			if estErr != nil {
				return estErr
			}
			if err := poolInvariants(core); err != nil {
				return err
			}
		}
		return nil
	}
	checkSequences(t, 3000, []string{"submit", "dispatch-formed", "complete", "advance", "observe"}, run)
}

// TestShrinkerFindsMinimalTrace pins the harness's own machinery: a
// planted violation must shrink to the ops that matter, so a real failure
// dumps a short recipe instead of a 100-op haystack.
func TestShrinkerFindsMinimalTrace(t *testing.T) {
	// A "core" that breaks when it has seen 2 submits and then a dispatch.
	run := func(ops []propOp) error {
		submits := 0
		for _, op := range ops {
			switch op.kind {
			case 0:
				submits++
			case 1:
				if submits >= 2 {
					return fmt.Errorf("planted violation")
				}
			}
		}
		return nil
	}
	ops := []propOp{{kind: 4}, {kind: 0}, {kind: 2}, {kind: 0}, {kind: 3}, {kind: 1}, {kind: 4}}
	minimal, err := shrink(ops, run)
	if err == nil {
		t.Fatal("shrinker lost the failure")
	}
	if len(minimal) != 3 {
		t.Fatalf("minimal trace has %d ops, want 3: %s", len(minimal),
			formatOps(minimal, []string{"submit", "dispatch", "op2", "op3", "op4"}))
	}
}
