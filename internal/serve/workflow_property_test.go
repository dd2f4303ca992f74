// workflow_property_test.go is the workflow arm of the model-checking
// harness: randomized DAG admission over a MultiCore pool set and a real
// object store, with the placement policy picking pools exactly as the
// sims and the live driver do. After every step the harness asserts the
// workflow-grade invariants on top of the PR 3 core ones:
//
//   - no stage dispatches before all of its input objects exist in the
//     store (outputs are written before dependents unlock);
//   - every workflow's ledger conserves — completed + dropped + stranded
//     equals admitted — at every step and after the end-of-sequence
//     close-out;
//   - a stage task's scheduler age is measured from its unlock time, not
//     from workflow arrival (Arrived == UnlockedAt, and the starvation
//     bound is checked against that arrival).
//
// The chaos arm mixes pool kills (with drive failure and inflight
// requeue, PR 8's fault model) into the same schedule.
package serve

import (
	"fmt"
	"testing"
	"time"

	"dscs/internal/csd"
	"dscs/internal/objstore"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/trace"
	"dscs/internal/units"
	"dscs/internal/workflow"
)

// wfPropShapes are the graph shapes admissions draw from: a chain, a
// diamond fan-in, and a scatter fan-out.
var wfPropShapes = []string{
	"0s:a=x:;0s:b=x:a;0s:c=x:b",
	"0s:a=x:;0s:b=x:a;0s:c=x:a;0s:d=x:b,c",
	"0s:r=x:;0s:f0=x:r;0s:f1=x:r;0s:f2=x:r",
}

// wfPropRef ties a queued task back to its stage.
type wfPropRef struct {
	run *workflow.Run
	idx int
}

func wfPropStore(t testing.TB, drives int) *objstore.Store {
	t.Helper()
	var nodes []*objstore.Node
	for i := 0; i < drives; i++ {
		d, err := csd.New(csd.Default())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("drive%d", i), Kind: objstore.DSCSDrive, CSD: d,
		})
	}
	s, err := ssd.New(ssd.SmartSSDClass())
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, &objstore.Node{ID: "ssd-0", Kind: objstore.PlainSSD, SSD: s})
	store, err := objstore.New(objstore.Default(), nodes, sim.NewRNG(propSeed))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// wfPropOps names workflowPropertyRun's ops by kind. A caller passing all
// of them to checkSequences mixes chaos ops (kind 5) into the schedule;
// wfPropOps[:5] leaves them out.
var wfPropOps = []string{"admit", "dispatch", "complete", "advance", "steal", "chaos"}

// workflowPropertyRun executes one op sequence against fresh state.
func workflowPropertyRun(t *testing.T, specs []*trace.WorkflowSpec) func([]propOp) error {
	return func(ops []propOp) error {
		const pools = 3
		store := wfPropStore(t, pools)
		mc, err := NewMultiCore([]PoolSpec{
			{Name: "drive0", Class: sched.ClassDSCS, Workers: 1, QueueDepth: 4, Policy: sched.CriticalityPolicy{}},
			{Name: "drive1", Class: sched.ClassDSCS, Workers: 1, QueueDepth: 4, Policy: sched.CriticalityPolicy{}},
			{Name: "drive2", Class: sched.ClassDSCS, Workers: 1, QueueDepth: 4, Policy: sched.CriticalityPolicy{}},
		})
		if err != nil {
			return err
		}
		mc.SetWaitTuning(16, 4)
		poolOf := map[string]int{"drive0": 0, "drive1": 1, "drive2": 2}
		placer := &workflow.Placer{
			Pools: pools,
			Home: func(key string) int {
				node, _, ok := store.DSCSReplicaHealthy(key)
				if !ok {
					return -1
				}
				if p, ok := poolOf[node.ID]; ok {
					return p
				}
				return -1
			},
			Healthy: mc.Healthy, Idle: mc.Idle, Wait: mc.PricedWait,
		}

		now := time.Duration(0)
		nextTask, nextWF := 0, 0
		var runs []*workflow.Run
		dispatched := map[int]bool{}
		execs := make([][]sched.HybridTask, pools)

		conserve := func() error {
			if err := mc.Conservation(); err != nil {
				return err
			}
			for _, r := range runs {
				if err := r.Conservation(); err != nil {
					return err
				}
			}
			return nil
		}

		// submitStage places one unlocked stage and submits it; admission
		// refusal drops it (cascading), no healthy pool strands it.
		submitStage := func(r *workflow.Run, idx int) error {
			keys := r.InputKeys(idx)
			dom, domSize := keys[0], units.Bytes(-1)
			for _, k := range keys {
				if obj, ok := store.Lookup(k); ok && obj.Size > domSize {
					dom, domSize = k, obj.Size
				}
			}
			pl := placer.Place(dom)
			if pl.Pool < 0 {
				r.Strand(idx, now)
				return nil
			}
			task := sched.HybridTask{
				ID: nextTask, Arrived: r.UnlockedAt(idx), Payload: "x",
				CPUService: 40 * time.Millisecond, DSCSService: 8 * time.Millisecond,
				Ref: wfPropRef{run: r, idx: idx},
			}
			nextTask++
			if !mc.SubmitTo(pl.Pool, task) {
				r.Drop(idx, now)
			}
			return nil
		}

		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			switch op.kind {
			case 0: // admit a workflow, seed its root inputs, submit roots
				spec := specs[op.a%len(specs)]
				r, err := workflow.NewRun(nextWF, now, spec)
				if err != nil {
					return err
				}
				nextWF++
				runs = append(runs, r)
				for _, i := range spec.Roots() {
					if _, _, err := store.PutAt(workflow.InputKey(r.ID(), spec.Stages[i].ID),
						1<<20, true, 0.5); err != nil {
						return err
					}
				}
				for _, i := range append([]int(nil), r.Start(now)...) {
					if err := submitStage(r, i); err != nil {
						return err
					}
				}
			case 1: // dispatch: inputs must exist, age runs from unlock
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
				ref := got.Ref.(wfPropRef)
				for _, k := range ref.run.InputKeys(ref.idx) {
					if _, ok := store.Lookup(k); !ok {
						return fmt.Errorf("stage %s of workflow %d dispatched before input %s exists",
							ref.run.Stage(ref.idx).ID, ref.run.ID(), k)
					}
				}
				if got.Arrived != ref.run.UnlockedAt(ref.idx) {
					return fmt.Errorf("stage %s aged from %v, want unlock time %v",
						ref.run.Stage(ref.idx).ID, got.Arrived, ref.run.UnlockedAt(ref.idx))
				}
				if err := agedPassedOver(head, hadHead, got, sched.ClassDSCS, now); err != nil {
					return err
				}
				execs[pool] = append(execs[pool], got)
			case 2: // complete: write the output, then unlock dependents
				pool := op.b % pools
				if len(execs[pool]) == 0 {
					break
				}
				i := op.a % len(execs[pool])
				task := execs[pool][i]
				execs[pool] = append(execs[pool][:i], execs[pool][i+1:]...)
				mc.Complete(pool, 1)
				ref := task.Ref.(wfPropRef)
				if _, _, err := store.PutAt(ref.run.OutputKey(ref.idx), 256<<10, true, 0.5); err != nil {
					return err
				}
				for _, j := range append([]int(nil), ref.run.Complete(ref.idx, now)...) {
					if err := submitStage(ref.run, j); err != nil {
						return err
					}
				}
			case 3: // advance the clock a long way (ages queue heads)
				now += time.Duration(op.a%2000) * time.Millisecond
			case 4: // steal toward a random pool
				moved := mc.Steal(op.a%pools, op.b%pools, 1+op.a%3)
				for _, tk := range moved {
					if dispatched[tk.ID] {
						return fmt.Errorf("task %d stolen after dispatch", tk.ID)
					}
				}
			case 5: // chaos: toggle a pool and its drive; requeue inflight
				pool := op.a % pools
				drive := fmt.Sprintf("drive%d", pool)
				if mc.Healthy(pool) {
					mc.FailPool(pool, now)
					if err := store.FailNode(drive); err != nil {
						return err
					}
					// Mid-flight executions return to the durable queue;
					// their re-dispatch is legitimate, not a double.
					for _, tk := range execs[pool] {
						delete(dispatched, tk.ID)
					}
					mc.Requeue(pool, execs[pool])
					execs[pool] = nil
				} else {
					mc.RecoverPool(pool, now)
					if err := store.RecoverNode(drive); err != nil {
						return err
					}
				}
			}
			if err := conserve(); err != nil {
				return err
			}
		}

		// Close-out: whatever is still open strands, and every workflow
		// must settle with a balanced ledger.
		for _, r := range runs {
			r.StrandRemaining(now)
			if !r.Settled() {
				return fmt.Errorf("workflow %d never settled", r.ID())
			}
			if r.Completed()+r.DroppedCount()+r.StrandedCount() != r.Len() {
				return fmt.Errorf("workflow %d ledger: %d+%d+%d != %d", r.ID(),
					r.Completed(), r.DroppedCount(), r.StrandedCount(), r.Len())
			}
		}
		return conserve()
	}
}

func wfPropSpecs(t *testing.T) []*trace.WorkflowSpec {
	t.Helper()
	specs := make([]*trace.WorkflowSpec, len(wfPropShapes))
	for i, s := range wfPropShapes {
		spec, err := trace.ParseWorkflowSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	return specs
}

// TestWorkflowPropertyHarness model-checks randomized DAG submission over
// the three-drive pool set with locality placement live.
func TestWorkflowPropertyHarness(t *testing.T) {
	checkSequences(t, 60, wfPropOps[:5], workflowPropertyRun(t, wfPropSpecs(t)))
}

// TestWorkflowChaosPropertyHarness mixes pool/drive kills and recoveries
// into the same schedules: the ledgers must balance through requeues,
// dead-home fallback placement, and end-of-sequence close-out.
func TestWorkflowChaosPropertyHarness(t *testing.T) {
	checkSequences(t, 60, wfPropOps, workflowPropertyRun(t, wfPropSpecs(t)))
}
