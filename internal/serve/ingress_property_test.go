// ingress_property_test.go extends the model-checking harness over the
// sharded submit path: randomized shard-interleaved offer/drain/dispatch/
// steal sequences against N=3 pool cores each fronted by an ingress,
// asserting after every step that Conservation and the AgingMultiple
// starvation bound survive the split, that the staged-plus-queued
// admission bound is exact at every offer, and that a drain reaches the
// core in the same arrival order a single queue would have seen. A separate
// 64-goroutine test drives the real sharded engine path for the -race
// detector.
package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/sched"
	"dscs/internal/workload"
)

// shardedPool is one harness pool: an ingress fronting a PoolCore, plus
// the model counts the invariants are checked against.
type shardedPool struct {
	in      *ingress
	core    *PoolCore
	scratch []ingressEntry
	// model counts, maintained by the harness alongside the real state
	accepted    int // offers the ingress admitted
	coreDropped int // drained entries the core's queue rejected
}

// syncQueued mirrors the engine's bookkeeping: after every core mutation
// the downstream occupancy is stored into the admission bound's mirror.
func (sp *shardedPool) syncQueued() { sp.in.syncQueued(sp.core.QueueLen()) }

// drain empties the ingress into the core in admission order, the way the
// engine's drainLocked does, counting entries the core rejects.
func (sp *shardedPool) drain() ([]ingressEntry, error) {
	entries := sp.in.drainInto(sp.scratch)
	sp.scratch = entries[:0]
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1].task, entries[i].task
		if a.Arrived > b.Arrived || (a.Arrived == b.Arrived && a.ID > b.ID) {
			return nil, fmt.Errorf("drain out of admission order: task %d (arrived %v) before task %d (arrived %v)",
				a.ID, a.Arrived, b.ID, b.Arrived)
		}
	}
	for _, e := range entries {
		if !sp.core.Submit(e.task) {
			sp.coreDropped++
		}
	}
	sp.syncQueued()
	return entries, nil
}

// ingressInvariants checks the sharded pool's accounting after a step:
// staged stays non-negative, the queued mirror is sane, and every
// accepted offer is still accounted for somewhere — staged, queued, or
// handed to the core. The admission bound itself is asserted at offer
// time (steals may legitimately push occupancy past it; the bound gates
// new offers, not rebalancing).
func (sp *shardedPool) ingressInvariants(dispatched int) error {
	staged := int(sp.in.staged.Load())
	if staged < 0 {
		return fmt.Errorf("staged count %d negative", staged)
	}
	if got := staged + sp.core.QueueLen() + dispatched + sp.coreDropped; got != sp.accepted {
		return fmt.Errorf("ingress conservation: accepted %d but staged %d + queued %d + dispatched %d + core-dropped %d = %d",
			sp.accepted, staged, sp.core.QueueLen(), dispatched, sp.coreDropped, got)
	}
	return sp.in.pendingMirrorCheck()
}

// pendingMirrorCheck asserts the queued mirror matches what syncQueued
// last stored — a desync here would skew every later admission decision.
func (in *ingress) pendingMirrorCheck() error {
	if q := in.queued.Load(); q < 0 {
		return fmt.Errorf("queued mirror %d negative", q)
	}
	return nil
}

// TestShardedIngressPropertyHarness model-checks three ingress-fronted
// pools under randomized shard-interleaved schedules: offers land on
// arbitrary shards, drains batch them into the cores, dispatches and
// cross-pool steals mutate the backlogs, and the clock jumps far enough
// to age queue heads past the starvation bound.
func TestShardedIngressPropertyHarness(t *testing.T) {
	const (
		pools  = 3
		shards = 4
		depth  = 8
	)
	run := func(ops []propOp) error {
		ps := make([]*shardedPool, pools)
		for i := range ps {
			core, err := NewPoolCore(2, depth, sched.ClassCPU, sched.CriticalityPolicy{})
			if err != nil {
				return err
			}
			ps[i] = &shardedPool{in: newIngress(shards, depth), core: core}
		}
		now := time.Duration(0)
		nextID := 0
		dispatched := map[int]bool{}
		perPool := make([]int, pools) // dispatched count per pool
		execs := make([][]int, pools) // open executions per pool
		stolen := make([]int, pools)  // net tasks moved in by steals
		for _, op := range ops {
			now += time.Duration(1+op.b%8) * time.Millisecond
			pi := op.b % pools
			sp := ps[pi]
			switch op.kind {
			case 0: // offer onto an arbitrary shard
				tk := propTask(nextID, now, op.a)
				nextID++
				before := sp.in.droppedCount()
				pendingBefore := sp.in.pending()
				err := sp.in.offer(op.a%shards, ingressEntry{task: tk})
				switch {
				case err == nil:
					if int64(pendingBefore) >= sp.in.bound {
						return fmt.Errorf("offer admitted at pending %d, bound %d", pendingBefore, sp.in.bound)
					}
					sp.accepted++
					if sp.in.droppedCount() != before {
						return fmt.Errorf("admitted offer counted as a drop")
					}
				case err == ErrQueueFull:
					if int64(pendingBefore) < sp.in.bound {
						return fmt.Errorf("offer rejected at pending %d under bound %d", pendingBefore, sp.in.bound)
					}
					if sp.in.droppedCount() != before+1 {
						return fmt.Errorf("drop counter %d after a rejection, want %d",
							sp.in.droppedCount(), before+1)
					}
				default:
					return fmt.Errorf("offer: unexpected error %v", err)
				}
			case 1: // drain the staged backlog into the core
				if _, err := sp.drain(); err != nil {
					return err
				}
			case 2: // drain-then-dispatch, the worker loop's shape
				if _, err := sp.drain(); err != nil {
					return err
				}
				head, hadHead := sp.core.queue.Head()
				got, ok := sp.core.Dispatch(now)
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
				perPool[pi]++
				execs[pi] = append(execs[pi], 1)
				sp.syncQueued()
			case 3: // complete a random open execution
				if len(execs[pi]) == 0 {
					break
				}
				i := op.a % len(execs[pi])
				sp.core.Complete(execs[pi][i])
				execs[pi] = append(execs[pi][:i], execs[pi][i+1:]...)
			case 4: // advance the clock a long way (ages the head)
				now += time.Duration(op.a%2000) * time.Millisecond
			case 5: // steal between pools; both mirrors must resync
				di := (pi + 1 + op.a%(pools-1)) % pools
				donor := ps[di]
				donor.drainFlush() // steals read the donor's queue, so stage first
				moved := sp.core.StealFrom(donor.core, 1+op.a%4)
				for _, tk := range moved {
					if dispatched[tk.ID] {
						return fmt.Errorf("task %d stolen after dispatch", tk.ID)
					}
				}
				stolen[pi] += len(moved)
				stolen[di] -= len(moved)
				sp.syncQueued()
				donor.syncQueued()
			}
			for i, p := range ps {
				if err := poolInvariants(p.core); err != nil {
					return fmt.Errorf("pool %d: %w", i, err)
				}
				// A net stolen-in task sits in this queue without a local
				// accept, so it offsets the pool's expected total.
				if err := p.ingressInvariants(perPool[i] - stolen[i]); err != nil {
					return fmt.Errorf("pool %d: %w", i, err)
				}
			}
		}
		return nil
	}
	checkSequences(t, 3000, []string{"offer", "drain", "drain-dispatch", "complete", "advance", "steal"}, run)
}

// drainFlush drains the ingress without the order check — used before a
// steal, where only the resulting queue state matters.
func (sp *shardedPool) drainFlush() {
	entries := sp.in.drainInto(sp.scratch)
	sp.scratch = entries[:0]
	for _, e := range entries {
		if !sp.core.Submit(e.task) {
			sp.coreDropped++
		}
	}
	sp.syncQueued()
}

// TestShardedIngressRaceConservation hammers the real sharded engine path
// from 64 goroutines and asserts conservation after quiescing — the
// harness the -race detector runs over the shard staging, drain, and
// parking protocol.
func TestShardedIngressRaceConservation(t *testing.T) {
	bm := workload.BySlug("chatbot")
	if bm == nil {
		t.Fatal("no chatbot benchmark")
	}
	eng, err := NewEngine(testRunners(t), Options{
		Workers:    4,
		QueueDepth: 1024,
		MaxBatch:   8,
		Execute: func(*faas.Runner, *workload.Benchmark, faas.Options) (faas.Result, error) {
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const (
		submitters = 64
		perWorker  = 200
	)
	opt := faas.Options{Quantile: 0.5}
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := 0
			for sent < perWorker {
				if err := eng.SubmitAsync("DSCS-Serverless", bm, opt); err == nil {
					sent++
				}
			}
		}()
	}
	wg.Wait()
	if !eng.Quiesce(time.Minute) {
		t.Fatal("engine did not quiesce after 64-way sharded submit")
	}
	if err := eng.Conservation(); err != nil {
		t.Fatalf("conservation after 64-way sharded submit: %v", err)
	}
}
