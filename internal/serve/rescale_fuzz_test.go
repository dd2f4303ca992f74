package serve

import (
	"fmt"
	"testing"
	"time"

	"dscs/internal/scale"
	"dscs/internal/sched"
)

// rescaleBytes hands out a fuzz input a byte at a time, zeros once spent.
type rescaleBytes []byte

func (b *rescaleBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzRescaleMatchesReference holds an elastic PoolCore's short paths — the
// coasting lifecycle advance and Rescale's remembered decision — to the
// full drive they stand in for (rescale_reference_test.go). Two pools built
// from the same fuzz-chosen config (fixed, reactive or predictive mode,
// with or without a cold start and a linger) take the same byte-chosen
// sequence of Submit, Dispatch, Complete, Requeue, Hedge, HedgeDone, Fail,
// Recover, Freeze, AdvanceLifecycle and Rescale, the one through the
// pool's methods and the other through the reference. Rescale instants
// step by under or over scaleDecideInterval, so decisions are gated and
// ungated, starved and not. After every step the two must agree on every
// return, on occupancy, capacity and backlog, on the lifecycle's target,
// slots, tallies and next event, on decidedAt and on the idle integral;
// the pool's cached next event must also match a fresh computation.
func FuzzRescaleMatchesReference(f *testing.F) {
	// A reactive pool starved by a backlog, then drained; a predictive pool
	// warmed by arrivals and services with a surging wait; a fixed pool
	// frozen mid-run; a reactive pool browned out and revived.
	f.Add([]byte{1, 3, 0, 1, 2, 0}, []byte{0, 0, 0, 0, 1, 1, 7, 2, 7, 5, 2, 0, 8, 1, 7, 0, 9, 2, 0, 8, 0, 8, 3})
	f.Add([]byte{2, 4, 1, 2, 1, 0}, []byte{0, 0, 0, 1, 1, 0, 7, 3, 40, 2, 0, 0, 0, 0, 1, 1, 7, 9, 40, 2, 0, 8, 1, 40, 0, 2, 7, 4, 40, 8, 2, 0})
	f.Add([]byte{0, 2, 0, 1, 1, 1}, []byte{0, 1, 0, 2, 1, 1, 8, 0, 6, 7, 1, 2, 0, 8, 3, 2, 0})
	f.Add([]byte{1, 5, 2, 2, 2, 0}, []byte{0, 0, 0, 1, 1, 1, 8, 1, 4, 8, 2, 3, 0, 7, 5, 5, 8, 0, 1, 8, 4, 1, 2, 0, 8, 4})
	f.Fuzz(func(t *testing.T, setup, ops []byte) {
		s := rescaleBytes(setup)
		cfg := scale.Config{Mode: scale.Mode(s.next() % 3), Max: 1 + int(s.next()%6)}
		cfg.Min = int(s.next()) % (cfg.Max + 1)
		cfg.ColdStart = [...]time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond}[s.next()%3]
		cfg.IdleLinger = [...]time.Duration{0, time.Millisecond, 3 * time.Millisecond}[s.next()%3]
		cfg.Warmup = 1 + int(s.next()%3)
		pool := func() *PoolCore {
			c, err := NewPoolCore(cfg.Max, 6, sched.ClassCPU, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AttachElastic(cfg, 0); err != nil {
				t.Fatal(err)
			}
			return c
		}
		got, ref := pool(), pool()

		type execution struct {
			task sched.HybridTask
			at   time.Duration
		}
		var (
			now      time.Duration
			inflight []execution
			hedges   int
			id       int
		)
		b := rescaleBytes(ops)
		for step := 0; len(b) > 0; step++ {
			op := b.next() % 12
			switch op {
			case 0: // Submit, the autoscaler seeing the offered arrival first
				task := sched.HybridTask{ID: id, Arrived: now, Payload: [...]string{"a", "b", "c"}[b.next()%3]}
				id++
				got.Autoscaler().ObserveArrival(task.Payload, now)
				ref.Autoscaler().ObserveArrival(task.Payload, now)
				if g, r := got.Submit(task), ref.Submit(task); g != r {
					t.Fatalf("step %d: Submit %v, reference %v", step, g, r)
				}
			case 1: // Dispatch
				gt, g := got.Dispatch(now)
				rt, r := ref.Dispatch(now)
				if g != r || gt != rt {
					t.Fatalf("step %d: Dispatch %v %+v, reference %v %+v", step, g, gt, r, rt)
				}
				if g {
					inflight = append(inflight, execution{gt, now})
				}
			case 2, 3: // Complete or Requeue one execution
				if len(inflight) == 0 {
					continue
				}
				k := int(b.next()) % len(inflight)
				ex := inflight[k]
				inflight = append(inflight[:k], inflight[k+1:]...)
				if op == 2 {
					got.Complete(1)
					ref.Complete(1)
					service := now - ex.at + 100*time.Microsecond
					got.Autoscaler().ObserveService(ex.task.Payload, service)
					ref.Autoscaler().ObserveService(ex.task.Payload, service)
				} else {
					got.Requeue([]sched.HybridTask{ex.task}, false)
					ref.Requeue([]sched.HybridTask{ex.task}, false)
				}
			case 4: // Hedge
				if g, r := got.Hedge(), ref.Hedge(); g != r {
					t.Fatalf("step %d: Hedge %v, reference %v", step, g, r)
				} else if g {
					hedges++
				}
			case 5: // HedgeDone
				if hedges > 0 {
					hedges--
					got.HedgeDone()
					ref.HedgeDone()
				}
			case 6:
				got.Fail(now)
				refFail(ref, now)
			case 7:
				got.Recover(now)
				refRecover(ref, now)
			case 8: // the engine's Close drain, without its trailing advance
				got.Lifecycle().Freeze(now)
				ref.Lifecycle().Freeze(now)
			case 9:
				if g, r := got.AdvanceLifecycle(now), refAdvance(ref, now); g != r {
					t.Fatalf("step %d: AdvanceLifecycle %v, reference %v", step, g, r)
				}
			case 10, 11: // Rescale under, then over, the decision interval
				if op == 10 {
					now += time.Duration(b.next()%10) * 100 * time.Microsecond
				} else {
					now += time.Millisecond + time.Duration(b.next()%5)*time.Millisecond
				}
				wait := time.Duration(b.next()) * 20 * time.Microsecond
				gotReads, refReads := 0, 0
				g := got.Rescale(now, func() time.Duration { gotReads++; return wait })
				r := refRescale(ref, now, func() time.Duration { refReads++; return wait })
				if g != r || gotReads != refReads {
					t.Fatalf("step %d: Rescale at %v reported %v after %d wait reads, reference %v after %d",
						step, now, g, gotReads, r, refReads)
				}
			}
			if err := sameElasticPool(got, ref); err != "" {
				t.Fatalf("step %d (op %d) at %v, %v mode: %s", step, op, now, cfg.Mode, err)
			}
		}
		if err := got.Conservation(); err != nil {
			t.Fatal(err)
		}
	})
}

// sameElasticPool reports the first observable difference between an
// elastic pool and its reference ("" when none), and checks the pool's
// cached next event against a fresh computation.
func sameElasticPool(got, ref *PoolCore) string {
	type view struct {
		workers, busy, queued, running, desired, warm, warming, lingering int
		coldStarts, suspends                                              int
		decidedAt, idleCost, next                                         time.Duration
		nextOK, healthy                                                   bool
	}
	see := func(c *PoolCore) view {
		lc := c.Lifecycle()
		next, ok := lc.NextEvent()
		return view{
			c.Workers(), c.Busy(), c.QueueLen(), c.Running(), lc.Desired(), lc.Warm(), lc.Warming(), lc.Lingering(),
			lc.ColdStarts(), lc.Suspends(), c.DecidedAt(), lc.IdleCost(), next, ok, c.Healthy(),
		}
	}
	g, r := see(got), see(ref)
	if g != r {
		return fmt.Sprintf("pool %+v, reference %+v", g, r)
	}
	if next, ok := got.Lifecycle().nextEvent(); next != g.next || ok != g.nextOK {
		return "cached next event is stale"
	}
	return ""
}
