package cluster

import (
	"testing"
	"time"

	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/trace"
)

// TestInflightStaysBounded replays a faulted, hedged trace through a bare
// two-pool topology. Finished executions must leave the driver's inflight
// list, so at every settle and after the replay it holds no more entries
// than the most executions ever running at once — counted here from the
// pools' own ledgers at each dispatch, not from the driver's bookkeeping.
func TestInflightStaysBounded(t *testing.T) {
	tr := smallTrace(t, 40)
	evs, err := trace.ParseFaultScript("10s:pool-down:a;15s:pool-up:a;30s:pool-down:b;32s:pool-up:b;50s:pool-down:a;51s:pool-up:a")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDriver(rack{
		pools: []serve.PoolSpec{
			{Name: "a", Class: sched.ClassDSCS, Workers: 4, QueueDepth: 4000},
			{Name: "b", Class: sched.ClassCPU, Workers: 8, QueueDepth: 4000},
		},
		order: []int{0, 1}, faults: evs,
		sampleEvery: time.Second, horizon: tr.Duration + time.Minute,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	peak, settled := 0, 0
	d.service = func(int, *sched.HybridTask, []sched.HybridTask) time.Duration {
		// A primary's dispatch has just entered the ledger; a hedge's
		// lease is outside it, so the count is the executions running.
		if n := d.mc.Pool(0).Running() + d.mc.Pool(1).Running(); n > peak {
			peak = n
		}
		return sim.LogNormal{Median: 60 * time.Millisecond, Sigma: 0.8}.Sample(d.rng)
	}
	d.settle = func(int, *sched.HybridTask, []sched.HybridTask, time.Duration) {
		settled++
		if len(d.inflight) > peak {
			t.Fatalf("settle %d: %d executions tracked, at most %d ever ran at once", settled, len(d.inflight), peak)
		}
	}
	d.sample = func(int) {}
	d.patience = func(int, *sched.HybridTask) time.Duration { return 90 * time.Millisecond }
	d.arrive = func(i int) {
		d.submit(i%2, sched.HybridTask{ID: i, Arrived: d.now(), Payload: tr.Requests[i].Benchmark})
	}
	if err := d.run(len(tr.Requests), func(i int) time.Duration { return tr.Requests[i].At }); err != nil {
		t.Fatal(err)
	}
	if settled != len(tr.Requests) || d.mc.Requeued() == 0 || d.hedgesWon == 0 {
		t.Fatalf("settled %d of %d, requeued %d, hedges won %d: the replay must finish everything through faults and hedges",
			settled, len(tr.Requests), d.mc.Requeued(), d.hedgesWon)
	}
	if len(d.inflight) > peak {
		t.Errorf("after the replay %d executions tracked, at most %d ever ran at once", len(d.inflight), peak)
	}
	t.Logf("%d executions, peak %d running, %d tracked at the end", settled, peak, len(d.inflight))
}
