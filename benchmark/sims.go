package main

import (
	"fmt"
	"reflect"
	"time"

	"dscs"
	"dscs/internal/cluster"
	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/trace"
)

// simKinds are the three event pumps sim-rack rotates through.
const simKinds = 3

// simInputs is everything the replays need, derived once per set-up: the
// service models come from the environment's own runners, the traces and
// fault scripts from the seed.
type simInputs struct {
	seed      uint64
	rack      [simReplays]*trace.Trace
	hybrid    [simReplays]*trace.Trace
	faults    [simReplays][]trace.FaultEvent
	workflows [simReplays]*trace.WorkflowTrace
	service   cluster.ServiceModel
	hybridSvc cluster.HybridServiceModel
}

// simOutcome is one replay reduced to what the benchmark keeps: the ledger
// for the check and the simulated-time statistics for the sim_* metrics.
type simOutcome struct {
	admitted, completed, dropped, stranded int
	p50MS, p99MS, sloShare                 float64
}

func (o simOutcome) settled() int { return o.completed + o.dropped + o.stranded }

func newSimInputs(seed uint64) (*simInputs, error) {
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return nil, err
	}
	in := &simInputs{seed: seed}
	cpu := make(map[string]time.Duration)
	accel := make(map[string]time.Duration)
	for _, b := range env.Suite {
		// CPU first, then DSCS, always: the runners share one object store,
		// so the order of first invocations is part of the input.
		for _, p := range []struct {
			name string
			into map[string]time.Duration
		}{{cpuPlatform, cpu}, {targetPlatform, accel}} {
			res, err := env.Runners[p.name].Invoke(b, dscs.InvokeOptions{Quantile: 0.5})
			if err != nil {
				return nil, err
			}
			p.into[b.Slug] = res.Total()
		}
	}
	in.service = func(slug string, rng *sim.RNG) time.Duration {
		return sim.LogNormal{Median: accel[slug], Sigma: 0.2}.Sample(rng)
	}
	in.hybridSvc = func(slug string) (time.Duration, time.Duration, int) { return cpu[slug], accel[slug], 2 }
	for k := 0; k < simReplays; k++ {
		if in.rack[k], err = rackTrace(seed, k); err != nil {
			return nil, err
		}
		if in.hybrid[k], err = hybridTrace(seed, k); err != nil {
			return nil, err
		}
		if in.faults[k], err = hybridFaults(seed, k); err != nil {
			return nil, err
		}
		if in.workflows[k], err = workflowTrace(seed, k); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// replay runs replay k of one kind.
//
//	0  cluster.Run          the Fig 13 rack (PaperConfig) on a 3-minute bursty trace
//	1  cluster.RunHybrid    split queues, 2 CPU pools, adaptive balance, elastic
//	                        capacity, one pool-down/up pair, SLO 2 s
//	2  cluster.RunWorkflows locality placement on, inter-stage batching on
func (in *simInputs) replay(kind, k int) (simOutcome, error) {
	jitterSeed := simSeed(in.seed, kind+simKinds, k)
	switch kind {
	case 0:
		cfg := cluster.PaperConfig(in.service)
		cfg.Policy = sched.FCFSPolicy{}
		st, err := cluster.Run(in.rack[k], cfg, jitterSeed)
		if err != nil {
			return simOutcome{}, err
		}
		return simOutcome{
			admitted: len(in.rack[k].Requests), completed: st.Completed, dropped: st.Dropped, stranded: st.Stranded,
			p50MS: ms(st.LatencySample.Percentile(0.5)), p99MS: ms(st.LatencySample.Percentile(0.99)),
		}, nil
	case 1:
		st, err := cluster.RunHybrid(in.hybrid[k], cluster.HybridConfig{
			CPUInstances: 40, DSCSInstances: 10, QueueDepth: 2000,
			Service: in.hybridSvc, Jitter: 0.15, SampleEvery: 5 * time.Second,
			SplitQueues: true, CPUPools: 2, AdaptiveBalance: true,
			EstimateWarmup: 16, EstimateWindow: 128,
			SLO: 2 * time.Second,
			Elastic: &scale.Config{
				Mode: scale.ModeReactive, Min: 1, Max: 40,
				ColdStart: 500 * time.Millisecond, IdleLinger: 10 * time.Second,
			},
			Faults: in.faults[k],
		}, jitterSeed)
		if err != nil {
			return simOutcome{}, err
		}
		return simOutcome{
			admitted: len(in.hybrid[k].Requests), completed: st.Completed, dropped: st.Dropped, stranded: st.Stranded,
			p50MS: ms(st.Latency.Percentile(0.5)), p99MS: ms(st.Latency.Percentile(0.99)),
			sloShare: float64(st.WithinSLO) / float64(len(in.hybrid[k].Requests)),
		}, nil
	case 2:
		st, err := cluster.RunWorkflows(in.workflows[k], cluster.WorkflowSimConfig{
			Drives: 4, WorkersPerDrive: 2, CPUInstances: 4, QueueDepth: 64,
			Service: in.hybridSvc, Jitter: 0.15, Locality: true, MaxBatch: 4,
			BatchLinger: 20 * time.Millisecond, SampleEvery: 10 * time.Second,
			MakespanSLO: 5 * time.Second,
		}, jitterSeed)
		if err != nil {
			return simOutcome{}, err
		}
		return simOutcome{
			admitted: st.Stages, completed: st.StagesCompleted, dropped: st.StagesDropped, stranded: st.StagesStranded,
			p50MS: ms(st.MakespanSample.Percentile(0.5)),
		}, nil
	}
	return simOutcome{}, fmt.Errorf("unknown sim kind %d", kind)
}

// simStats are the four simulated-time end-to-end metrics: means over the
// simReplays hybrid (latency, SLO) and workflow (makespan) replays.
type simStats struct {
	latP50MS, latP99MS, withinSLO, makespanP50MS float64
}

func (in *simInputs) stats(out [simKinds][simReplays]simOutcome) simStats {
	var s simStats
	for k := 0; k < simReplays; k++ {
		s.latP50MS += out[1][k].p50MS / simReplays
		s.latP99MS += out[1][k].p99MS / simReplays
		s.withinSLO += out[1][k].sloShare / simReplays
		s.makespanP50MS += out[2][k].p50MS / simReplays
	}
	return s
}

// checkLedger verifies one replay: everything admitted settled exactly once.
func checkLedger(kind, k int, o simOutcome, err error, t *tally) {
	switch {
	case err != nil:
		t.fail("sim kind %d replay %d: %v", kind, k, err)
	case o.settled() != o.admitted || o.admitted == 0:
		t.fail("sim kind %d replay %d: completed %d + dropped %d + stranded %d != admitted %d",
			kind, k, o.completed, o.dropped, o.stranded, o.admitted)
	default:
		t.pass()
	}
}

// modelCheck runs the hybrid and workflow replays of a seed outside any
// timed region and returns the simulated-time statistics. Every workload
// calls it, so a change that alters what the model computes shows on
// whichever workload is being run; sim-rack additionally compares it with
// the statistics of its own measured replays (same inputs, so the two must
// be identical — the replay-twice determinism check).
func modelCheck(seed uint64, t *tally) (simStats, error) {
	in, err := newSimInputs(seed)
	if err != nil {
		return simStats{}, err
	}
	var out [simKinds][simReplays]simOutcome
	for kind := 1; kind < simKinds; kind++ {
		for k := 0; k < simReplays; k++ {
			o, err := in.replay(kind, k)
			checkLedger(kind, k, o, err, t)
			out[kind][k] = o
		}
	}
	return in.stats(out), nil
}

// simRunner is the sim-rack workload: block i is replay (i/3)%simReplays of
// kind i%3. One op is one simulated invocation or workflow stage settled;
// a block's latency sample is the replay's own duration.
type simRunner struct {
	in    *simInputs
	first [simKinds][simReplays]simOutcome
	last  simOutcome
	err   error
	kind  int
	k     int
	wall  [1]time.Duration
}

func buildSim(seed uint64) (*simRunner, error) {
	in, err := newSimInputs(seed)
	if err != nil {
		return nil, err
	}
	r := &simRunner{in: in}
	for kind := 0; kind < simKinds; kind++ { // one warm-up replay per pump
		if _, err := in.replay(kind, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *simRunner) run(i int) (int, time.Duration, []time.Duration) {
	r.kind, r.k = i%simKinds, (i/simKinds)%simReplays
	start := time.Now()
	r.last, r.err = r.in.replay(r.kind, r.k)
	r.wall[0] = time.Since(start)
	if i < simKinds*simReplays {
		r.first[r.kind][r.k] = r.last
	}
	return r.last.settled(), r.wall[0], r.wall[:]
}

func (r *simRunner) check(t *tally) { checkLedger(r.kind, r.k, r.last, r.err, t) }

func (r *simRunner) finish(*tally) {}

// sameAsModelCheck is the determinism check: the measured first rotation
// and the untimed model check replayed the same seeds.
func (r *simRunner) sameAsModelCheck(s simStats, t *tally) {
	if got := r.in.stats(r.first); !reflect.DeepEqual(got, s) {
		t.fail("replaying the same seeds gave %+v, then %+v", got, s)
		return
	}
	t.pass()
}
