package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"dscs"
	"dscs/internal/compiler"
	"dscs/internal/metrics"
	"dscs/internal/model"
	"dscs/internal/platform"
	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/units"
	"dscs/internal/workflow"
)

// coldProbes times the cold path once, before anything else in the process
// has compiled a program: the first DSA inference of a (graph, batch) pair
// nothing else uses, the first invocation of every app on a fresh
// environment, one compile, one cycle-level simulation and one design-space
// exploration.
func coldProbes(seed uint64, l layerSet) error {
	accel := platform.DSCS()
	resnet := dscs.BenchmarkBySlug("asset-damage").Model
	start := time.Now()
	if _, _, err := accel.Infer(resnet, 16); err != nil {
		return err
	}
	l["platform.infer_cold_ms"] = ms(time.Since(start))
	warm, allocs, _ := probe(5, 20000, func() { _, _, _ = accel.Infer(resnet, 16) })
	l["platform.infer_warm_ns"], l["platform.infer_allocs"] = warm, allocs

	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return err
	}
	start = time.Now()
	for _, b := range env.Suite {
		if _, err := env.DSCS().Invoke(b, dscs.InvokeOptions{Quantile: 0.5, Cold: true}); err != nil {
			return err
		}
	}
	l["faas.first_invoke_ms"] = ms(time.Since(start))

	cfg := dscs.PaperDSA()
	ns, _, _ := probe(3, 3, func() { _, err = compiler.Compile(model.ResNet50(), 1, cfg, compiler.Options{}) })
	if err != nil {
		return err
	}
	l["compiler.resnet50_ms"] = ns / 1e6
	prog, err := dscs.Compile(model.BERTBaseChatbot(), 1, cfg)
	if err != nil {
		return err
	}
	ns, _, _ = probe(3, 3, func() { _, err = dscs.Simulate(prog, cfg) })
	if err != nil {
		return err
	}
	l["dsa.bert_sim_ms"] = ns / 1e6
	ns, _, _ = probe(2, 1, func() { _, err = dscs.ExploreDesignSpace() })
	l["dse.explore_ms"] = ns / 1e6
	return err
}

// gatewayProbes times the gateway's other routes in process, on the stack
// rung A just used: a redeploy, the listing, a metrics scrape and a 3-stage
// workflow post.
func gatewayProbes(s *liveStack, seed uint64, l layerSet) {
	call := func(method, path, body string) func() {
		return func() {
			r := httptest.NewRequest(method, path, strings.NewReader(body))
			s.handler.ServeHTTP(httptest.NewRecorder(), r)
		}
	}
	yaml, chain := dscs.DeploymentYAML(s.suite[0]), chainSpec(seed)
	for name, p := range map[string]struct {
		iters int
		fn    func()
	}{
		"gateway.deploy_us":         {400, call(http.MethodPost, "/system/functions", yaml)},
		"gateway.list_us":           {400, call(http.MethodGet, "/system/functions", "")},
		"gateway.metrics_scrape_us": {200, call(http.MethodGet, "/metrics", "")},
		"gateway.workflow_post_us":  {20, call(http.MethodPost, "/system/workflows?quantile=0.5", chain)},
	} {
		ns, _, _ := probe(3, p.iters, p.fn)
		l[name] = ns / 1e3
	}
	spec, err := trace.ParseWorkflowSpec(chain)
	if err != nil {
		panic(err) // the generator's own output
	}
	ns, _, _ := probe(3, 20, func() { _, _ = s.eng.SubmitWorkflow(spec, dscs.InvokeOptions{Quantile: 0.5}) })
	l["serve.workflow_submit_us"] = ns / 1e3
	ns, _, _ = probe(5, 20000, func() { _, _ = trace.ParseWorkflowSpec(chain) })
	l["trace.parse_workflow_ns"] = ns
}

// runnerProbes times Runner.Invoke variants and the object store on a warm
// environment (rung D's).
func runnerProbes(env *dscs.Environment, l layerSet) {
	b := dscs.BenchmarkBySlug("asset-damage")
	invoke := func(r *dscs.Runner, opt dscs.InvokeOptions) float64 {
		opt.Quantile = 0.5
		ns, _, _ := probe(5, 4000, func() { _, _ = r.Invoke(b, opt) })
		return ns / 1e3
	}
	l["faas.invoke_cpu_us"] = invoke(env.Baseline(), dscs.InvokeOptions{})
	l["faas.invoke_batch8_us"] = invoke(env.DSCS(), dscs.InvokeOptions{Batch: 8})
	l["faas.invoke_cold_us"] = invoke(env.DSCS(), dscs.InvokeOptions{Cold: true})

	const key = "benchmark/probe"
	_, _, _ = env.Store.PutAt(key, 4*units.MB, true, 0.5)
	l["objstore.get_ns"], l["objstore.get_allocs"], _ = probe(5, 20000, func() { _, _, _ = env.Store.GetAt(key, 0.5) })
	l["objstore.put_ns"], _, _ = probe(5, 20000, func() { _, _, _ = env.Store.PutAt(key, 4*units.MB, true, 0.5) })
	l["objstore.failover_get_ns"], _, _ = probe(5, 20000, func() { _, _, _ = env.Store.GetWithFailover(key, 0.5) })
}

// coreProbes times the clock-free scheduling state machines the way the
// engine uses them: a PoolCore behind a mutex, a three-pool MultiCore, the
// digest, the telemetry registry, a policy pick, the workflow graph and the
// placer.
func coreProbes(l layerSet) error {
	const depth = 4096
	var mu sync.Mutex
	locked := func(fn func()) func() {
		return func() { mu.Lock(); fn(); mu.Unlock() }
	}
	newCore := func(class sched.InstanceClass) (*serve.PoolCore, error) {
		return serve.NewPoolCore(8, depth, class, sched.FCFSPolicy{})
	}
	task := sched.HybridTask{Payload: "bench", CPUService: 200 * time.Millisecond, DSCSService: 40 * time.Millisecond, AccelFuncs: 2}
	drain := func(c *serve.PoolCore) {
		for {
			if _, ok := c.Dispatch(0); !ok {
				return
			}
			c.Complete(1)
		}
	}

	core, err := newCore(sched.ClassCPU)
	if err != nil {
		return err
	}
	l["serve.core_submit_ns"], _, _ = probe(5, 200000, locked(func() {
		if !core.Submit(task) {
			drain(core)
		}
	}))
	drain(core)
	l["serve.core_dispatch_ns"], _, _ = probe(5, 200000, locked(func() {
		if _, ok := core.Dispatch(0); ok {
			core.Complete(1)
			return
		}
		for core.Submit(task) {
		}
	}))

	formed, err := newCore(sched.ClassCPU)
	if err != nil {
		return err
	}
	former := serve.NewBatchFormer(8, 0, 0, sched.ClassCPU)
	formed.AttachFormer(former)
	id := 0
	l["serve.core_dispatch_formed_ns"], _, _ = probe(5, 200000, locked(func() {
		if _, ok, _, _ := formed.DispatchFormed(0); ok {
			formed.Complete(1)
			return
		}
		for {
			id++
			t := task
			t.ID = id
			if !formed.Submit(t) {
				return
			}
			former.Observe(t, 1)
		}
	}))

	donor, err := newCore(sched.ClassCPU)
	if err != nil {
		return err
	}
	thief, err := newCore(sched.ClassDSCS)
	if err != nil {
		return err
	}
	// One call steals up to 8 tasks; the cost is reported per task moved.
	ns, allocs, _ := probe(5, 25000, locked(func() {
		moved := thief.StealFrom(donor, 8)
		for range moved {
			if _, ok := thief.Dispatch(0); ok {
				thief.Complete(1)
			}
		}
		if len(moved) == 0 {
			for donor.Submit(task) {
			}
		}
	}))
	l["serve.core_steal_ns"], l["serve.core_steal_allocs"] = ns/8, allocs/8

	mc, err := serve.NewMultiCore([]serve.PoolSpec{
		{Name: "dscs", Class: sched.ClassDSCS, Workers: 2, QueueDepth: depth},
		{Name: "cpu0", Class: sched.ClassCPU, Workers: 8, QueueDepth: depth},
		{Name: "cpu1", Class: sched.ClassCPU, Workers: 8, QueueDepth: depth},
	})
	if err != nil {
		return err
	}
	// A warmed, skewed state: the DSCS pool has a backlog and long waits,
	// the CPU pools are idle, so both decisions walk their full path.
	for i := 0; i < 256; i++ {
		t := task
		t.ID, t.Arrived = i, time.Duration(i)*time.Millisecond
		mc.SubmitTo(0, t)
	}
	for i := 0; i < 64; i++ {
		if _, ok := mc.Dispatch(0, time.Duration(i+2)*time.Second); ok {
			mc.Complete(0, 1)
		}
	}
	l["serve.balance_target_ns"], _, _ = probe(5, 200000, func() { mc.BalanceTarget(0, nil) })
	l["serve.steal_donor_ns"], _, _ = probe(5, 200000, func() { mc.StealDonor(1, nil) })

	dg := metrics.NewDigest(0)
	l["metrics.digest_record_ns"], _, _ = probe(5, 400000, func() { dg.Record(time.Millisecond) })
	l["metrics.digest_quantile_ns"], _, _ = probe(5, 200000, func() { dg.Quantile(0.95) })
	tel := sched.NewTelemetry()
	l["sched.telemetry_inc_ns"], _, _ = probe(5, 400000, func() { tel.Inc("serve_completed_total", 1) })

	q, err := sched.NewHybridQueue(depth)
	if err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		t := task
		t.ID, t.CPUService = i, time.Duration(50+i*7%300)*time.Millisecond
		q.Submit(t)
	}
	l["sched.policy_pick_ns"], _, _ = probe(5, 100000, func() {
		if t, ok := (sched.CriticalityPolicy{}).Pick(q, sched.ClassDSCS, time.Second); ok {
			q.Submit(t) // keep the queue 64 deep
		}
	})

	spec, err := trace.ParseWorkflowSpec(chainSpec(1))
	if err != nil {
		return err
	}
	const runs = 2000
	batch := make([]*workflow.Run, runs)
	fresh := func() error {
		for i := range batch {
			if batch[i], err = workflow.NewRun(i, 0, spec); err != nil {
				return err
			}
			batch[i].Start(0)
		}
		return nil
	}
	var completeNS float64
	for round := 0; round < 5; round++ { // fresh runs every round: Complete consumes them
		if err := fresh(); err != nil {
			return err
		}
		ns, _, _ := probe(1, 1, func() {
			for _, r := range batch {
				for st := 0; st < r.Len(); st++ {
					r.Complete(st, time.Millisecond)
				}
			}
		})
		completeNS += ns / float64(runs*len(spec.Stages)) / 5
	}
	l["workflow.complete_ns"] = completeNS

	waits := []time.Duration{3 * time.Millisecond, time.Millisecond, 0, 2 * time.Millisecond}
	placer := &workflow.Placer{
		Pools:   len(waits),
		Home:    func(key string) int { return len(key) % len(waits) },
		Healthy: func(int) bool { return true },
		Idle:    func(int) bool { return false },
		Wait:    func(p int) time.Duration { return waits[p] },
	}
	keys := []string{"wf/1/pre", "wf/12/infer", "wf/123/post", "wf/1234/gather"}
	n := 0
	l["workflow.place_ns"], _, _ = probe(5, 400000, func() { n++; placer.Place(keys[n%len(keys)]) })

	eng := sim.NewEngine()
	const events = 200000
	ns, _, _ = probe(3, 1, func() {
		for i := 0; i < events; i++ {
			eng.After(time.Duration(i%977)*time.Microsecond, func() {})
		}
		eng.Run()
	})
	l["sim.engine_event_ns"] = ns / events
	return nil
}

// modelProbes times the three sim pumps, trace generation and one pass of
// the paper's experiments.
func modelProbes(seed uint64, l layerSet, t *tally) error {
	var tr *trace.Trace
	var err error
	ns, _, _ := probe(3, 1, func() { tr, err = rackTrace(seed, 0) })
	if err != nil {
		return err
	}
	l["trace.generate_req_per_s"] = float64(len(tr.Requests)) / (ns / 1e9)

	in, err := newSimInputs(seed)
	if err != nil {
		return err
	}
	for kind, name := range []string{"cluster.run_req_per_s", "cluster.hybrid_req_per_s", "cluster.workflow_stage_per_s"} {
		var o simOutcome
		ns, allocs, _ := probe(3, 1, func() { o, err = in.replay(kind, 0) })
		checkLedger(kind, 0, o, err, t)
		l[name] = float64(o.settled()) / (ns / 1e9)
		if kind == 1 {
			l["cluster.hybrid_allocs_per_req"] = allocs / float64(o.settled())
		}
	}

	figs, err := buildFigs(seed)
	if err != nil {
		return err
	}
	p := measure(figs, len(figs.specs), afterBlocks(len(figs.specs)), t)
	var all float64
	for i, blk := range p.blocks {
		d := ms(blk.wall) * p.factor(i)
		all += d
		if figs.specs[i].ID == "fig13" {
			l["experiments.fig13_ms"] = d
		}
	}
	l["experiments.all_ms"] = all
	if _, ok := l["experiments.fig13_ms"]; !ok {
		return fmt.Errorf("no experiment named fig13")
	}
	return nil
}
