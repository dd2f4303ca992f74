package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/trace"
	"dscs/internal/workflow"
	"dscs/internal/workload"
)

// wfTestEngine builds a small two-platform engine with a stubbed, fast
// execution so workflow tests exercise placement and graph plumbing, not
// the simulated service times.
func wfTestEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 2, QueueDepth: 64,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			time.Sleep(200 * time.Microsecond)
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSubmitWorkflowChain drives an ETL scatter-gather graph end to end:
// every stage completes, the ledger balances, locality accounting covers
// every stage, and the serve_workflow_* surfaces move.
func TestSubmitWorkflowChain(t *testing.T) {
	eng := wfTestEngine(t)
	defer eng.Close()
	spec, err := trace.ParseWorkflowSpec(
		"0s:extract=credit-risk:;0s:s0=asset-damage:extract;0s:s1=asset-damage:extract;0s:s2=asset-damage:extract;0s:gather=credit-risk:s0,s1,s2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SubmitWorkflow(spec, faas.Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Completed != 5 || res.Dropped != 0 || res.Stranded != 0 {
		t.Fatalf("ledger: %+v", res)
	}
	if res.Makespan <= 0 {
		t.Fatalf("non-positive makespan %v", res.Makespan)
	}
	if res.LocalStages+res.RemoteStages != 5 {
		t.Fatalf("locality split %d+%d does not cover 5 stages", res.LocalStages, res.RemoteStages)
	}
	// Workflow objects are acceleratable, so the store homes a DSCS
	// replica for each; with both pools idle the home side must win at
	// least once, moving bytes off the fabric.
	if res.LocalStages == 0 || res.LocalBytes == 0 {
		t.Fatalf("no stage ran beside its input: %+v", res)
	}
	for _, st := range res.Stages {
		if st.State != workflow.Done || st.Platform == "" || st.Err != "" {
			t.Fatalf("stage %+v did not settle Done on a platform", st)
		}
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_workflow_stages_completed_total"); got != 5 {
		t.Fatalf("serve_workflow_stages_completed_total = %v", got)
	}
	if got := tel.Counter("serve_workflows_completed_total"); got != 1 {
		t.Fatalf("serve_workflows_completed_total = %v", got)
	}
	if tel.Gauge("serve_workflow_makespan_p50") <= 0 {
		t.Fatal("makespan gauge never published")
	}
	if eng.WorkflowMakespanQuantile(0.5) != res.Makespan {
		t.Fatalf("digest p50 %v != sole makespan %v", eng.WorkflowMakespanQuantile(0.5), res.Makespan)
	}
	if tel.Gauge("serve_workflow_stages_inflight") != 0 {
		t.Fatal("stages still in flight after settlement")
	}
}

// TestSubmitWorkflowOffsetFloor pins the offset semantics on the live
// path: a stage may not dispatch before arrival+Offset even when its
// dependencies finish instantly.
func TestSubmitWorkflowOffsetFloor(t *testing.T) {
	eng := wfTestEngine(t)
	defer eng.Close()
	spec, err := trace.ParseWorkflowSpec("0s:a=credit-risk:;120ms:b=credit-risk:a")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := eng.SubmitWorkflow(spec, faas.Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 120*time.Millisecond {
		t.Fatalf("workflow settled in %v, before stage b's 120ms floor", elapsed)
	}
	if !res.Succeeded {
		t.Fatalf("ledger: %+v", res)
	}
}

// TestSubmitWorkflowWaitsForFetch pins the fetch half of the live stage
// path: a stage placed away from its input's replica pays the fabric read
// before it submits, so its execution starts no earlier than the fetch
// completes.
func TestSubmitWorkflowWaitsForFetch(t *testing.T) {
	var mu sync.Mutex
	var executed time.Time
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1,
		Execute: func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
			mu.Lock()
			executed = time.Now()
			mu.Unlock()
			return faas.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// With the DSCS pool down the stage runs on the CPU pool, so its
	// seeded input crosses the fabric.
	if err := eng.FailPool("DSCS-Serverless"); err != nil {
		t.Fatal(err)
	}
	spec, err := trace.ParseWorkflowSpec("0s:a=ppe-detection:")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := eng.SubmitWorkflow(spec, faas.Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.RemoteStages != 1 || res.FabricBytes == 0 {
		t.Fatalf("want one remote stage that read over the fabric: %+v", res)
	}
	// The analytic quantile path prices the same read identically.
	fetch, _, err := eng.workflowStore().GetWithFailover(workflow.InputKey(res.ID, "a"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if fetch < 5*time.Millisecond {
		t.Fatalf("fixture fetch is %v; too short to tell a wait from none", fetch)
	}
	mu.Lock()
	defer mu.Unlock()
	if waited := executed.Sub(start); waited < fetch {
		t.Errorf("stage executed %v after admission, before its %v fetch completed", waited, fetch)
	}
}

// TestSubmitWorkflowRejects pins the guard rails: nil specs, invalid
// graphs, and unknown benchmarks are refused before anything dispatches.
func TestSubmitWorkflowRejects(t *testing.T) {
	eng := wfTestEngine(t)
	defer eng.Close()
	if _, err := eng.SubmitWorkflow(nil, faas.Options{}); err == nil {
		t.Fatal("accepted a nil spec")
	}
	cyc := &trace.WorkflowSpec{Stages: []trace.WorkflowStage{
		{ID: "a", Benchmark: "credit-risk", Deps: []string{"b"}},
		{ID: "b", Benchmark: "credit-risk", Deps: []string{"a"}},
	}}
	if _, err := eng.SubmitWorkflow(cyc, faas.Options{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle accepted: %v", err)
	}
	bad := &trace.WorkflowSpec{Stages: []trace.WorkflowStage{{ID: "a", Benchmark: "nonesuch"}}}
	if _, err := eng.SubmitWorkflow(bad, faas.Options{}); err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("unknown benchmark accepted: %v", err)
	}
	if got := eng.Telemetry().Counter("serve_workflows_total"); got != 0 {
		t.Fatalf("rejected workflows were counted: %v", got)
	}
}

// TestSubmitWorkflowDropCascade submits against a closed engine: the
// roots' admission is refused (ErrClosed behaves exactly like a full
// queue at the drop site), and everything downstream strands rather than
// leak — the result still settles with a balanced ledger.
func TestSubmitWorkflowDropCascade(t *testing.T) {
	eng := wfTestEngine(t)
	eng.Close()
	spec, err := trace.ParseWorkflowSpec(
		"0s:a=credit-risk:;0s:b=asset-damage:a;0s:c=asset-damage:a;0s:d=credit-risk:b,c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SubmitWorkflow(spec, faas.Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded || res.Dropped != 1 || res.Stranded != 3 || res.Completed != 0 {
		t.Fatalf("ledger after closed-engine submit: %+v", res)
	}
	if res.Stages[0].State != workflow.Dropped || res.Stages[0].Err == "" {
		t.Fatalf("root outcome %+v", res.Stages[0])
	}
	for _, st := range res.Stages[1:] {
		if st.State != workflow.Stranded {
			t.Fatalf("downstream outcome %+v", st)
		}
	}
}
