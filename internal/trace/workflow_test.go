package trace

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dscs/internal/sim"
	"dscs/internal/workload"
)

func TestParseWorkflowSpecRoundTrip(t *testing.T) {
	script := "0s:extract=credit-risk:;0s:shard0=nl-query:extract;0s:shard1=nl-query:extract;30s:gather=credit-risk:shard0,shard1"
	spec, err := ParseWorkflowSpec(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Stages) != 4 {
		t.Fatalf("parsed %d stages", len(spec.Stages))
	}
	gather := spec.Stages[3]
	if gather.ID != "gather" || gather.Benchmark != "credit-risk" ||
		gather.Offset != 30*time.Second || len(gather.Deps) != 2 {
		t.Fatalf("gather stage %+v", gather)
	}
	again, err := ParseWorkflowSpec(FormatWorkflowSpec(spec))
	if err != nil {
		t.Fatalf("re-parse of formatted spec: %v", err)
	}
	if len(again.Stages) != len(spec.Stages) {
		t.Fatalf("round trip lost stages: %d -> %d", len(spec.Stages), len(again.Stages))
	}
	for i := range spec.Stages {
		a, b := spec.Stages[i], again.Stages[i]
		if a.ID != b.ID || a.Benchmark != b.Benchmark || a.Offset != b.Offset ||
			strings.Join(a.Deps, ",") != strings.Join(b.Deps, ",") {
			t.Fatalf("round trip changed stage %d: %+v -> %+v", i, a, b)
		}
	}
}

func TestParseWorkflowSpecFindings(t *testing.T) {
	cases := []struct {
		name, script, want string
	}{
		{"empty graph", "", "empty workflow graph"},
		{"separators only", ";;\n ;", "empty workflow graph"},
		{"missing fields", "0s:a=x", "not offset:id=benchmark:deps"},
		{"no benchmark", "0s:a=:", "names no benchmark"},
		{"no id", "0s:=x:", "invalid workflow stage id"},
		{"bad offset", "soon:a=x:", "workflow stage offset"},
		{"negative offset", "-5s:a=x:", "negative workflow stage offset"},
		{"duplicate id", "0s:a=x:;0s:a=y:", "duplicate workflow stage id"},
		{"dangling dep", "0s:a=x:ghost", "undeclared stage"},
		{"self dep", "0s:a=x:a", "depends on itself"},
		{"duplicate dep", "0s:a=x:;0s:b=y:a,a", "twice"},
		{"two-cycle", "0s:a=x:b;0s:b=y:a", "cycle"},
		{"long cycle", "0s:a=x:c;0s:b=y:a;0s:c=z:b", "cycle"},
		// '/' separates the parts of a stage's object keys: stage "in/x"
		// would write its output over root "x"'s seeded input.
		{"slash in id", "0s:x=credit-risk:;0s:in/x=nl-query:x", "invalid workflow stage id"},
		{"slash in dep", "0s:x=credit-risk:;0s:y=nl-query:in/x", "invalid dependency id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseWorkflowSpec(tc.script)
			if err == nil {
				t.Fatalf("silently accepted %q: %+v", tc.script, spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateRejectsSlashInStageID covers specs built in code, which
// reach the graph without the parser's checks.
func TestValidateRejectsSlashInStageID(t *testing.T) {
	spec := &WorkflowSpec{Stages: []WorkflowStage{
		{ID: "x", Benchmark: "credit-risk"},
		{ID: "in/x", Benchmark: "nl-query", Deps: []string{"x"}},
	}}
	err := spec.Validate()
	if err == nil || err.Error() != `trace: invalid workflow stage id "in/x"` {
		t.Fatalf("Validate = %v, want the invalid stage id error", err)
	}
}

// TestWorkflowGraph pins the topology one Graph pass builds: dependencies
// in declaration order, dependents in ascending stage order whatever order
// the dependencies were declared in, roots in spec order.
func TestWorkflowGraph(t *testing.T) {
	spec, err := ParseWorkflowSpec("0s:d=z:c,b;0s:b=y:a;0s:a=x:;0s:c=y:a;0s:e=x:")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Graph()
	if err != nil {
		t.Fatal(err)
	}
	eq := func(what string, got []int, want ...int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	eq("Deps(d)", g.Deps(0), 3, 1)
	eq("Deps(b)", g.Deps(1), 2)
	eq("Deps(a)", g.Deps(2))
	eq("Dependents(a)", g.Dependents(2), 1, 3)
	eq("Dependents(b)", g.Dependents(1), 0)
	eq("Dependents(c)", g.Dependents(3), 0)
	eq("Dependents(d)", g.Dependents(0))
	eq("Roots", g.Roots(), 2, 4)
	// Every view is capped at its length: an append cannot reach the next
	// stage's edges.
	if deps := g.Deps(0); cap(deps) != len(deps) {
		t.Errorf("Deps(d) has capacity %d beyond its %d edges", cap(deps), len(deps))
	}
	if out := g.Dependents(2); cap(out) != len(out) {
		t.Errorf("Dependents(a) has capacity %d beyond its %d edges", cap(out), len(out))
	}
}

// TestWorkflowGraphAllocations pins a graph at one allocation, whatever
// its stage count.
func TestWorkflowGraphAllocations(t *testing.T) {
	for _, n := range []int{3, 64} {
		spec := chain(n)
		got := testing.AllocsPerRun(100, func() {
			if _, err := spec.Graph(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("a %d-stage chain's graph allocates %v times, want 1", n, got)
		}
	}
}

// chain returns an n-stage chain s0 → s1 → … in spec order.
func chain(n int) *WorkflowSpec {
	spec := &WorkflowSpec{}
	for i := 0; i < n; i++ {
		st := WorkflowStage{ID: fmt.Sprintf("s%d", i), Benchmark: "chatbot"}
		if i > 0 {
			st.Deps = []string{spec.Stages[i-1].ID}
		}
		spec.Stages = append(spec.Stages, st)
	}
	return spec
}

func TestWorkflowSpecRoots(t *testing.T) {
	spec, err := ParseWorkflowSpec("0s:a=x:;0s:b=y:;0s:c=z:a,b")
	if err != nil {
		t.Fatal(err)
	}
	roots := spec.Roots()
	if len(roots) != 2 || roots[0] != 0 || roots[1] != 1 {
		t.Fatalf("roots = %v", roots)
	}
}

func TestGenerateWorkflowsShapes(t *testing.T) {
	cfg := WorkflowConfig{Duration: 5 * time.Minute, Rate: 0.5, ETLShare: 0.5, FanOut: 3}
	tr, err := GenerateWorkflows(cfg, workload.Suite(), sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Workflows) == 0 {
		t.Fatal("empty workflow trace")
	}
	etl, ml := 0, 0
	for _, w := range tr.Workflows {
		if err := w.Spec.Validate(); err != nil {
			t.Fatalf("workflow %d: %v", w.ID, err)
		}
		if w.At < 0 || w.At >= cfg.Duration {
			t.Fatalf("workflow %d arrives at %v outside the trace", w.ID, w.At)
		}
		switch len(w.Spec.Stages) {
		case 3: // pre → infer → post
			ml++
		case 2 + cfg.FanOut: // extract → shards → gather
			etl++
			// The shards must share one benchmark so parallel unlocks can
			// coalesce through the batch former.
			bench := w.Spec.Stages[1].Benchmark
			for _, st := range w.Spec.Stages[1 : 1+cfg.FanOut] {
				if st.Benchmark != bench {
					t.Fatalf("workflow %d shards mix benchmarks", w.ID)
				}
				if len(st.Deps) != 1 || st.Deps[0] != "extract" {
					t.Fatalf("workflow %d shard deps %v", w.ID, st.Deps)
				}
			}
		default:
			t.Fatalf("workflow %d has unexpected shape (%d stages)", w.ID, len(w.Spec.Stages))
		}
	}
	if etl == 0 || ml == 0 {
		t.Fatalf("one class missing: %d ETL, %d ML", etl, ml)
	}
	if tr.Stages() == 0 {
		t.Fatal("zero stage total")
	}
	// Same seed, same trace.
	again, err := GenerateWorkflows(cfg, workload.Suite(), sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Workflows) != len(tr.Workflows) {
		t.Fatalf("regeneration drifted: %d vs %d workflows", len(again.Workflows), len(tr.Workflows))
	}
	for i := range tr.Workflows {
		if again.Workflows[i].At != tr.Workflows[i].At ||
			FormatWorkflowSpec(again.Workflows[i].Spec) != FormatWorkflowSpec(tr.Workflows[i].Spec) {
			t.Fatalf("workflow %d drifted across regenerations", i)
		}
	}
}

func TestGenerateWorkflowsRejectsDegenerate(t *testing.T) {
	rng := sim.NewRNG(1)
	bad := []WorkflowConfig{
		{},
		{Duration: time.Minute, Rate: 0, ETLShare: 0.5, FanOut: 2},
		{Duration: time.Minute, Rate: 1, ETLShare: 1.5, FanOut: 2},
		{Duration: time.Minute, Rate: 1, ETLShare: 0.5, FanOut: 0},
	}
	for _, cfg := range bad {
		if _, err := GenerateWorkflows(cfg, workload.Suite(), rng); err == nil {
			t.Fatalf("accepted degenerate config %+v", cfg)
		}
	}
	good := WorkflowConfig{Duration: time.Minute, Rate: 1, ETLShare: 0.5, FanOut: 2}
	if _, err := GenerateWorkflows(good, nil, rng); err == nil {
		t.Fatal("accepted an empty suite")
	}
}
