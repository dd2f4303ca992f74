// workflow.go is the workflow trace class: invocation DAGs whose stage
// outputs become stage inputs as object-store objects. Like the fault
// scripts it is pure data — a spec says which stages exist, what each runs,
// and what it waits on; the serve core and the sims decide where a stage
// runs and what an unlock costs. The text spelling mirrors ParseFaultScript
// so operators compose both on the same command line.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dscs/internal/sim"
	"dscs/internal/workload"
)

// WorkflowStage is one node of the invocation graph: a benchmark invocation
// that may not start before Offset from workflow arrival and before every
// dependency has completed and written its output object.
type WorkflowStage struct {
	ID        string
	Benchmark string // workload slug
	Offset    time.Duration
	Deps      []string // stage IDs whose outputs this stage reads
}

// String formats the stage in the script spelling.
func (st WorkflowStage) String() string {
	return fmt.Sprintf("%s:%s=%s:%s", st.Offset, st.ID, st.Benchmark, strings.Join(st.Deps, ","))
}

// WorkflowSpec is one workflow's invocation graph in spec order.
type WorkflowSpec struct {
	Stages []WorkflowStage
}

// stageIDRune reports whether r may appear in a stage ID: anything except
// the separators the spelling reserves and whitespace.
func stageIDRune(r rune) bool {
	switch r {
	case ':', ';', ',', '=', '\n':
		return false
	}
	return !strings.ContainsRune(" \t\r", r)
}

// validStageID rejects empty IDs and IDs carrying separator runes.
func validStageID(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		if !stageIDRune(r) {
			return false
		}
	}
	return true
}

// ParseWorkflowSpec decodes an invocation graph of the form
//
//	0s:extract=credit-risk:;0s:shard0=nl-query:extract;0s:gather=credit-risk:shard0
//
// — stages separated by ';' or newlines, each "offset:id=benchmark:deps"
// with deps a comma-separated list of stage IDs (empty for a root stage).
// The offset is the stage's earliest start relative to workflow arrival;
// dependencies gate it further. Stages are returned in script order and the
// graph is validated: duplicate IDs, dangling or duplicate dependencies,
// self-dependencies, cycles, and the empty graph are all errors — a spec
// that parses is a spec the executor can run to completion.
func ParseWorkflowSpec(script string) (*WorkflowSpec, error) {
	spec := &WorkflowSpec{}
	for _, line := range strings.FieldsFunc(script, func(r rune) bool {
		return r == ';' || r == '\n'
	}) {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ":", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace: workflow stage %q is not offset:id=benchmark:deps", line)
		}
		offset, err := time.ParseDuration(parts[0])
		if err != nil {
			return nil, fmt.Errorf("trace: workflow stage offset %q: %w", parts[0], err)
		}
		if offset < 0 {
			return nil, fmt.Errorf("trace: negative workflow stage offset %q", parts[0])
		}
		id, bench, ok := strings.Cut(parts[1], "=")
		if !ok {
			return nil, fmt.Errorf("trace: workflow stage %q is missing id=benchmark", line)
		}
		id, bench = strings.TrimSpace(id), strings.TrimSpace(bench)
		if !validStageID(id) {
			return nil, fmt.Errorf("trace: invalid workflow stage id %q", id)
		}
		if bench == "" {
			return nil, fmt.Errorf("trace: workflow stage %q names no benchmark", id)
		}
		st := WorkflowStage{ID: id, Benchmark: bench, Offset: offset}
		for _, dep := range strings.Split(parts[2], ",") {
			dep = strings.TrimSpace(dep)
			if dep == "" {
				continue
			}
			if !validStageID(dep) {
				return nil, fmt.Errorf("trace: stage %q has an invalid dependency id %q", id, dep)
			}
			st.Deps = append(st.Deps, dep)
		}
		spec.Stages = append(spec.Stages, st)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Validate checks the graph: at least one stage, unique stage IDs, every
// dependency resolving to a declared stage exactly once, no
// self-dependencies, and no cycles (Kahn's topological sort must consume
// every stage).
func (spec *WorkflowSpec) Validate() error {
	if spec == nil || len(spec.Stages) == 0 {
		return fmt.Errorf("trace: empty workflow graph")
	}
	idx := make(map[string]int, len(spec.Stages))
	for i, st := range spec.Stages {
		if !validStageID(st.ID) {
			return fmt.Errorf("trace: invalid workflow stage id %q", st.ID)
		}
		if st.Benchmark == "" {
			return fmt.Errorf("trace: workflow stage %q names no benchmark", st.ID)
		}
		if st.Offset < 0 {
			return fmt.Errorf("trace: workflow stage %q has a negative offset", st.ID)
		}
		if _, dup := idx[st.ID]; dup {
			return fmt.Errorf("trace: duplicate workflow stage id %q", st.ID)
		}
		idx[st.ID] = i
	}
	pending := make([]int, len(spec.Stages))
	dependents := make([][]int, len(spec.Stages))
	for i, st := range spec.Stages {
		seen := make(map[string]bool, len(st.Deps))
		for _, dep := range st.Deps {
			j, ok := idx[dep]
			if !ok {
				return fmt.Errorf("trace: stage %q depends on undeclared stage %q", st.ID, dep)
			}
			if dep == st.ID {
				return fmt.Errorf("trace: stage %q depends on itself", st.ID)
			}
			if seen[dep] {
				return fmt.Errorf("trace: stage %q declares dependency %q twice", st.ID, dep)
			}
			seen[dep] = true
			pending[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	// Kahn's sort: if it cannot consume every stage, what remains is a
	// cycle.
	ready := make([]int, 0, len(spec.Stages))
	for i, n := range pending {
		if n == 0 {
			ready = append(ready, i)
		}
	}
	consumed := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		consumed++
		for _, j := range dependents[i] {
			if pending[j]--; pending[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if consumed != len(spec.Stages) {
		stuck := make([]string, 0, len(spec.Stages)-consumed)
		for i, n := range pending {
			if n > 0 {
				stuck = append(stuck, spec.Stages[i].ID)
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("trace: workflow graph has a cycle through %s", strings.Join(stuck, ", "))
	}
	return nil
}

// Roots returns the indices of stages with no dependencies, in spec order.
func (spec *WorkflowSpec) Roots() []int {
	var roots []int
	for i, st := range spec.Stages {
		if len(st.Deps) == 0 {
			roots = append(roots, i)
		}
	}
	return roots
}

// Workflow is one arrival of the workflow trace: at At, the whole graph is
// admitted and its root stages unlock.
type Workflow struct {
	ID   int
	At   time.Duration
	Spec *WorkflowSpec
}

// WorkflowTrace is an ordered workflow arrival sequence.
type WorkflowTrace struct {
	Workflows []Workflow
	Duration  time.Duration
}

// Stages totals the stages across every workflow in the trace.
func (tr *WorkflowTrace) Stages() int {
	n := 0
	for _, w := range tr.Workflows {
		n += len(w.Spec.Stages)
	}
	return n
}

// WorkflowConfig parameterizes GenerateWorkflows: a Poisson arrival process
// of two workflow classes — ETL scatter-gather (extract fans out to FanOut
// parallel same-benchmark transform shards, a gather joins them) and ML
// chains (preprocess, infer, postprocess in sequence).
type WorkflowConfig struct {
	Duration time.Duration
	// Rate is workflow arrivals per second.
	Rate float64
	// ETLShare is the fraction of arrivals drawn as ETL scatter-gather
	// graphs; the rest are ML chains. Must lie in [0, 1].
	ETLShare float64
	// FanOut is the ETL transform width (>= 1). The shards run the same
	// benchmark so parallel unlocks coalesce through the batch former.
	FanOut int
}

// Validate rejects degenerate configs.
func (c WorkflowConfig) Validate() error {
	if c.Duration <= 0 || c.Rate <= 0 {
		return fmt.Errorf("trace: invalid workflow arrival profile")
	}
	if c.ETLShare < 0 || c.ETLShare > 1 {
		return fmt.Errorf("trace: ETLShare must lie in [0, 1]")
	}
	if c.FanOut < 1 {
		return fmt.Errorf("trace: FanOut must be >= 1")
	}
	return nil
}

// etlSpec builds one ETL scatter-gather graph: extract → FanOut parallel
// transform shards (one benchmark, so they batch together) → gather.
func etlSpec(fanOut int, extract, transform, gather string) *WorkflowSpec {
	spec := &WorkflowSpec{Stages: []WorkflowStage{
		{ID: "extract", Benchmark: extract},
	}}
	shards := make([]string, fanOut)
	for i := 0; i < fanOut; i++ {
		id := fmt.Sprintf("shard%d", i)
		shards[i] = id
		spec.Stages = append(spec.Stages, WorkflowStage{
			ID: id, Benchmark: transform, Deps: []string{"extract"},
		})
	}
	spec.Stages = append(spec.Stages, WorkflowStage{
		ID: "gather", Benchmark: gather, Deps: shards,
	})
	return spec
}

// mlSpec builds one ML chain: preprocess → infer → postprocess.
func mlSpec(pre, infer, post string) *WorkflowSpec {
	return &WorkflowSpec{Stages: []WorkflowStage{
		{ID: "pre", Benchmark: pre},
		{ID: "infer", Benchmark: infer, Deps: []string{"pre"}},
		{ID: "post", Benchmark: post, Deps: []string{"infer"}},
	}}
}

// GenerateWorkflows draws the workflow arrival sequence: a homogeneous
// Poisson process at cfg.Rate, each arrival an ETL scatter-gather graph
// with probability cfg.ETLShare and an ML chain otherwise, stage benchmarks
// sampled uniformly from the suite.
func GenerateWorkflows(cfg WorkflowConfig, suite []*workload.Benchmark, rng *sim.RNG) (*WorkflowTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("trace: empty suite")
	}
	pick := func() string { return suite[rng.Intn(len(suite))].Slug }
	tr := &WorkflowTrace{Duration: cfg.Duration}
	meanGap := time.Duration(float64(time.Second) / cfg.Rate)
	t := time.Duration(0)
	id := 0
	for {
		t += rng.Exp(meanGap)
		if t >= cfg.Duration {
			break
		}
		var spec *WorkflowSpec
		if rng.Float64() < cfg.ETLShare {
			spec = etlSpec(cfg.FanOut, pick(), pick(), pick())
		} else {
			spec = mlSpec(pick(), pick(), pick())
		}
		tr.Workflows = append(tr.Workflows, Workflow{ID: id, At: t, Spec: spec})
		id++
	}
	return tr, nil
}
