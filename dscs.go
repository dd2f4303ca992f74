// Package dscs is the public API of the DSCS-Serverless reproduction — an
// execution model for serverless computing that integrates a small
// domain-specific accelerator (DSA) inside computational storage drives to
// eliminate the disaggregated-storage data movement that otherwise caps the
// benefit of acceleration (Mahapatra et al., ASPLOS 2024).
//
// The package surfaces four layers:
//
//   - The benchmark suite and model zoo (Table 1): Suite, Models.
//   - The accelerator toolchain: PaperDSA, Compile, Simulate, and the
//     design-space exploration (ExploreDesignSpace) behind Figures 7-8.
//   - The serverless system: NewEnvironment wires storage nodes,
//     DSCS-Drives, the object store, and one invocation runner per
//     evaluated platform; Runner.Invoke returns end-to-end latency
//     breakdowns and system energy.
//   - The evaluation: Experiments lists one reproducible runner per table
//     and figure in the paper; RunExperiment executes one by id.
//
// Everything is deterministic for a fixed seed and uses only the standard
// library.
package dscs

import (
	"net/http"

	"dscs/internal/compiler"
	"dscs/internal/dsa"
	"dscs/internal/dse"
	"dscs/internal/experiments"
	"dscs/internal/faas"
	"dscs/internal/gateway"
	"dscs/internal/isa"
	"dscs/internal/model"
	"dscs/internal/platform"
	"dscs/internal/power"
	"dscs/internal/serve"
	"dscs/internal/units"
	"dscs/internal/workload"
)

// Core system types re-exported for downstream use.
type (
	// Environment is a fully wired single-rack setup: object store,
	// DSCS-Drives, and one runner per Table 2 platform.
	Environment = experiments.Environment
	// Experiment is one reproducible table/figure runner.
	Experiment = experiments.Spec
	// ExperimentResult carries the printable table and named findings.
	ExperimentResult = experiments.Result

	// Benchmark is one Table 1 application (three-function chain).
	Benchmark = workload.Benchmark
	// Runner invokes applications on one platform.
	Runner = faas.Runner
	// InvokeOptions tune an invocation (batch, cold start, tail quantile).
	InvokeOptions = faas.Options
	// InvokeResult is an invocation's latency breakdown and energy.
	InvokeResult = faas.Result

	// Model is a neural-network graph from the zoo.
	Model = model.Graph
	// DSAConfig is one accelerator design point.
	DSAConfig = dsa.Config
	// DSAStats is a cycle-level execution summary.
	DSAStats = dsa.Stats
	// Program is a compiled DSA executable.
	Program = isa.Program
	// DesignPoint is one evaluated configuration in the design space.
	DesignPoint = dse.Point
	// Platform is one Table 2 compute platform.
	Platform = platform.Compute

	// Server is the concurrent serving engine: per-platform worker pools,
	// bounded-queue admission control with pluggable scheduling policies,
	// and same-benchmark request batching.
	Server = serve.Engine
	// ServeOptions tune the serving engine (workers, queue depth, policy,
	// batching and its linger deadline, DSCS-to-CPU spillover).
	ServeOptions = serve.Options
	// ServedInvocation is one engine-served request with its queueing and
	// batching telemetry.
	ServedInvocation = serve.Invocation
	// Gateway is the OpenFaaS-style HTTP front end over the serving
	// engine; call Close to stop its worker pools.
	Gateway = gateway.Gateway
)

// NewEnvironment builds the default evaluation environment with the given
// random seed (the paper's setup: six storage nodes, two DSCS-Drives,
// three-way replication, seven platforms).
func NewEnvironment(seed uint64) (*Environment, error) {
	return experiments.NewEnvironment(seed)
}

// Suite returns the eight Table 1 benchmarks. They are the process-wide
// catalogue's, shared with every caller, and must not be mutated.
func Suite() []*Benchmark { return workload.Suite() }

// BenchmarkBySlug returns one benchmark by its machine name, or nil: the
// catalogue's shared object, which must not be mutated.
func BenchmarkBySlug(slug string) *Benchmark { return workload.BySlug(slug) }

// Models returns the zoo behind the suite: the inference model of each
// Suite benchmark, in the same order. The slice is the caller's; the
// graphs are the shared catalogue's and must not be mutated.
func Models() []*Model {
	suite := workload.Suite()
	models := make([]*Model, len(suite))
	for i, b := range suite {
		models[i] = b.Model
	}
	return models
}

// Platforms returns the Table 2 lineup.
func Platforms() []Platform { return platform.All() }

// PaperDSA returns the design point the paper's DSE selects: a 128x128
// systolic array with 4 MB of on-chip buffers on DDR5 at 1 GHz.
func PaperDSA() DSAConfig { return dsa.PaperOptimal() }

// Compile lowers a model onto a DSA design point at the given batch size:
// operator fusion, buffer-constrained tiling, and dataflow selection.
func Compile(g *Model, batch int, cfg DSAConfig) (*Program, error) {
	return compiler.Compile(g, batch, cfg, compiler.Options{})
}

// Simulate executes a compiled program on the cycle-level DSA simulator and
// returns its statistics; use DSAConfig.Freq to convert cycles to time.
func Simulate(p *Program, cfg DSAConfig) (DSAStats, error) {
	sim, err := dsa.New(cfg)
	if err != nil {
		return DSAStats{}, err
	}
	return sim.Run(p)
}

// DSAEnergy estimates the 14 nm energy and average power of an execution.
func DSAEnergy(st DSAStats, cfg DSAConfig) (units.Energy, units.Power) {
	sim, err := dsa.New(cfg)
	if err != nil {
		return 0, 0
	}
	return sim.Energy(st, power.Node14nm)
}

// ExploreDesignSpace runs the paper's full Section 4.2 exploration (more
// than 650 configurations) and returns every evaluated point; use
// ParetoPower/ParetoArea to extract the frontiers.
func ExploreDesignSpace() ([]DesignPoint, error) {
	return dse.Explore(dse.PaperSpace(), power.Node45nm)
}

// ParetoPower extracts the power-performance frontier (Figure 7).
func ParetoPower(points []DesignPoint) []DesignPoint { return dse.ParetoPower(points) }

// ParetoArea extracts the area-performance frontier (Figure 8).
func ParetoArea(points []DesignPoint) []DesignPoint { return dse.ParetoArea(points) }

// OptimalDesign applies the paper's selection rule: feasible within the
// drive power budget and on both frontiers.
func OptimalDesign(points []DesignPoint) (DesignPoint, bool) { return dse.Optimal(points) }

// Experiments returns every table/figure reproduction in the paper's order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one experiment by id ("table1", "fig3", ... "fig17").
func RunExperiment(id string, env *Environment) (*ExperimentResult, error) {
	spec, ok := experiments.ByID(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return spec.Run(env)
}

// DeploymentYAML renders the extended OpenFaaS-style deployment file for a
// benchmark, including the in-storage acceleration hints.
func DeploymentYAML(b *Benchmark) string { return faas.DeploymentYAML(b) }

// NewServer builds the concurrent serving engine over an environment's
// runners — one worker pool per Table 2 platform. Zero-valued options get
// the defaults (4 workers/platform, 256-deep queues, FCFS, batch 8).
func NewServer(env *Environment, opt ServeOptions) (*Server, error) {
	return serve.NewEngine(env.Runners, opt)
}

// SchedulingPolicies lists the accepted ServeOptions.PolicyName values.
func SchedulingPolicies() []string { return serve.PolicyNames() }

// NewGateway builds the OpenFaaS-style HTTP front end over an
// environment's runners: POST /system/functions deploys a YAML application,
// POST /function/<name> invokes it through the serving engine (routed to
// DSCS when the chain carries acceleration hints, HTTP 429 when admission
// control rejects), GET /metrics scrapes telemetry including queue depth,
// drops, and batch occupancy. Call Close when done to stop the engine's
// worker pools.
func NewGateway(env *Environment, opt ServeOptions) (*Gateway, error) {
	return gateway.NewWithOptions(env.Runners,
		platform.DSCS().Name(), platform.BaselineCPU().Name(), opt)
}

// NewGatewayHandler is NewGateway for callers that only need the handler
// and keep it for the process lifetime; the underlying engine's worker
// pools cannot be stopped through the returned handler — use NewGateway
// (and its Close) when the gateway's lifetime is shorter than the
// process's.
func NewGatewayHandler(env *Environment) (http.Handler, error) {
	gw, err := NewGateway(env, ServeOptions{})
	if err != nil {
		return nil, err
	}
	return gw.Handler(), nil
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "dscs: unknown experiment " + string(e) + " (try table1..table2, fig3..fig17)"
}
