// Package experiments wires the full system together and implements one
// runner per table/figure of the paper's evaluation, producing the same
// rows and series the paper reports.
package experiments

import (
	"fmt"

	"dscs/internal/csd"
	"dscs/internal/faas"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/workload"
)

// Environment is a fully wired single-rack setup: an object store spanning
// conventional and DSCS-capable storage nodes, and one invocation runner
// per Table 2 platform.
type Environment struct {
	Seed      uint64
	RNG       *sim.RNG
	Store     *objstore.Store
	Platforms []platform.Compute
	Runners   map[string]*faas.Runner
	Suite     []*workload.Benchmark

	// sweep caches the (expensive) design-space exploration shared by
	// Figures 7 and 8, with what both derive from it.
	sweep *exploration
	// suiteRes caches the per-platform suite invocations shared by
	// Figures 9-12.
	suiteRes map[string]map[string]faas.Result
}

// NewEnvironment builds the default environment: six storage nodes, two of
// them DSCS-Drives, three-way replication.
func NewEnvironment(seed uint64) (*Environment, error) {
	rng := sim.NewRNG(seed)
	var nodes []*objstore.Node
	for i := 0; i < 4; i++ {
		drive, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("ssd-%d", i), Kind: objstore.PlainSSD, SSD: drive,
		})
	}
	for i := 0; i < 2; i++ {
		drive, err := csd.New(csd.Default())
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &objstore.Node{
			ID: fmt.Sprintf("dscs-%d", i), Kind: objstore.DSCSDrive, CSD: drive,
		})
	}
	store, err := objstore.New(objstore.Default(), nodes, rng.Split())
	if err != nil {
		return nil, err
	}
	platforms := platform.All()
	runners := make(map[string]*faas.Runner, len(platforms))
	for _, p := range platforms {
		runners[p.Name()] = faas.NewRunner(store, p)
	}
	return &Environment{
		Seed:      seed,
		RNG:       rng,
		Store:     store,
		Platforms: platforms,
		Runners:   runners,
		Suite:     workload.Suite(),
	}, nil
}

// Runner returns the runner for a platform name.
func (e *Environment) Runner(name string) (*faas.Runner, error) {
	r, ok := e.Runners[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown platform %q", name)
	}
	return r, nil
}

// Baseline returns the Baseline (CPU) runner.
func (e *Environment) Baseline() *faas.Runner {
	return e.Runners[platform.BaselineCPU().Name()]
}

// DSCS returns the DSCS-Serverless runner.
func (e *Environment) DSCS() *faas.Runner {
	return e.Runners[platform.DSCS().Name()]
}
