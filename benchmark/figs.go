package main

import (
	"fmt"
	"reflect"
	"time"

	"dscs"
)

// setupExperiments are run once per paper-figs set-up, after the fresh
// environment is built: the cheap tables and figures, which fill the
// process-wide compiled-program cache and pay one design-space exploration
// (fig7) — so dse.explore_ms and the cold compile path land in setup_s.
var setupExperiments = []string{"table1", "table2", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig15", "fig16", "fig17"}

// figsRunner is the paper-figs workload: what `dscsbench -run all` does.
// Block i is experiment i of a pass; every pass starts from a fresh
// environment, so the cold path (dse, compiler, dsa, isa, experiments) is
// paid every time. One op is one experiment.
type figsRunner struct {
	seed  uint64
	specs []dscs.Experiment
	env   *dscs.Environment
	first map[string]map[string]float64 // findings of the first pass, by experiment
	err   error
	wall  [1]time.Duration
}

func buildFigs(seed uint64) (*figsRunner, error) {
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return nil, err
	}
	for _, id := range setupExperiments {
		if _, err := dscs.RunExperiment(id, env); err != nil {
			return nil, err
		}
	}
	return &figsRunner{seed: seed, specs: dscs.Experiments(), first: make(map[string]map[string]float64)}, nil
}

func (r *figsRunner) run(i int) (int, time.Duration, []time.Duration) {
	spec := r.specs[i%len(r.specs)]
	start := time.Now()
	if i%len(r.specs) == 0 {
		if r.env, r.err = dscs.NewEnvironment(r.seed); r.err != nil {
			return 1, time.Since(start), r.wall[:]
		}
	}
	var res *dscs.ExperimentResult
	res, r.err = dscs.RunExperiment(spec.ID, r.env)
	r.wall[0] = time.Since(start)
	if r.err == nil {
		if want, seen := r.first[spec.ID]; !seen {
			r.first[spec.ID] = res.Values
		} else if !reflect.DeepEqual(res.Values, want) {
			// Every pass runs the same experiments in the same order on a
			// fresh same-seed environment, so findings must match bit for bit.
			r.err = fmt.Errorf("%s differs between two same-seed environments", spec.ID)
		}
	}
	return 1, r.wall[0], r.wall[:]
}

func (r *figsRunner) check(t *tally) { t.expect(r.err, "experiment") }

func (r *figsRunner) finish(*tally) {}
