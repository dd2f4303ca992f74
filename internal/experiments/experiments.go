package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dscs/internal/metrics"
)

// Result is one experiment's reproduction output: the printable table (the
// rows/series the paper's figure reports), named scalar findings used by
// the regression tests and the benchmark's paper-reference error, and any
// time series.
type Result struct {
	ID     string
	Title  string
	Table  *metrics.Table
	Values map[string]float64
	Series []*metrics.Series
}

// Value returns a named finding (0 when missing).
func (r *Result) Value(name string) float64 { return r.Values[name] }

// String renders the result for the CLI.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		out += r.Table.String()
	}
	if len(r.Values) > 0 {
		names := make([]string, 0, len(r.Values))
		for k := range r.Values {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			out += fmt.Sprintf("%-40s %.3f\n", k, r.Values[k])
		}
	}
	return out
}

// Spec registers one reproducible experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(env *Environment) (*Result, error)
}

// All returns every experiment in the paper's order.
func All() []Spec {
	return []Spec{
		{"table1", "Benchmark suite (models, parameters, payload sizes)", Table1},
		{"table2", "Evaluated platform specifications", Table2},
		{"fig3", "CDF of reading inputs from disaggregated storage", Fig3},
		{"fig4", "Baseline runtime breakdown (communication dominates)", Fig4},
		{"fig7", "Power-performance Pareto frontier, 45nm", Fig7},
		{"fig8", "Area-performance Pareto frontier, 45nm", Fig8},
		{"fig9", "Normalized end-to-end speedup across platforms", Fig9},
		{"fig10", "Normalized runtime breakdown across platforms", Fig10},
		{"fig11", "Normalized system energy reduction", Fig11},
		{"fig12", "Normalized cost efficiency", Fig12},
		{"fig13", "At-scale wall-clock latency and queueing", Fig13},
		{"fig14", "Sensitivity to batch size", Fig14},
		{"fig15", "Sensitivity to storage access tail latency", Fig15},
		{"fig16", "Sensitivity to the number of accelerated functions", Fig16},
		{"fig17", "Sensitivity to cold vs. warm containers", Fig17},
		{"ext-sched", "Extension: Section 5.3 scheduling policies", ExtScheduling},
		{"ext-batchform", "Extension: global SLO-aware batch forming (Fig 14 regime)", ExtBatchFormer},
		{"ext-memcache", "Extension: keep-warm DSA memory with P2P reloads", ExtMemcache},
		{"ext-scatter", "Extension: parallel execution across CSDs", ExtScatter},
		{"ext-failover", "Extension: drive failure, fallback, re-replication", ExtFailover},
		{"ext-scaling", "Extension: technology-scaling projection (Section 4)", ExtScaling},
	}
}

// ByID finds an experiment spec.
func ByID(id string) (Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// fanOut runs fn(0) … fn(n-1) on min(n, GOMAXPROCS) goroutines and returns
// the lowest-index error. It is how an experiment runs its independent
// replays side by side: each fn(i) writes only its own index of the
// caller's result slices and shares nothing mutable with another index
// (any RNG stream it draws from is one no other index uses, seeded or
// split for it before the call or inside it), so the rows and values built
// from those slices afterwards are the same at any width.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
