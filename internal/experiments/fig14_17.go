package experiments

import (
	"fmt"

	"dscs/internal/faas"
	"dscs/internal/metrics"
	"dscs/internal/workload"
)

// dscsSpeedup invokes one benchmark on the baseline and DSCS with the same
// options and returns the ratio.
func (e *Environment) dscsSpeedup(b *workload.Benchmark, opt faas.Options) (float64, error) {
	base, err := e.Baseline().Invoke(b, opt)
	if err != nil {
		return 0, err
	}
	dscs, err := e.DSCS().Invoke(b, opt)
	if err != nil {
		return 0, err
	}
	return base.Total().Seconds() / dscs.Total().Seconds(), nil
}

func suiteBySlug(e *Environment, slug string) *workload.Benchmark {
	for _, b := range e.Suite {
		if b.Slug == slug {
			return b
		}
	}
	return nil
}

// geomeanAcrossSuite computes the suite geomean of DSCS speedup at options.
func (e *Environment) geomeanAcrossSuite(opt faas.Options) (float64, map[string]float64, error) {
	per := make(map[string]float64, len(e.Suite))
	var ratios []float64
	for _, b := range e.Suite {
		s, err := e.dscsSpeedup(b, opt)
		if err != nil {
			return 0, nil, err
		}
		per[b.Slug] = s
		ratios = append(ratios, s)
	}
	return metrics.Geomean(ratios), per, nil
}

// Fig14 reproduces the batch-size sensitivity: DSCS speedup over the
// baseline at the same batch, from 1 to 64 (the AWS payload cap bounds the
// batch). The paper reports 3.6x growing to 15.8x, driven by DSA weight
// reuse across the batch — strongest for the language models.
func Fig14(env *Environment) (*Result, error) {
	batches := []int{1, 2, 4, 8, 16, 32, 64}
	t := metrics.NewTable("Figure 14: sensitivity to batch size",
		"Batch", "Geomean speedup", "chatbot", "translation", "ppe-detection")
	values := map[string]float64{}
	for _, batch := range batches {
		gm, per, err := env.geomeanAcrossSuite(faas.Options{Batch: batch, Quantile: 0.5})
		if err != nil {
			return nil, err
		}
		t.AddRow(batch, gm, per["chatbot"], per["translation"], per["ppe-detection"])
		values[fmt.Sprintf("geomean/batch%d", batch)] = gm
		values[fmt.Sprintf("chatbot/batch%d", batch)] = per["chatbot"]
		values[fmt.Sprintf("translation/batch%d", batch)] = per["translation"]
	}
	values["growth_1_to_64"] = values["geomean/batch64"] / values["geomean/batch1"]
	return &Result{ID: "fig14", Title: "Sensitivity to batch size", Table: t, Values: values}, nil
}

// Fig15 reproduces the tail-latency sensitivity: both systems evaluated at
// the same network quantile; DSCS's advantage grows toward the tail because
// it removed the network from f1/f2 (paper: 3.1x at p50, 5.0x at p99).
func Fig15(env *Environment) (*Result, error) {
	quantiles := []float64{0.50, 0.75, 0.90, 0.95, 0.99}
	t := metrics.NewTable("Figure 15: sensitivity to storage access tail latency",
		"Percentile", "Geomean speedup")
	values := map[string]float64{}
	for _, q := range quantiles {
		gm, _, err := env.geomeanAcrossSuite(faas.Options{Quantile: q})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("p%.0f", q*100), gm)
		values[fmt.Sprintf("speedup/p%.0f", q*100)] = gm
	}
	values["tail_amplification"] = values["speedup/p99"] / values["speedup/p50"]
	return &Result{ID: "fig15", Title: "Sensitivity to tail latency", Table: t, Values: values}, nil
}

// Fig16 reproduces the accelerated-function-count sensitivity: duplicates
// of f2 appended to the chain (paper: 3.6x at +0 escalating to 8.1x at +3,
// because each extra traditional function pays another storage round-trip
// while DSCS keeps the chain on-drive).
func Fig16(env *Environment) (*Result, error) {
	t := metrics.NewTable("Figure 16: sensitivity to the number of accelerated functions",
		"Extra accelerated functions", "Geomean speedup")
	values := map[string]float64{}
	for extra := 0; extra <= 3; extra++ {
		gm, _, err := env.geomeanAcrossSuite(faas.Options{ExtraAccelFuncs: extra, Quantile: 0.5})
		if err != nil {
			return nil, err
		}
		t.AddRow(extra, gm)
		values[fmt.Sprintf("speedup/extra%d", extra)] = gm
	}
	values["escalation"] = values["speedup/extra3"] / values["speedup/extra0"]
	return &Result{ID: "fig16", Title: "Sensitivity to accelerated functions", Table: t, Values: values}, nil
}

// Fig17 reproduces the cold-start sensitivity: both systems pull container
// images (including weights) before serving (paper: warm 3.6x falls to
// cold 2.6x).
func Fig17(env *Environment) (*Result, error) {
	t := metrics.NewTable("Figure 17: cold vs. warm containers",
		"Container state", "Geomean speedup")
	values := map[string]float64{}
	warm, _, err := env.geomeanAcrossSuite(faas.Options{Quantile: 0.5})
	if err != nil {
		return nil, err
	}
	cold, _, err := env.geomeanAcrossSuite(faas.Options{Cold: true, Quantile: 0.5})
	if err != nil {
		return nil, err
	}
	t.AddRow("warm", warm)
	t.AddRow("cold", cold)
	values["speedup/warm"] = warm
	values["speedup/cold"] = cold
	values["cold_penalty"] = warm / cold
	return &Result{ID: "fig17", Title: "Cold vs. warm containers", Table: t, Values: values}, nil
}
