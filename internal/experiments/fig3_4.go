package experiments

import (
	"time"

	"dscs/internal/faas"
	"dscs/internal/metrics"
)

// Fig3Samples is the per-benchmark read count (the paper issues 10,000
// requests per application).
const Fig3Samples = 10000

// Fig3 reproduces the storage-read CDF: for each benchmark, the
// distribution of reading its input from the disaggregated store, with the
// paper's headline statistic — p99 about 110% above the median on average.
func Fig3(env *Environment) (*Result, error) {
	t := metrics.NewTable("Figure 3: read-latency distribution",
		"Benchmark", "p50(ms)", "p95(ms)", "p99(ms)", "p99/p50")
	values := map[string]float64{}
	var series []*metrics.Series
	var ratios []float64

	base := env.Baseline()
	for _, b := range env.Suite {
		// Deploy the input object once (request arrival is out of band).
		if _, err := base.Invoke(b, faas.Options{Quantile: 0.5}); err != nil {
			return nil, err
		}
		key := b.Slug + "/input"
		sample := metrics.NewSample(Fig3Samples)
		for i := 0; i < Fig3Samples; i++ {
			lat, _, err := env.Store.GetAt(key, -1)
			if err != nil {
				return nil, err
			}
			sample.Add(lat)
		}
		p50 := sample.Percentile(0.5)
		p99 := sample.Percentile(0.99)
		ratio := float64(p99) / float64(p50)
		ratios = append(ratios, ratio)
		t.AddRow(b.Name,
			float64(p50)/float64(time.Millisecond),
			float64(sample.Percentile(0.95))/float64(time.Millisecond),
			float64(p99)/float64(time.Millisecond),
			ratio)
		values["p50_ms/"+b.Slug] = p50.Seconds() * 1e3
		values["p99_over_p50/"+b.Slug] = ratio

		s := &metrics.Series{Name: b.Slug}
		for _, pt := range sample.CDF(50) {
			s.Add(pt.Value, pt.Frac)
		}
		series = append(series, s)
	}
	values["mean_p99_over_p50"] = metrics.Mean(ratios)
	return &Result{
		ID: "fig3", Title: "CDF of reading inputs from disaggregated storage",
		Table: t, Values: values, Series: series,
	}, nil
}

// Fig4 reproduces the baseline runtime breakdown: communication (network +
// I/O) dominates (>55% on average, >=70% for three benchmarks), and the
// Amdahl bound on compute-only acceleration sits near 1.5x.
func Fig4(env *Environment) (*Result, error) {
	t := metrics.NewTable("Figure 4: baseline runtime breakdown",
		"Benchmark", "Compute%", "Communication%", "Stack%", "Total(ms)")
	values := map[string]float64{}
	var commFracs, computeFracs []float64

	base := env.Baseline()
	for _, b := range env.Suite {
		res, err := base.Invoke(b, faas.Options{Quantile: 0.5})
		if err != nil {
			return nil, err
		}
		total := res.Total().Seconds()
		comm := (res.Breakdown.RemoteRead + res.Breakdown.RemoteWrite +
			res.Breakdown.Notify + res.Breakdown.DeviceIO).Seconds()
		compute := res.Breakdown.Compute.Seconds()
		stack := res.Breakdown.Stack.Seconds()
		commFrac := comm / total
		computeFrac := compute / total
		commFracs = append(commFracs, commFrac)
		computeFracs = append(computeFracs, computeFrac)
		t.AddRow(b.Name, computeFrac*100, commFrac*100, stack/total*100, total*1e3)
		values["comm_frac/"+b.Slug] = commFrac
		values["compute_frac/"+b.Slug] = computeFrac
	}
	meanComm := metrics.Mean(commFracs)
	meanCompute := metrics.Mean(computeFracs)
	values["mean_comm_frac"] = meanComm
	values["mean_compute_frac"] = meanCompute
	// Amdahl: accelerating only the compute caps the speedup.
	values["amdahl_compute_cap"] = 1 / (1 - meanCompute)
	return &Result{
		ID: "fig4", Title: "Baseline runtime breakdown",
		Table: t, Values: values,
	}, nil
}
