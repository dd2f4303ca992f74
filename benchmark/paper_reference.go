package main

import (
	"fmt"
	"math"

	"dscs"
)

// paperValue is one headline number restated from the paper (Mahapatra et
// al., ASPLOS 2024) with where it is stated, and the experiment finding
// that reproduces it.
type paperValue struct {
	cite       string
	experiment string
	finding    string
	paper      float64
}

// paperReference is the fidelity yardstick behind paper_err_pct. Only
// experiments that run in milliseconds are cited, because every benchmark
// run — whatever its workload — evaluates the list once (Fig 13 and Fig 14
// cost seconds and are exercised by the paper-figs workload instead).
var paperReference = []paperValue{
	{"Fig 3 / §2: p99 read latency ≈ 110 % above the median", "fig3", "mean_p99_over_p50", 2.1},
	{"Fig 4 / §2: communication is on average > 55 % of baseline runtime", "fig4", "mean_comm_frac", 0.55},
	{"§2: Amdahl cap on compute-only acceleration", "fig4", "amdahl_compute_cap", 1.52},
	{"Fig 9 / abstract: DSCS-Serverless geomean speedup over the CPU baseline", "fig9", "geomean/DSCS-Serverless", 3.6},
	{"Fig 9: GPU (2080 Ti) geomean speedup", "fig9", "geomean/GPU (2080 Ti)", 1.33},
	{"Fig 9: NS-Mobile-GPU geomean speedup", "fig9", "geomean/NS-Mobile-GPU", 1.35},
	{"Fig 9: NS-FPGA (SmartSSD) geomean speedup", "fig9", "geomean/NS-FPGA (SmartSSD)", 2.2},
	{"§7.1: DSCS-Serverless over the GPU", "fig9", "dscs_over_gpu", 2.7},
	{"§7.1: DSCS-Serverless over NS-ARM", "fig9", "dscs_over_ns_arm", 3.7},
	{"§7.1: DSCS-Serverless over NS-FPGA", "fig9", "dscs_over_ns_fpga", 1.7},
	{"Fig 11 / abstract: system energy reduction", "fig11", "geomean/DSCS-Serverless", 3.5},
	{"Fig 12: DSCS-Serverless cost efficiency", "fig12", "cost_eff/DSCS-Serverless", 3.4},
	{"Fig 12: NS-FPGA cost efficiency", "fig12", "cost_eff/NS-FPGA (SmartSSD)", 1.6},
	{"Fig 15: speedup at the median storage latency", "fig15", "speedup/p50", 3.1},
	{"Fig 15: speedup at the p99 storage latency", "fig15", "speedup/p99", 5.0},
	{"Fig 16: speedup with three extra accelerated functions", "fig16", "speedup/extra3", 8.1},
	{"Fig 17: speedup with warm containers", "fig17", "speedup/warm", 3.6},
	{"Fig 17: speedup with cold containers", "fig17", "speedup/cold", 2.6},
}

// fidelity evaluates paperReference against a lookup of experiment results
// and returns paper_err_pct: the mean of |model/paper − 1|, in percent.
func fidelity(results map[string]*dscs.ExperimentResult) (float64, error) {
	var sum float64
	for _, pv := range paperReference {
		res, ok := results[pv.experiment]
		if !ok {
			return 0, fmt.Errorf("paper reference cites %s, which did not run", pv.experiment)
		}
		model, ok := res.Values[pv.finding]
		if !ok {
			return 0, fmt.Errorf("%s reports no finding %q", pv.experiment, pv.finding)
		}
		sum += math.Abs(model/pv.paper - 1)
	}
	return 100 * sum / float64(len(paperReference)), nil
}

// fidelityCheck runs the cited experiments on a fresh environment, outside
// any timed region, and returns paper_err_pct.
func fidelityCheck(seed uint64, t *tally) (float64, error) {
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return 0, err
	}
	results := make(map[string]*dscs.ExperimentResult)
	for _, pv := range paperReference {
		if _, done := results[pv.experiment]; done {
			continue
		}
		res, err := dscs.RunExperiment(pv.experiment, env)
		t.expect(err, "experiment "+pv.experiment)
		if err != nil {
			return 0, err
		}
		results[pv.experiment] = res
	}
	return fidelity(results)
}
