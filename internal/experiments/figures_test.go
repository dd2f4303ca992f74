package experiments

import (
	"sync"
	"testing"
)

// sharedEnv builds one environment for the whole test binary; experiments
// cache their expensive intermediates on it.
var (
	envOnce sync.Once
	testEnv *Environment
	envErr  error
)

func env(t *testing.T) *Environment {
	t.Helper()
	envOnce.Do(func() {
		testEnv, envErr = NewEnvironment(42)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return testEnv
}

func run(t *testing.T, id string) *Result {
	t.Helper()
	spec, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	res, err := spec.Run(env(t))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res
}

// within asserts a value lies in [lo, hi].
func within(t *testing.T, res *Result, name string, lo, hi float64) {
	t.Helper()
	v := res.Value(name)
	if v < lo || v > hi {
		t.Errorf("%s: %s = %.3f, want [%.3f, %.3f]", res.ID, name, v, lo, hi)
	}
}

func TestTable1Suite(t *testing.T) {
	res := run(t, "table1")
	within(t, res, "benchmarks", 8, 8)
	// Parameter counts match the published architectures.
	within(t, res, "params_m/asset-damage", 24, 27)
	within(t, res, "params_m/chatbot", 104, 116)
	within(t, res, "params_m/remote-sensing", 80, 92)
	if len(res.Table.Rows) != 8 {
		t.Errorf("table has %d rows, want 8", len(res.Table.Rows))
	}
}

func TestTable2Platforms(t *testing.T) {
	res := run(t, "table2")
	within(t, res, "platforms", 7, 7)
	// The headline power contrast: a 4.2W in-storage DSA against a 250W GPU.
	within(t, res, "tdp_w/DSCS-Serverless", 3, 5)
	within(t, res, "tdp_w/GPU (2080 Ti)", 250, 250)
}

func TestFig3TailShape(t *testing.T) {
	res := run(t, "fig3")
	// The paper: p99 ~110% above the median on average (factor ~2.1).
	within(t, res, "mean_p99_over_p50", 1.7, 2.4)
	// Larger payloads read slower at the median.
	if res.Value("p50_ms/ppe-detection") <= res.Value("p50_ms/chatbot") {
		t.Error("fig3: PPE's 18MB read should exceed the chatbot's 4KB read")
	}
}

func TestFig4CommunicationDominates(t *testing.T) {
	res := run(t, "fig4")
	// Average communication share >52% (paper: >55%).
	within(t, res, "mean_comm_frac", 0.50, 0.68)
	// The three benchmarks the paper singles out at >=70% communication.
	within(t, res, "comm_frac/credit-risk", 0.66, 0.95)
	within(t, res, "comm_frac/asset-damage", 0.55, 0.85)
	within(t, res, "comm_frac/moderation", 0.60, 0.90)
	// Amdahl bound on compute-only acceleration ~1.5x (paper: 1.52x).
	within(t, res, "amdahl_compute_cap", 1.3, 1.7)
}

func TestFig7PowerFrontier(t *testing.T) {
	res := run(t, "fig7")
	within(t, res, "configs_explored", 651, 2000)
	if res.Value("frontier_points") < 4 {
		t.Error("fig7: frontier too small")
	}
	// The DSE selects a 128x128 array on DDR5 (the paper's pick). Our
	// selection takes a larger buffer than the paper's 4MB (29.4 MB): in
	// our DDR5 model throughput keeps rising past 4 MB (340 -> 431 req/s)
	// as more of the working set stays on chip, and the larger buffer
	// still fits the power budget.
	within(t, res, "optimal_dim", 128, 128)
	within(t, res, "optimal_mem_is_ddr5", 1, 1)
	// The paper's headline: 1024x1024 loses to 128x128 at batch one.
	if res.Value("best_throughput_dim1024") >= res.Value("best_throughput_dim128") {
		t.Errorf("fig7: best Dim1024 (%.0f req/s) should underperform best Dim128 (%.0f req/s)",
			res.Value("best_throughput_dim1024"), res.Value("best_throughput_dim128"))
	}
	// And the paper's exact pick remains competitive on the frontier.
	if res.Value("throughput_dim128_4mb") < 0.6*res.Value("best_throughput_dim128") {
		t.Error("fig7: Dim128-4MB should sit near the frontier")
	}
}

func TestFig8AreaFrontier(t *testing.T) {
	res := run(t, "fig8")
	if res.Value("frontier_points") < 4 {
		t.Error("fig8: frontier too small")
	}
	// A cubic fit exists (four coefficients reported).
	if res.Value("fit_c3") == 0 && res.Value("fit_c2") == 0 {
		t.Error("fig8: degenerate cubic fit")
	}
}

func TestFig9SpeedupShape(t *testing.T) {
	res := run(t, "fig9")
	// Paper: DSCS 3.6x; GPU 1.33x; FPGA slightly below/at baseline;
	// NS-ARM slightly under baseline; NS-Mobile-GPU 1.35x; NS-FPGA 2.2x.
	within(t, res, "geomean/DSCS-Serverless", 3.3, 4.5)
	within(t, res, "geomean/GPU (2080 Ti)", 1.1, 1.6)
	within(t, res, "geomean/FPGA (U280)", 0.8, 1.15)
	within(t, res, "geomean/NS-ARM", 0.75, 1.05)
	within(t, res, "geomean/NS-Mobile-GPU", 1.15, 1.65)
	within(t, res, "geomean/NS-FPGA (SmartSSD)", 1.8, 2.5)
	// Headline ratios: 2.7x over GPU, 3.7x over NS-ARM, 1.7x over NS-FPGA.
	within(t, res, "dscs_over_gpu", 2.3, 3.4)
	within(t, res, "dscs_over_ns_arm", 3.2, 5.0)
	within(t, res, "dscs_over_ns_fpga", 1.5, 2.2)
	// Credit Risk is the smallest DSCS win; PPE Detection the largest.
	credit := res.Value("speedup/DSCS-Serverless/credit-risk")
	ppe := res.Value("speedup/DSCS-Serverless/ppe-detection")
	for _, b := range env(t).Suite {
		s := res.Value("speedup/DSCS-Serverless/" + b.Slug)
		if s < credit {
			t.Errorf("fig9: %s (%.2f) below credit-risk (%.2f)", b.Slug, s, credit)
		}
		if s > ppe {
			t.Errorf("fig9: %s (%.2f) above ppe-detection (%.2f)", b.Slug, s, ppe)
		}
	}
}

func TestFig10BottleneckShift(t *testing.T) {
	res := run(t, "fig10")
	// GPU acceleration shrinks compute but communication remains: the GPU's
	// remote share must exceed the baseline's.
	if res.Value("remote_frac/GPU (2080 Ti)/asset-damage") <=
		res.Value("remote_frac/Baseline (CPU)/asset-damage") {
		t.Error("fig10: acceleration should shift the bottleneck to communication")
	}
	// DSCS eliminates the f1/f2 remote movement: its remote share (only
	// f3) must be well below the baseline's.
	if res.Value("remote_frac/DSCS-Serverless/ppe-detection") >=
		0.6*res.Value("remote_frac/Baseline (CPU)/ppe-detection") {
		t.Error("fig10: DSCS should slash the remote share")
	}
	// And its compute share is small (the DSA is fast).
	if res.Value("compute_frac/DSCS-Serverless/asset-damage") > 0.35 {
		t.Error("fig10: DSCS compute share should be small")
	}
}

func TestFig11EnergyShape(t *testing.T) {
	res := run(t, "fig11")
	// Paper: DSCS 3.5x, NS-FPGA the most competitive conventional
	// platform at ~1.9x less than DSCS. Ours overshoots to ~5.6x: the
	// energy model splits power between the baseline and DSCS platforms
	// more in DSCS's favour than the paper's measurements do.
	within(t, res, "geomean/DSCS-Serverless", 3.4, 7.0)
	ratio := res.Value("geomean/DSCS-Serverless") / res.Value("geomean/NS-FPGA (SmartSSD)")
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("fig11: DSCS/NS-FPGA energy ratio = %.2f, want ~1.9", ratio)
	}
	// DSCS leads every platform.
	for _, p := range env(t).Platforms {
		if p.Name() == "DSCS-Serverless" {
			continue
		}
		if res.Value("geomean/"+p.Name()) >= res.Value("geomean/DSCS-Serverless") {
			t.Errorf("fig11: %s beats DSCS on energy", p.Name())
		}
	}
	// PPE gains the most, credit-risk the least, among DSCS reductions.
	if res.Value("energy_reduction/DSCS-Serverless/ppe-detection") <=
		res.Value("energy_reduction/DSCS-Serverless/credit-risk") {
		t.Error("fig11: PPE should gain more energy than credit-risk")
	}
	// Compute-only: the DSA's inference energy is orders of magnitude
	// below the CPU's (paper reports 29x with its accounting).
	within(t, res, "dsa_compute_energy_ratio", 15, 1000)
}

func TestFig12CostEfficiency(t *testing.T) {
	res := run(t, "fig12")
	// Paper: DSCS 3.4x, NS-FPGA 1.6x.
	within(t, res, "cost_eff/DSCS-Serverless", 2.8, 4.4)
	within(t, res, "cost_eff/NS-FPGA (SmartSSD)", 1.3, 1.9)
	// DSCS ranks first, NS-FPGA second.
	dscs := res.Value("cost_eff/DSCS-Serverless")
	nsfpga := res.Value("cost_eff/NS-FPGA (SmartSSD)")
	for _, p := range env(t).Platforms {
		v := res.Value("cost_eff/" + p.Name())
		if p.Name() != "DSCS-Serverless" && v >= dscs {
			t.Errorf("fig12: %s (%.2f) >= DSCS (%.2f)", p.Name(), v, dscs)
		}
		if p.Name() != "DSCS-Serverless" && p.Name() != "NS-FPGA (SmartSSD)" && v >= nsfpga {
			t.Errorf("fig12: %s (%.2f) >= NS-FPGA (%.2f)", p.Name(), v, nsfpga)
		}
	}
	// The ASIC die is tens of dollars (ASIC Clouds model).
	within(t, res, "asic_die_cost", 30, 90)
}

func TestFig13AtScale(t *testing.T) {
	res := run(t, "fig13")
	// The trace swings between ~450 and ~730 req/s (Figure 13a).
	within(t, res, "trace_peak_rate", 600, 850)
	// The baseline queues heavily; DSCS barely queues (Figure 13b).
	if res.Value("baseline_peak_queue") < 20*res.Value("dscs_peak_queue")+100 {
		t.Errorf("fig13: baseline queue (%.0f) should dwarf DSCS (%.0f)",
			res.Value("baseline_peak_queue"), res.Value("dscs_peak_queue"))
	}
	// Baseline wall-clock latency climbs into seconds; DSCS stays low.
	within(t, res, "baseline_mean_ms", 700, 8000)
	within(t, res, "dscs_mean_ms", 40, 700)
	if res.Value("wallclock_improvement") < 4 {
		t.Errorf("fig13: wall-clock improvement %.1f too small",
			res.Value("wallclock_improvement"))
	}
	// Nothing is lost.
	within(t, res, "baseline_dropped", 0, 0)
	within(t, res, "dscs_dropped", 0, 0)
}

func TestFig14BatchSweep(t *testing.T) {
	res := run(t, "fig14")
	// Speedup grows monotonically with batch (paper: 3.6x -> 15.8x).
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
		v := res.Value("geomean/batch" + itoa(b))
		if v <= prev {
			t.Errorf("fig14: speedup not increasing at batch %d: %.2f <= %.2f", b, v, prev)
		}
		prev = v
	}
	within(t, res, "geomean/batch1", 3.3, 4.5)
	within(t, res, "geomean/batch64", 12, 32)
	if res.Value("growth_1_to_64") < 3 {
		t.Errorf("fig14: growth %.2f too small", res.Value("growth_1_to_64"))
	}
	// Language models benefit most (weight reuse across the batch).
	if res.Value("chatbot/batch64") < res.Value("geomean/batch64") {
		t.Error("fig14: the chatbot should gain above the geomean at batch 64")
	}
}

func TestFig15TailSweep(t *testing.T) {
	res := run(t, "fig15")
	// Speedup grows monotonically toward the tail (paper: 3.1x -> 5.0x).
	// Ours grows less, ~3.9x -> 4.3x: the storage-access tail is a
	// lognormal whose p99 is ~2.1x its median, and the parts of both
	// paths that do not depend on the quantile damp its effect.
	prev := 0.0
	for _, p := range []string{"p50", "p75", "p90", "p95", "p99"} {
		v := res.Value("speedup/" + p)
		if v <= prev {
			t.Errorf("fig15: speedup not increasing at %s", p)
		}
		prev = v
	}
	if res.Value("tail_amplification") < 1.04 {
		t.Errorf("fig15: amplification %.3f too flat", res.Value("tail_amplification"))
	}
}

func TestFig16AcceleratedFunctions(t *testing.T) {
	res := run(t, "fig16")
	prev := 0.0
	for extra := 0; extra <= 3; extra++ {
		v := res.Value("speedup/extra" + itoa(extra))
		if v <= prev {
			t.Errorf("fig16: speedup not increasing at +%d functions", extra)
		}
		prev = v
	}
	// Paper: 3.6x -> 8.1x (2.25x escalation); ours is smaller but clear.
	if res.Value("escalation") < 1.4 {
		t.Errorf("fig16: escalation %.2f too small", res.Value("escalation"))
	}
}

func TestFig17ColdStart(t *testing.T) {
	res := run(t, "fig17")
	// Paper: 3.6x warm falls to 2.6x cold.
	within(t, res, "speedup/warm", 3.3, 4.5)
	within(t, res, "speedup/cold", 2.2, 3.6)
	if res.Value("speedup/cold") >= res.Value("speedup/warm") {
		t.Error("fig17: cold must be slower than warm")
	}
	within(t, res, "cold_penalty", 1.1, 1.8)
}

func TestAllExperimentsRegistered(t *testing.T) {
	specs := All()
	if len(specs) != 21 {
		t.Fatalf("registry has %d experiments, want 21 (2 tables + 13 figures + 6 extensions)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Errorf("duplicate experiment id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Run == nil || s.Title == "" {
			t.Errorf("experiment %q incomplete", s.ID)
		}
	}
	if _, ok := ByID("fig9"); !ok {
		t.Error("ByID lookup broken")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should reject unknown ids")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
