// Command benchmark is the repository's performance ledger: six workloads
// over gateway → serve → faas → sims, twelve end-to-end metrics normalised
// against an interleaved reference kernel so they repeat on a noisy 2-vCPU
// box, and (with -trace 1) the per-layer metrics that say where the time
// went. BENCHMARK.json at the repository root declares the names; README.md
// here explains the method.
//
//	go run . -workload gw-closed                    # one gated run
//	go run . -workload engine-burst -seed 7 -seconds 8
//	go run . -workload gw-closed -trace 1           # the traced run
//	go run . -aa 5                                  # A/A: two interleaved sets of 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"

	"dscs"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// workloadSpec is one named workload.
type workloadSpec struct {
	name string
	why  string
	// build is the workload's set-up: it constructs everything from
	// scratch, including warm-up, and returns the instance to measure.
	build func(seed uint64) (runner, error)
	// slots is the number of blocks in the workload's repeating unit (see
	// phase); the measured phase stops only after a multiple of granule
	// blocks, itself a multiple of slots.
	slots, granule int
}

// liveConfigs are the four live workloads' configurations; the traced run
// reuses the burst ones with the recorder on.
var liveConfigs = map[string]liveConfig{
	"gw-closed":     {entry: entryHTTP, n: 512, callers: 2},
	"engine-closed": {entry: entrySubmit, n: 1536, callers: 2},
	"engine-burst":  {entry: entrySubmit, n: 8 * burstSize},
	"engine-balance": {entry: entrySubmit, n: 2 * burstSize, moved: true,
		opt: dscs.ServeOptions{AdaptiveBalance: true, AdaptiveEstimates: true}},
}

func liveSpec(name, why string) workloadSpec {
	return workloadSpec{name: name, why: why, slots: 1, granule: 1, build: func(seed uint64) (runner, error) {
		return buildLive(seed, liveConfigs[name])
	}}
}

var workloads = []workloadSpec{
	liveSpec("gw-closed",
		"closed loop, 2 keep-alive connections over loopback TCP into Gateway.Handler: the operator's request path, the only workload where gateway JSON/YAML/route work shows"),
	liveSpec("engine-closed",
		"closed loop, 2 callers in Engine.Submit with the gateway bypassed: faas.Runner is over half of the request, so runner memoisation or pooling shows here"),
	liveSpec("engine-burst",
		"192 goroutines released together into Submit, next burst after the last reply, latency from the release: the paper's bursty arrivals without a pacing timer; serve dominates"),
	liveSpec("engine-balance",
		"the same bursts with AdaptiveBalance and AdaptiveEstimates on: the same layer used differently, so a gain on engine-burst that costs the balancer (or the reverse) splits the two"),
	{name: "sim-rack",
		why:     "rotation of seeded cluster.Run, RunHybrid and RunWorkflows replays on the virtual clock: the three event pumps over MultiCore/PoolCore/workflow.Run; live workloads do not touch them",
		slots:   simKinds,
		granule: simKinds * simReplays,
		build:   func(seed uint64) (runner, error) { return buildSim(seed) }},
	{name: "paper-figs",
		why:     "fresh Environment and RunExperiment for every table and figure, as dscsbench -run all does: the only workload on the cold path (dse, compiler, dsa, isa, experiments)",
		slots:   len(dscs.Experiments()),
		granule: len(dscs.Experiments()),
		build:   func(seed uint64) (runner, error) { return buildFigs(seed) }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// report is everything one gated run produced.
type report struct {
	tally  tally
	e2e    []metric // the twelve end-to-end metrics, in BENCHMARK.json order
	driver []metric // harness context (driver.*), never gated
}

// runGated is one gated (tracing off) run of a workload: five set-ups, the
// measured phase, then the model and fidelity checks every workload shares.
// A tiny seconds (the smoke test) still measures one whole granule.
func runGated(w workloadSpec, seed uint64, seconds float64) (*report, error) {
	rep := &report{}
	t := &rep.tally
	r, setupS, heapMB, err := timedSetups(func() (runner, error) { return w.build(seed) }, t)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	p := measure(r, w.slots, afterSeconds(seconds, w.granule), t)
	r.finish(t)

	sims, err := modelCheck(seed, t)
	if err != nil {
		return nil, fmt.Errorf("model check: %w", err)
	}
	if sr, ok := r.(*simRunner); ok {
		sr.sameAsModelCheck(sims, t)
	}
	errPct, err := fidelityCheck(seed, t)
	if err != nil {
		return nil, fmt.Errorf("fidelity check: %w", err)
	}

	allocs, bytes := p.allocsPerOp()
	rep.e2e = ordered(map[string]float64{
		"setup_s":              setupS,
		"ok_share":             t.okShare(),
		"norm_throughput_rps":  p.normThroughput(),
		"norm_latency_p50_us":  p.normLatency(0.50),
		"norm_latency_p90_us":  p.normLatency(0.90),
		"allocs_per_req":       allocs,
		"alloc_bytes_per_req":  bytes,
		"sim_latency_p50_ms":   sims.latP50MS,
		"sim_latency_p99_ms":   sims.latP99MS,
		"sim_within_slo_share": sims.withinSLO,
		"sim_makespan_p50_ms":  sims.makespanP50MS,
		"paper_err_pct":        errPct,
	})
	ctx := layerSet{"driver.heap_after_setup_mb": heapMB, "driver.peak_rss_mb": peakRSSMB()}
	p.describe(ctx)
	for _, d := range perLayer {
		if v, ok := ctx[d.name]; ok {
			rep.driver = append(rep.driver, metric{d.name, v, d.unit})
		}
	}
	return rep, nil
}

// describe adds the harness context of a measured phase — the driver.*
// metrics, never gated — to l: raw wall-clock numbers, the tail percentiles
// that are too noisy to gate, and how fast and how disturbed the box was.
func (p *phase) describe(l layerSet) {
	norm, raw := p.pooled(true), p.pooled(false)
	kreq := float64(p.ops()) / 1e3
	l["driver.raw_throughput_rps"] = p.rawThroughput()
	l["driver.raw_latency_p50_us"] = percentile(raw, 0.50)
	l["driver.raw_latency_p99_us"] = percentile(raw, 0.99)
	l["driver.raw_latency_p999_us"] = percentile(raw, 0.999)
	l["driver.norm_latency_p99_us"] = percentile(norm, 0.99)
	l["driver.samples"] = float64(len(norm))
	l["driver.ref_iter_ns"], l["driver.ref_cv"] = p.refStats()
	l["driver.gc_cycles_per_kreq"] = float64(p.gc.cycles) / kreq
	l["driver.gc_pause_us_per_kreq"] = float64(p.gc.pauseNs) / 1e3 / kreq
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printMetrics writes one "workload name value unit" line per metric.
func printMetrics(out io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%-16s %-34s %16.6f %s\n", workload, m.Name, m.Value, m.Unit)
	}
}

// printResult writes the driver contract's result object as one line.
func printResult(out io.Writer, t *tally, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.ok == t.attempted && t.attempted > 0, t.attempted, t.attempted - t.ok, map[string]value{}}
	for _, m := range ms {
		obj.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see BENCHMARK.json); empty runs all six")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured phase")
		traced   = flag.Int("trace", 0, "1 runs the traced (per-layer) run instead of the gated one")
		aa       = flag.Int("aa", 0, "run the suite as two interleaved sets of N and print the A/A table")
		outDir   = flag.String("out", "out", "directory the traced run writes its spans to")
		contract = flag.Bool("contract", false, "print BENCHMARK.json from this program's declarations and exit")
	)
	flag.Parse()
	if *contract {
		if err := writeContract(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if runtime.NumCPU() < 2 {
		fatal(fmt.Errorf("the benchmark pins GOMAXPROCS to 2 and this host has %d CPU", runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(2)

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workloadSpec{w}
	}
	if *aa > 0 {
		if err := runAA(os.Stdout, selected, *aa, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	correct := true
	for _, w := range selected {
		fmt.Printf("# %s seed=%d seconds=%g trace=%d gomaxprocs=%d %s\n",
			w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())
		var (
			t   *tally
			out []metric
		)
		if *traced == 1 {
			tr, err := runTraced(w, *seed, *seconds, *outDir)
			if err != nil {
				fatal(err)
			}
			t, out = &tr.tally, tr.layer
		} else {
			rep, err := runGated(w, *seed, *seconds)
			if err != nil {
				fatal(err)
			}
			printMetrics(os.Stdout, w.name, rep.driver)
			t, out = &rep.tally, rep.e2e
		}
		printMetrics(os.Stdout, w.name, out)
		if t.firstFailure != "" {
			fmt.Printf("# first failed check: %s\n", t.firstFailure)
		}
		if err := printResult(os.Stdout, t, out); err != nil {
			fatal(err)
		}
		correct = correct && t.ok == t.attempted
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
