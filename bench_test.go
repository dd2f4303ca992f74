// bench_test.go is the benchmark harness: one testing.B target per table
// and figure of the paper's evaluation (each iteration regenerates the
// experiment and reports its headline numbers as custom metrics), plus the
// ablation benches for the design choices ARCHITECTURE.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package dscs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dscs"
	"dscs/internal/compiler"
	"dscs/internal/csd"
	"dscs/internal/dsa"
	"dscs/internal/model"
	"dscs/internal/units"
)

var (
	benchOnce sync.Once
	benchEnv  *dscs.Environment
	benchErr  error
)

func sharedEnv(b *testing.B) *dscs.Environment {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = dscs.NewEnvironment(42)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// runExperiment benchmarks one experiment and surfaces named findings.
func runExperiment(b *testing.B, id string, metricNames ...string) {
	env := sharedEnv(b)
	var last *dscs.ExperimentResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dscs.RunExperiment(id, env)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	for _, name := range metricNames {
		b.ReportMetric(last.Value(name), metricUnit(name))
	}
}

// metricUnit sanitizes a finding name into a ReportMetric-legal unit
// (no whitespace).
func metricUnit(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch r {
		case ' ', '\t', '(', ')':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkTable1Benchmarks(b *testing.B) {
	runExperiment(b, "table1", "benchmarks")
}

func BenchmarkTable2Platforms(b *testing.B) {
	runExperiment(b, "table2", "platforms")
}

func BenchmarkFig3ReadLatencyCDF(b *testing.B) {
	runExperiment(b, "fig3", "mean_p99_over_p50")
}

func BenchmarkFig4RuntimeBreakdown(b *testing.B) {
	runExperiment(b, "fig4", "mean_comm_frac", "amdahl_compute_cap")
}

func BenchmarkFig7PowerPerfPareto(b *testing.B) {
	runExperiment(b, "fig7", "configs_explored", "optimal_dim")
}

func BenchmarkFig8AreaPerfPareto(b *testing.B) {
	runExperiment(b, "fig8", "frontier_points")
}

func BenchmarkFig9Speedup(b *testing.B) {
	runExperiment(b, "fig9", "geomean/DSCS-Serverless", "dscs_over_gpu")
}

func BenchmarkFig10Breakdown(b *testing.B) {
	runExperiment(b, "fig10", "remote_frac/Baseline (CPU)/asset-damage")
}

func BenchmarkFig11Energy(b *testing.B) {
	runExperiment(b, "fig11", "geomean/DSCS-Serverless", "dsa_compute_energy_ratio")
}

func BenchmarkFig12CostEfficiency(b *testing.B) {
	runExperiment(b, "fig12", "cost_eff/DSCS-Serverless", "cost_eff/NS-FPGA (SmartSSD)")
}

func BenchmarkFig13AtScale(b *testing.B) {
	runExperiment(b, "fig13", "wallclock_improvement", "baseline_peak_queue")
}

func BenchmarkFig14BatchSize(b *testing.B) {
	runExperiment(b, "fig14", "geomean/batch1", "geomean/batch64")
}

func BenchmarkFig15TailLatency(b *testing.B) {
	runExperiment(b, "fig15", "speedup/p50", "speedup/p99")
}

func BenchmarkFig16AcceleratedFunctions(b *testing.B) {
	runExperiment(b, "fig16", "speedup/extra0", "speedup/extra3")
}

func BenchmarkFig17ColdStart(b *testing.B) {
	runExperiment(b, "fig17", "speedup/warm", "speedup/cold")
}

// --- Ablation benches (design choices from ARCHITECTURE.md) ---

// BenchmarkAblationArraySize contrasts the selected 128x128 array with a
// 1024x1024 monster at batch 1 (the paper's key DSE finding).
func BenchmarkAblationArraySize(b *testing.B) {
	small := dscs.PaperDSA()
	big := dscs.PaperDSA()
	big.Rows, big.Cols = 1024, 1024
	big = big.WithBuffers(32 * units.MiB)
	g := model.ResNet50()
	var sLat, bLat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range []dsa.Config{small, big} {
			prog, err := dscs.Compile(g, 1, cfg)
			if err != nil {
				b.Fatal(err)
			}
			st, err := dscs.Simulate(prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			lat := st.Latency(cfg.Freq).Seconds() * 1e3
			if cfg.Rows == 128 {
				sLat = lat
			} else {
				bLat = lat
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(sLat, "ms-dim128")
	b.ReportMetric(bLat, "ms-dim1024")
}

// BenchmarkAblationDoubleBuffering measures the tile-DMA/compute overlap.
func BenchmarkAblationDoubleBuffering(b *testing.B) {
	on := dscs.PaperDSA()
	off := dscs.PaperDSA()
	off.DoubleBuffered = false
	g := model.InceptionV3Clinical()
	var onLat, offLat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range []dsa.Config{on, off} {
			prog, err := dscs.Compile(g, 1, cfg)
			if err != nil {
				b.Fatal(err)
			}
			st, err := dscs.Simulate(prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			lat := st.Latency(cfg.Freq).Seconds() * 1e3
			if cfg.DoubleBuffered {
				onLat = lat
			} else {
				offLat = lat
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(onLat, "ms-overlapped")
	b.ReportMetric(offLat, "ms-serialized")
}

// BenchmarkAblationFusion measures operator fusion's DRAM savings.
func BenchmarkAblationFusion(b *testing.B) {
	cfg := dscs.PaperDSA()
	g := model.ResNet18Moderation()
	var fusedMB, unfusedMB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fused, err := compiler.Compile(g, 1, cfg, compiler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		unfused, err := compiler.Compile(g, 1, cfg, compiler.Options{DisableFusion: true})
		if err != nil {
			b.Fatal(err)
		}
		fusedMB = float64(fused.DRAMBytes()) / 1e6
		unfusedMB = float64(unfused.DRAMBytes()) / 1e6
	}
	b.StopTimer()
	b.ReportMetric(fusedMB, "MB-fused")
	b.ReportMetric(unfusedMB, "MB-unfused")
}

// BenchmarkAblationP2P contrasts the dedicated P2P path with a
// host-mediated detour through the storage node's CPU.
func BenchmarkAblationP2P(b *testing.B) {
	drive, err := csd.New(csd.Default())
	if err != nil {
		b.Fatal(err)
	}
	g := model.SSDMobileNetPPE()
	prog, err := dscs.Compile(g, 1, drive.Config().DSA)
	if err != nil {
		b.Fatal(err)
	}
	in := units.Bytes(18 * units.MB)
	drive.SSD().HostWrite(0, in)
	var p2pMS, hostMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p2p, err := drive.Run(prog, 0, in, 100*units.KB)
		if err != nil {
			b.Fatal(err)
		}
		host, err := drive.RunHostMediated(prog, 0, in, 100*units.KB)
		if err != nil {
			b.Fatal(err)
		}
		p2pMS = p2p.Total().Seconds() * 1e3
		hostMS = host.Total().Seconds() * 1e3
	}
	b.StopTimer()
	b.ReportMetric(p2pMS, "ms-p2p")
	b.ReportMetric(hostMS, "ms-host-mediated")
}

// BenchmarkAblationChaining measures what keeping f1->f2 intermediates
// on-drive saves versus round-tripping them through the object store.
func BenchmarkAblationChaining(b *testing.B) {
	env := sharedEnv(b)
	bm := dscs.BenchmarkBySlug("ppe-detection")
	var chainedMS, roundTripMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.DSCS().Invoke(bm, dscs.InvokeOptions{Quantile: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		chainedMS = res.Total().Seconds() * 1e3
		// The unchained variant pays a store write + read of the
		// intermediate tensor between f1 and f2.
		wLat, _, err := env.Store.PutAt("ablation/intermediate", bm.IntermediateBytes, true, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		rLat, _, err := env.Store.GetAt("ablation/intermediate", 0.5)
		if err != nil {
			b.Fatal(err)
		}
		roundTripMS = chainedMS + (wLat+rLat).Seconds()*1e3
	}
	b.StopTimer()
	b.ReportMetric(chainedMS, "ms-chained")
	b.ReportMetric(roundTripMS, "ms-roundtrip")
}

// BenchmarkAblationKeepWarm contrasts warm and cold invocations.
func BenchmarkAblationKeepWarm(b *testing.B) {
	env := sharedEnv(b)
	bm := dscs.BenchmarkBySlug("chatbot")
	var warmMS, coldMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := env.DSCS().Invoke(bm, dscs.InvokeOptions{Quantile: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		cold, err := env.DSCS().Invoke(bm, dscs.InvokeOptions{Quantile: 0.5, Cold: true})
		if err != nil {
			b.Fatal(err)
		}
		warmMS = warm.Total().Seconds() * 1e3
		coldMS = cold.Total().Seconds() * 1e3
	}
	b.StopTimer()
	b.ReportMetric(warmMS, "ms-warm")
	b.ReportMetric(coldMS, "ms-cold")
}

// --- Micro-benchmarks of the core machinery ---

// BenchmarkCompilerResNet50 measures compilation throughput.
func BenchmarkCompilerResNet50(b *testing.B) {
	cfg := dscs.PaperDSA()
	g := model.ResNet50()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(g, 1, cfg, compiler.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSASimBERT measures cycle-level simulation throughput.
func BenchmarkDSASimBERT(b *testing.B) {
	cfg := dscs.PaperDSA()
	prog, err := dscs.Compile(model.BERTBaseChatbot(), 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dscs.Simulate(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndInvocation measures one full DSCS invocation through the
// whole stack (store, drive, DSA, f3).
func BenchmarkEndToEndInvocation(b *testing.B) {
	env := sharedEnv(b)
	bm := dscs.BenchmarkBySlug("asset-damage")
	opt := dscs.InvokeOptions{Quantile: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.DSCS().Invoke(bm, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectStoreGet measures the storage path model.
func BenchmarkObjectStoreGet(b *testing.B) {
	env := sharedEnv(b)
	if _, _, err := env.Store.PutAt("bench/obj", 4*units.MB, false, 0.5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Store.GetAt("bench/obj", -1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches (paper future-work features) ---

// BenchmarkExtScheduling regenerates the Section 5.3 scheduling-policy study.
func BenchmarkExtScheduling(b *testing.B) {
	runExperiment(b, "ext-sched", "criticality_gain", "dag_gain")
}

// BenchmarkExtMemcache regenerates the keep-warm memory-manager study.
func BenchmarkExtMemcache(b *testing.B) {
	runExperiment(b, "ext-memcache", "hit_rate", "p2p_vs_registry")
}

// BenchmarkExtScatter regenerates the multi-CSD scatter/gather study.
func BenchmarkExtScatter(b *testing.B) {
	runExperiment(b, "ext-scatter", "gain/ppe-detection")
}

// BenchmarkExtFailover regenerates the drive-failure/fail-over study.
// It runs on a private environment: it damages and repairs the cluster.
func BenchmarkExtFailover(b *testing.B) {
	env, err := dscs.NewEnvironment(777)
	if err != nil {
		b.Fatal(err)
	}
	var last *dscs.ExperimentResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dscs.RunExperiment("ext-failover", env)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(last.Value("fallback_penalty"), "fallback_penalty")
	b.ReportMetric(last.Value("repaired_mb"), "repaired_mb")
}

// BenchmarkServeConcurrent contrasts the two serving disciplines under
// parallel load: a global mutex serializing every Runner.Invoke (the
// pre-serve-engine behavior) versus the worker-pool engine with admission
// control and batching. The ns/op gap is the concurrency speedup the
// serving core buys. The pool arm
// submits fire-and-forget (SubmitAsync) and drains with Quiesce, so it
// measures the engine's sustained throughput; even on a single-core
// runner same-benchmark coalescing lets it beat the mutex, and with
// GOMAXPROCS > 1 the pool also overlaps invocations the mutex would
// serialize.
func BenchmarkServeConcurrent(b *testing.B) {
	env, err := dscs.NewEnvironment(91)
	if err != nil {
		b.Fatal(err)
	}
	bm := dscs.BenchmarkBySlug("asset-damage")
	opt := dscs.InvokeOptions{Quantile: 0.5}
	// Warm the program cache so both disciplines measure steady state.
	if _, err := env.DSCS().Invoke(bm, opt); err != nil {
		b.Fatal(err)
	}

	// 8 submitters per core: an arrival burst, not a lockstep loop —
	// this is what lets the engine's same-benchmark coalescing engage.
	b.Run("mutex-serialized", func(b *testing.B) {
		var mu sync.Mutex
		runner := env.DSCS()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				_, err := runner.Invoke(bm, opt)
				mu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	// The pool arm submits fire-and-forget: a blocking Submit would park
	// every submitter on its reply channel and the bench would measure
	// channel round-trips, not engine throughput. Quiesce keeps the clock
	// honest — sustained means served, so the timer runs until the
	// admitted backlog drains.
	b.Run("worker-pool", func(b *testing.B) {
		srv, err := dscs.NewServer(env, dscs.ServeOptions{Workers: 8, QueueDepth: 4096})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		b.ResetTimer()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				for srv.SubmitAsync("DSCS-Serverless", bm, opt) != nil {
					// Admission bound reached: the workers are behind;
					// yield and retry rather than spinning on a full queue.
					runtime.Gosched()
				}
			}
		})
		if !srv.Quiesce(time.Minute) {
			b.Fatal("engine did not quiesce")
		}
	})
}

// BenchmarkGatewayInvoke measures an invocation through the full HTTP path.
func BenchmarkGatewayInvoke(b *testing.B) {
	env, err := dscs.NewEnvironment(55)
	if err != nil {
		b.Fatal(err)
	}
	gw, err := dscs.NewGateway(env, dscs.ServeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/system/functions", "application/x-yaml",
		strings.NewReader(dscs.DeploymentYAML(dscs.BenchmarkBySlug("moderation"))))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL+"/function/moderation", "application/json",
			strings.NewReader(`{"quantile":0.5}`))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
