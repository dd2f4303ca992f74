package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dscs"
	"dscs/benchmark/refkernel"
)

// tracedReport is what the traced run produced.
type tracedReport struct {
	tally tally
	layer []metric
}

// layerSet collects per-layer metrics by name; emit returns them in the
// declared order and fails if one is missing or was never declared.
type layerSet map[string]float64

func (l layerSet) emit() ([]metric, error) {
	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		v, ok := l[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		out = append(out, metric{d.name, v, d.unit})
	}
	if len(l) != len(perLayer) {
		return nil, fmt.Errorf("%d per-layer metrics measured, %d declared", len(l), len(perLayer))
	}
	return out, nil
}

// probe times rounds × iters calls of fn, a kernel slice after every round,
// and returns the speed-normalised nanoseconds and the allocations per call.
func probe(rounds, iters int, fn func()) (ns, allocs, bytes float64) {
	var wall time.Duration
	var obs float64
	var mallocs, total uint64
	for r := 0; r < rounds; r++ {
		before := mark()
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		wall += time.Since(start)
		after := mark()
		mallocs += after.mallocs - before.mallocs
		total += after.bytes - before.bytes
		obs += refkernel.Slice(kernelIters)
	}
	n := float64(rounds * iters)
	factor := RefIterNs * float64(rounds) / obs
	return float64(wall.Nanoseconds()) / n * factor, float64(mallocs) / n, float64(total) / n
}

// rung is one entry point of the ladder, measured at concurrency 1.
type rung struct {
	meanUS, allocs, bytes, rps float64
}

// phaseFactor is a phase's overall speed factor (ratio of sums).
func phaseFactor(p *phase) float64 {
	var obs float64
	for _, b := range p.blocks {
		obs += b.iterNs
	}
	return RefIterNs * float64(len(p.blocks)) / obs
}

func meanUS(d []time.Duration) float64 {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return float64(s.Nanoseconds()) / 1e3 / float64(len(d))
}

// climb builds one rung (traced when rec is set), replays blocks blocks of
// the live sequence through it at concurrency 1, hands the still-running
// instance to use (if any) and tears it down.
func climb(seed uint64, e entry, rec *recorder, blocks int, t *tally, use func(*liveRunner)) (rung, error) {
	r, err := buildLive(seed, liveConfig{entry: e, n: 512, callers: 1, rec: rec})
	if err != nil {
		return rung{}, err
	}
	if rec != nil {
		rec.take() // set-up and warm-up spans are not part of the ladder
	}
	p := measure(r, 1, afterBlocks(blocks), t)
	if use != nil {
		use(r)
	}
	r.finish(t)
	allocs, bytes := p.allocsPerOp()
	return rung{meanUS: meanUS(p.lat) * phaseFactor(p), allocs: allocs, bytes: bytes, rps: p.normThroughput()}, nil
}

// runTraced is the traced run: the named workload's own phase (for the
// driver.* context), the four-rung ladder with spans recorded around every
// layer boundary the benchmark can reach from outside, short burst phases,
// the stubbed scaling arm, the micro-probes and one pass of the cold path.
// It prints every per-layer metric whatever the workload; only driver.* and
// the spans written to outDir belong to the named workload.
func runTraced(w workloadSpec, seed uint64, seconds float64, outDir string) (*tracedReport, error) {
	rep := &tracedReport{}
	t := &rep.tally
	l := layerSet{}
	scale := seconds / 8

	// The cold path first, while nothing in the process has compiled yet.
	if err := coldProbes(seed, l); err != nil {
		return nil, err
	}

	// driver.*: the named workload, tracing off, one set-up.
	r, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l["driver.heap_after_setup_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	p := measure(r, w.slots, afterSeconds(0.3*seconds, w.granule), t)
	r.finish(t)
	p.describe(l)

	// The ladder: the same seeded sequence at four entry points.
	blocks := int(40*scale) + 1
	rec := newRecorder()
	var spansA []span
	a, err := climb(seed, entryHTTP, rec, blocks, t, func(r *liveRunner) {
		spansA = rec.take()
		tel := r.stack.gw.Telemetry()
		served := tel.Counter("gateway_invocations_total")
		throttled, failed := tel.Counter("gateway_throttled_total"), tel.Counter("gateway_errors_total")
		l["gateway.throttled_share"] = throttled / (served + throttled + failed)
		l["gateway.error_share"] = failed / (served + throttled + failed)
		gatewayProbes(r.stack, seed, l)
	})
	if err != nil {
		return nil, err
	}
	link(spansA)
	if err := writeSpans(outDir, fmt.Sprintf("spans-ladder-http-seed%d.json", seed), spansA); err != nil {
		return nil, err
	}
	exec := summarise(spansA)
	b, err := climb(seed, entryHandler, rec, blocks, t, nil)
	if err != nil {
		return nil, err
	}
	c, err := climb(seed, entrySubmit, rec, blocks, t, nil)
	if err != nil {
		return nil, err
	}
	d, err := climb(seed, entryInvoke, nil, blocks, t, func(r *liveRunner) { runnerProbes(r.stack.env, l) })
	if err != nil {
		return nil, err
	}

	l["gateway.http_us"] = a.meanUS - b.meanUS
	l["gateway.handler_self_us"] = b.meanUS - c.meanUS
	l["gateway.handler_allocs"] = b.allocs - c.allocs
	l["gateway.handler_bytes"] = b.bytes - c.bytes
	l["serve.submit_self_us"] = c.meanUS - d.meanUS
	l["serve.submit_allocs"] = c.allocs - d.allocs
	l["faas.invoke_dscs_us"] = d.meanUS
	l["faas.invoke_allocs"] = d.allocs
	l["faas.invoke_bytes"] = d.bytes
	// The Execute-hook span is raw wall time inside rung A; scale it by the
	// factor that rung's mean latency was scaled by.
	rawA := exec.meanUS["client.request"]
	l["faas.exec_span_us"] = exec.meanUS["faas.invoke"] * a.meanUS / rawA
	l["faas.exec_calls_per_req"] = float64(exec.count["faas.invoke"]) / float64(exec.count["client.request"])
	// Closing the books: the four layer times should add up to what the
	// client saw on rung A.
	parts := l["gateway.http_us"] + l["gateway.handler_self_us"] + l["serve.submit_self_us"] + l["faas.exec_span_us"]
	fmt.Printf("# ladder mean latency (us): http %.2f, handler %.2f, submit %.2f, invoke %.2f; layers sum to %.2f, %+.1f%% of rung A\n",
		a.meanUS, b.meanUS, c.meanUS, d.meanUS, parts, 100*(parts/a.meanUS-1))

	// Tracing overhead: rungs A and C again with the recorder off.
	ua, err := climb(seed, entryHTTP, nil, blocks, t, nil)
	if err != nil {
		return nil, err
	}
	uc, err := climb(seed, entrySubmit, nil, blocks, t, nil)
	if err != nil {
		return nil, err
	}
	l["driver.trace_overhead_share"] = ((1 - a.rps/ua.rps) + (1 - c.rps/uc.rps)) / 2

	// Bursts, traced: burst → submit (per goroutine) / faas.invoke (per
	// executed batch), the burst number as the shared id.
	if err := burstPhases(seed, scale, outDir, l, t); err != nil {
		return nil, err
	}
	if err := stubScaling(l); err != nil {
		return nil, err
	}
	if err := coreProbes(l); err != nil {
		return nil, err
	}
	if err := modelProbes(seed, l, t); err != nil {
		return nil, err
	}
	l["driver.peak_rss_mb"] = peakRSSMB()

	rep.layer, err = l.emit()
	return rep, err
}

// burstPhases runs engine-burst and engine-balance briefly with the
// recorder on and reads the serve.* metrics off the returned Invocations
// and the spans.
func burstPhases(seed uint64, scale float64, outDir string, l layerSet, t *tally) error {
	for _, w := range []string{"engine-burst", "engine-balance"} {
		rec := newRecorder()
		cfg := liveConfigs[w]
		cfg.n, cfg.rec = 2*burstSize, rec
		r, err := buildLive(seed, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		rec.take()
		r.drains = r.drains[:0]
		p := measure(r, 1, afterSeconds(scale, 1), t)
		r.finish(t)
		spans := rec.take()
		link(spans)
		if err := writeSpans(outDir, fmt.Sprintf("spans-%s-seed%d.json", w, seed), spans); err != nil {
			return err
		}
		n := float64(p.ops())
		if w == "engine-balance" {
			l["serve.moved_share"] = float64(r.moved) / n
			continue
		}
		f := phaseFactor(p)
		queued := make([]float64, len(r.queued))
		for i, q := range r.queued {
			queued[i] = float64(q.Nanoseconds()) / 1e3 * f
		}
		sort.Float64s(queued)
		l["serve.queued_p50_us"] = percentile(queued, 0.50)
		l["serve.queued_p90_us"] = percentile(queued, 0.90)
		l["serve.batch_requests_mean"] = n / float64(summarise(spans).count["faas.invoke"])
		l["serve.burst_drain_us"] = meanUS(r.drains) * f
		l["serve.rejected_share"] = float64(r.rejected) / n
	}
	return nil
}

// stubScaling is ROADMAP item 1(a)'s question — does the engine get faster
// or slower when given a second P — with execution stubbed out: two
// submitters drive SubmitAsync, Quiesce is the completion barrier, at
// GOMAXPROCS 1 and then 2.
func stubScaling(l layerSet) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	env, err := dscs.NewEnvironment(1)
	if err != nil {
		return err
	}
	chatbot := dscs.BenchmarkBySlug("chatbot")
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		eng, err := dscs.NewServer(env, dscs.ServeOptions{
			QueueDepth: 4096,
			Execute: func(*dscs.Runner, *dscs.Benchmark, dscs.InvokeOptions) (dscs.InvokeResult, error) {
				return dscs.InvokeResult{}, nil
			},
		})
		if err != nil {
			return err
		}
		const perSubmitter = 20000
		ns, _, _ := probe(5, 1, func() {
			var wg sync.WaitGroup
			for s := 0; s < 2; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perSubmitter; {
						if eng.SubmitAsync(cpuPlatform, chatbot, dscs.InvokeOptions{Quantile: 0.5}) != nil {
							runtime.Gosched() // admission bound reached: let the workers drain
							continue
						}
						i++
					}
				}()
			}
			wg.Wait()
			eng.Quiesce(30 * time.Second)
		})
		err = eng.Conservation()
		eng.Close()
		if err != nil {
			return err
		}
		l[fmt.Sprintf("serve.stub_submit_ns_p%d", procs)] = ns / (2 * perSubmitter)
	}
	l["serve.scaling_p2_over_p1"] = l["serve.stub_submit_ns_p1"] / l["serve.stub_submit_ns_p2"]
	return nil
}
