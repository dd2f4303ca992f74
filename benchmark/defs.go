package main

// e2eDef declares one end-to-end metric: what BENCHMARK.json says about it.
// bound is the share of the parent's median by which the metric may get
// worse before a change is rejected.
type e2eDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the twelve end-to-end metrics in the order they are
// printed. Every workload reports every one: the host-time metrics come from
// the workload's own measured phase, the simulated-time and fidelity metrics
// from the seeded model check every run performs (README.md, "Metrics").
// Host-time and simulated-time metrics never share a name.
var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_share", "share", "higher", 0.001},
	{"norm_throughput_rps", "1/s", "higher", 0.20},
	{"norm_latency_p50_us", "us", "lower", 0.20},
	{"norm_latency_p90_us", "us", "lower", 0.22},
	{"allocs_per_req", "count", "lower", 0.05},
	{"alloc_bytes_per_req", "B", "lower", 0.05},
	{"sim_latency_p50_ms", "ms", "lower", 0.02},
	{"sim_latency_p99_ms", "ms", "lower", 0.10},
	{"sim_within_slo_share", "share", "higher", 0.005},
	{"sim_makespan_p50_ms", "ms", "lower", 0.10},
	{"paper_err_pct", "%", "lower", 0.02},
}

// ordered turns a name → value map into metrics in the declared order; a
// declared metric with no value is a bug in the benchmark, so it panics.
func ordered(values map[string]float64) []metric {
	out := make([]metric, 0, len(endToEnd))
	for _, d := range endToEnd {
		v, ok := values[d.name]
		if !ok {
			panic("benchmark: no value for declared metric " + d.name)
		}
		out = append(out, metric{d.name, v, d.unit})
	}
	return out
}

// layerDef declares one per-layer metric; the layer is the part of the name
// before the first dot and is a module of this repository (or "driver", the
// harness itself).
type layerDef struct{ name, unit, better string }

// perLayer lists what the traced run prints. None of these is gated; they
// say where an end-to-end movement came from (README.md, "Layers").
var perLayer = []layerDef{
	{"gateway.http_us", "us", "lower"},
	{"gateway.handler_self_us", "us", "lower"},
	{"gateway.handler_allocs", "count", "lower"},
	{"gateway.handler_bytes", "B", "lower"},
	{"gateway.deploy_us", "us", "lower"},
	{"gateway.list_us", "us", "lower"},
	{"gateway.metrics_scrape_us", "us", "lower"},
	{"gateway.workflow_post_us", "us", "lower"},
	{"gateway.throttled_share", "share", "lower"},
	{"gateway.error_share", "share", "lower"},

	{"serve.submit_self_us", "us", "lower"},
	{"serve.submit_allocs", "count", "lower"},
	{"serve.queued_p50_us", "us", "lower"},
	{"serve.queued_p90_us", "us", "lower"},
	{"serve.batch_requests_mean", "count", "higher"},
	{"serve.burst_drain_us", "us", "lower"},
	{"serve.rejected_share", "share", "lower"},
	{"serve.moved_share", "share", "lower"},
	{"serve.stub_submit_ns_p1", "ns", "lower"},
	{"serve.stub_submit_ns_p2", "ns", "lower"},
	{"serve.scaling_p2_over_p1", "ratio", "higher"},
	{"serve.core_submit_ns", "ns", "lower"},
	{"serve.core_dispatch_ns", "ns", "lower"},
	{"serve.core_dispatch_formed_ns", "ns", "lower"},
	{"serve.core_steal_ns", "ns", "lower"},
	{"serve.core_steal_allocs", "count", "lower"},
	{"serve.balance_target_ns", "ns", "lower"},
	{"serve.steal_donor_ns", "ns", "lower"},
	{"serve.workflow_submit_us", "us", "lower"},

	{"faas.invoke_dscs_us", "us", "lower"},
	{"faas.invoke_cpu_us", "us", "lower"},
	{"faas.invoke_allocs", "count", "lower"},
	{"faas.invoke_bytes", "B", "lower"},
	{"faas.invoke_batch8_us", "us", "lower"},
	{"faas.invoke_cold_us", "us", "lower"},
	{"faas.exec_span_us", "us", "lower"},
	{"faas.exec_calls_per_req", "ratio", "lower"},
	{"faas.first_invoke_ms", "ms", "lower"},

	{"platform.infer_warm_ns", "ns", "lower"},
	{"platform.infer_allocs", "count", "lower"},
	{"platform.infer_cold_ms", "ms", "lower"},
	{"compiler.resnet50_ms", "ms", "lower"},
	{"dsa.bert_sim_ms", "ms", "lower"},
	{"dse.explore_ms", "ms", "lower"},

	{"objstore.get_ns", "ns", "lower"},
	{"objstore.put_ns", "ns", "lower"},
	{"objstore.get_allocs", "count", "lower"},
	{"objstore.failover_get_ns", "ns", "lower"},

	{"metrics.digest_record_ns", "ns", "lower"},
	{"metrics.digest_quantile_ns", "ns", "lower"},
	{"sched.telemetry_inc_ns", "ns", "lower"},
	{"sched.policy_pick_ns", "ns", "lower"},

	{"workflow.complete_ns", "ns", "lower"},
	{"workflow.place_ns", "ns", "lower"},

	{"cluster.run_req_per_s", "1/s", "higher"},
	{"cluster.hybrid_req_per_s", "1/s", "higher"},
	{"cluster.workflow_stage_per_s", "1/s", "higher"},
	{"cluster.hybrid_allocs_per_req", "count", "lower"},
	{"sim.engine_event_ns", "ns", "lower"},
	{"trace.generate_req_per_s", "1/s", "higher"},
	{"trace.parse_workflow_ns", "ns", "lower"},

	{"experiments.fig13_ms", "ms", "lower"},
	{"experiments.all_ms", "ms", "lower"},

	{"driver.raw_throughput_rps", "1/s", "higher"},
	{"driver.raw_latency_p50_us", "us", "lower"},
	{"driver.raw_latency_p99_us", "us", "lower"},
	{"driver.raw_latency_p999_us", "us", "lower"},
	{"driver.norm_latency_p99_us", "us", "lower"},
	{"driver.samples", "count", "higher"},
	{"driver.ref_iter_ns", "ns", "lower"},
	{"driver.ref_cv", "share", "lower"},
	{"driver.gc_cycles_per_kreq", "count", "lower"},
	{"driver.gc_pause_us_per_kreq", "us", "lower"},
	{"driver.heap_after_setup_mb", "MB", "lower"},
	{"driver.peak_rss_mb", "MB", "lower"},
	{"driver.trace_overhead_share", "share", "lower"},
}
