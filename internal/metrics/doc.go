// Package metrics provides the statistics behind both the paper's
// evaluation figures and the serving core's live adaptive decisions.
//
// The offline half serves the experiment runners: exact percentile
// summaries (Sample), cumulative distributions, time series, histograms,
// text tables, and a least-squares polynomial fitter for the
// Pareto-frontier figures.
//
// The online half is the observatory the scheduler closes its loops with:
//
//   - WindowDigest is a concurrent quantile digest over a fixed-window
//     ring whose sorted view gives windowed quantiles that react to drift.
//     An observation costs O(log window) compares and one bounded copy
//     when it is folded in; a quantile read is a mutex and an index, and
//     never sorts. The balancer holds one per pool for queue delays
//     (adaptive spillover/steal, serve_queue_delay_* gauges).
//   - Digest embeds a WindowDigest and adds constant-memory P² streaming
//     estimators (Jain & Chlamtac, 1985) for the cumulative p50/p95/p99
//     surfaced as serve_latency_* gauges.
//   - Digest.Adopt is the static-vs-live switching decision: below a
//     warmup count the prior holds; once warmed, the live quantile is
//     adopted when it diverges beyond AdoptEnterRatio (1.5x, either
//     direction) and released only on re-convergence within
//     AdoptExitRatio (1.2x) — a hysteresis latch, so pricing flips once at
//     a genuine regime change instead of flapping per request.
//     Digest.Blend is the smooth alternative: a pseudo-observation
//     weighted pull from the prior toward the observed p50.
//   - Observatory keys Digests by a two-part string key and applies the
//     package defaults (DefaultWindow, DefaultWarmup). The serving engine
//     and the discrete-event simulations key service latencies
//     {benchmark, platform} (adaptive estimation, serve_latency_* gauges).
//
// The digest's agreement with the exact Sample quantiles, its behavior on
// adversarial inputs, and the no-flapping latch are pinned by the package
// tests and FuzzDigestRecord.
package metrics
