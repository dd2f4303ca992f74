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
//   - Window is a fixed-window ring whose sorted view gives windowed
//     quantiles that react to drift, for a single owner. An observation
//     costs O(log window) compares and one bounded copy when it is folded
//     in; a quantile read is an index, and never sorts. The simulations'
//     MultiCore holds one per pool for queue delays.
//   - Digest is the concurrent shell around one Window: a mutex, with the
//     Window's own staging run behind it, so a write is the lock and an
//     append and a read is the lock and an index. The serving
//     engine holds one per pool for queue delays (adaptive
//     spillover/steal, serve_queue_delay_* gauges) and one per
//     {benchmark, platform} for service latency. Window, Digest and Sample
//     share one interpolation rule, so they agree on identical inputs.
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
//     Both gauge families publish the windowed quantiles the decisions
//     read.
//
// The digest's agreement with the exact Sample quantiles, its behavior on
// adversarial inputs, and the no-flapping latch are pinned by the package
// tests and FuzzDigestRecord.
package metrics
