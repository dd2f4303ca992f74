// Package serve is the concurrent serving core shared by the live HTTP
// gateway and the discrete-event simulations: worker pools over a
// clock-free scheduling state machine, so the simulated rack and the real
// request path exercise the same scheduler.
//
// The package splits along the clock boundary:
//
//   - The state machines (PoolCore; MultiCore, N pools with their own
//     backlogs or, by PoolSpec.Backlog, several classes draining one) own no
//     goroutines and no clocks. Callers inject `now` into every dispatch —
//     wall time on the live engine, virtual time in internal/cluster's one
//     sim driver — and
//     drive admission (Submit), policy-ordered dispatch (Dispatch /
//     DispatchFormed), request coalescing (Coalesce), rebalancing
//     (StealFrom / Steal), and retirement (Complete) as plain calls.
//   - The Engine is the goroutine half: one worker pool per platform over
//     a PoolCore each, bounded-queue admission control (ErrQueueFull maps
//     to HTTP 429 at the gateway), run-to-completion execution against the
//     faas runners, and per-drive occupancy for DSCS-class executions. It
//     reads wall time in one file, clock.go: engine time and every timer
//     (each pool's one wake timer, faults, hedges, Quiesce deadlines,
//     workflow offsets and fetches) go through it, nothing polls the
//     clock, and no other file is exempt from the clockcheck lint.
//
// Batching is one clock-free decision, the BatchFormer: under a linger
// bound, same-benchmark arrivals group across the whole queue before any
// worker dispatches, releasing at the target size, the linger bound, or
// the deadline-slack bound (SLO-aware). Without one, a dispatch coalesces
// only what already queued.
//
// Queued work rebalances in both directions across pools. Submit-time
// spillover pushes DSCS-class submissions to a CPU pool; drain-time
// stealing lets an idle pool pull a peer's oldest backlog (StealFrom keeps
// arrival instants and order, so the sched.AgingMultiple starvation bound
// follows tasks across queues). The live engine has one trigger, behind
// Options.AdaptiveBalance: the wait-keyed latch. Every dispatch records
// the served request's queue delay — arrival to dispatch — into its
// pool's window digest (surfaced as the per-{platform, class}
// serve_queue_delay_{p50,p95,p99} gauges), and work moves once the donor
// pool's adopted wait-p95 has diverged above the target's past the
// metrics adoption hysteresis (Digest.Adopt's bands over one
// metrics.Latch per pool pair). That decision is the balancer's
// (balancer.go), one copy behind both MultiCore and the Engine and applied
// between any pair of pools, so multiple same-class platforms rebalance
// with the same logic as a CPU/DSCS pair. A submission aimed at a dead
// DSCS pool reroutes through the same BalanceTarget call, without the
// latch. The simulations (cluster.HybridConfig) run the same decisions
// and no other.
//
// Scheduling decisions are priced by per-benchmark service estimates:
// static graph-derived priors by default, blended toward live latency
// digests behind Options.AdaptiveEstimates.
//
// The invariants every state machine preserves — conservation, worker
// bounds, no double dispatch, the aged-head starvation bound — are pinned
// by the property harness in property_test.go and documented in
// ARCHITECTURE.md at the repository root.
package serve
