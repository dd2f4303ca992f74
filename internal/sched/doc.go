// Package sched is the scheduling substrate of the serving core: the
// bounded arrival-ordered queue, the task model, the pluggable placement
// policies of the paper's Section 5.3, and the minimal Prometheus-style
// telemetry registry the rest of the system records into.
//
// HybridQueue is a bounded FIFO over HybridTask (a request with its
// per-class service expectations). Beyond Submit, its surgical removal
// operations are what the serving core's batching and rebalancing are
// built from: TakeWhere (coalesce matching work anywhere in the queue),
// TakePrefixInto (drain the oldest backlog
// contiguously — the steal path), Head (inspect the oldest task), and
// Restore (reinsert by arrival order, bypassing the bound — an admitted
// task must never re-drop). Every operation preserves arrival order, so
// "the head is the oldest" stays true under any interleaving.
//
// Policies order dispatch: FCFSPolicy (the paper's deployed policy, and
// the default of every engine and simulation) and CriticalityPolicy
// (longest-running work to the accelerated class, shortest to the CPUs).
// A policy only selects a queue position; PickInto removes that task into
// the caller's storage, so a dispatch copies each task once.
// CriticalityPolicy is bounded by AgingMultiple: once the queue head has
// waited longer than AgingMultiple times its own expected service on the
// picking class, it dispatches next regardless of preference — without
// this bound the CPU side degenerates to shortest-job-first and a stream
// of short requests starves a long one forever. Tasks keep their Arrived
// instants across steals and restores, so the bound follows them between
// queues.
//
// Telemetry is a threadsafe counter/gauge registry rendered in exposition
// format by the gateway's /metrics.
//
// The queue operations and policies are pinned by FuzzHybridQueueOps and
// the property harness in internal/serve; the invariants are documented in
// ARCHITECTURE.md at the repository root.
package sched
