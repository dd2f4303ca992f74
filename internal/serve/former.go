// former.go is the batch former, the one way a pool holds work back to
// batch it. Rather than a worker dispatching the policy pick and then
// holding it open for stragglers, the former groups same-benchmark
// arrivals across the whole queue while they are still queued, and
// releases a batch to a worker only when it is ready: the profitable
// target size was reached, the oldest member has lingered out, or the
// oldest member's deadline slack is exhausted (SLO-aware). Like the
// rest of the scheduling core it is clock-free — the live engine feeds it
// wall time from worker goroutines and the discrete-event simulation feeds
// it virtual time, so both exercise the same forming decision.

package serve

import (
	"time"

	"dscs/internal/sched"
)

// FormingGroup is one payload's batch being gathered across the queue.
type FormingGroup struct {
	Payload string
	// Oldest is the earliest member's arrival instant.
	Oldest time.Duration
	// Due is the instant the group must dispatch regardless of size: the
	// tightest of every member's linger window and deadline slack.
	Due time.Duration
	// Size is the combined model batch gathered so far.
	Size int
}

// ServiceEstimator supplies a live service-time estimate for a payload's
// deadline pricing; static is the task's static prior (its class service
// estimate). Implementations must return a positive duration whenever
// static is positive — fall back to static while un-warmed — or the
// former's slack arithmetic would hold batches past their budget.
type ServiceEstimator func(payload string, static time.Duration) time.Duration

// BatchFormer tracks the forming groups of one pool's queue. Not safe for
// concurrent use on its own; like PoolCore it is driven under the owner's
// lock (engine) or from a single-threaded simulation.
type BatchFormer struct {
	target   int
	linger   time.Duration
	slo      time.Duration
	class    sched.InstanceClass
	groups   map[string]*FormingGroup
	formed   int
	estimate ServiceEstimator
}

// NewBatchFormer builds a former releasing batches at target size, holding
// a group open at most linger past its oldest member's arrival. With slo
// set, each member also bounds the hold by its deadline slack: a group
// dispatches no later than Arrived + slo - Service(class), so a request
// with little slack left is never held for the sake of occupancy.
func NewBatchFormer(target int, linger, slo time.Duration, class sched.InstanceClass) *BatchFormer {
	if target < 1 {
		target = 1
	}
	return &BatchFormer{
		target: target, linger: linger, slo: slo, class: class,
		groups: make(map[string]*FormingGroup),
	}
}

// SetEstimator attaches a live service estimator: memberDue prices
// deadline slack with its result instead of the task's static estimate —
// the adaptive-estimates path, where observed latency digests replace the
// graph-derived pricing once warmed. A non-positive result is ignored in
// favor of the static prior (the digest must never feed a zero or
// degenerate estimate into slack arithmetic).
func (f *BatchFormer) SetEstimator(est ServiceEstimator) { f.estimate = est }

// memberDue is the latest instant a single member tolerates its group
// staying open: its linger window, tightened by its deadline slack.
func (f *BatchFormer) memberDue(t sched.HybridTask) time.Duration {
	due := t.Arrived + f.linger
	if f.slo > 0 {
		svc := t.Service(f.class)
		if f.estimate != nil {
			if live := f.estimate(t.Payload, svc); live > 0 {
				svc = live
			}
		}
		if slack := t.Arrived + f.slo - svc; slack < due {
			due = slack
		}
	}
	if due < t.Arrived {
		due = t.Arrived // already out of slack: dispatch immediately
	}
	return due
}

// Observe folds an admitted arrival into its payload's forming group,
// opening one if needed. batch is the request's model batch (>= 1). It
// returns the group's (possibly tightened) due instant.
//
//dscslint:hotpath
func (f *BatchFormer) Observe(t sched.HybridTask, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	g := f.groups[t.Payload]
	if g == nil {
		g = &FormingGroup{Payload: t.Payload, Oldest: t.Arrived, Due: f.memberDue(t)}
		f.groups[t.Payload] = g
	} else {
		if t.Arrived < g.Oldest {
			g.Oldest = t.Arrived
		}
		if due := f.memberDue(t); due < g.Due {
			g.Due = due
		}
	}
	g.Size += batch
	return g.Due
}

// Ready reports whether the payload's batch should dispatch at now: its
// group reached the target size, or its due instant has passed. Work with
// no forming group (stolen in from another pool, or queued before the
// former was attached) is always ready — the former must never hold what
// it did not see arrive.
func (f *BatchFormer) Ready(payload string, now time.Duration) bool {
	g := f.groups[payload]
	if g == nil {
		return true
	}
	return g.Size >= f.target || now >= g.Due
}

// DuePayload returns some payload whose group must dispatch at now
// (deterministically the one with the earliest due instant, ties broken by
// payload name), and false when nothing is due.
func (f *BatchFormer) DuePayload(now time.Duration) (string, bool) {
	found := false
	var best *FormingGroup
	for _, g := range f.groups {
		if g.Size < f.target && now < g.Due {
			continue
		}
		if !found || g.Due < best.Due || (g.Due == best.Due && g.Payload < best.Payload) {
			best, found = g, true
		}
	}
	if !found {
		return "", false
	}
	return best.Payload, true
}

// NextDue returns the earliest due instant across open groups, and false
// when nothing is forming.
func (f *BatchFormer) NextDue() (time.Duration, bool) {
	found := false
	var min time.Duration
	for _, g := range f.groups {
		if !found || g.Due < min {
			min, found = g.Due, true
		}
	}
	return min, found
}

// Close removes the payload's group when its batch dispatches and counts
// the formed batch. It returns the closed group (nil when none existed).
func (f *BatchFormer) Close(payload string) *FormingGroup {
	g := f.groups[payload]
	if g != nil {
		delete(f.groups, payload)
		f.formed++
	}
	return g
}

// Shed removes batch from the payload's forming group when queued work
// leaves the pool by another door (a steal pulled it away); an emptied
// group is dropped without counting as formed.
func (f *BatchFormer) Shed(payload string, batch int) {
	g := f.groups[payload]
	if g == nil {
		return
	}
	g.Size -= batch
	if g.Size <= 0 {
		delete(f.groups, payload)
	}
}

// Drop discards a payload's group entirely (no queued members remain)
// without counting it as formed.
func (f *BatchFormer) Drop(payload string) { delete(f.groups, payload) }

// Formed counts batches released through Close.
func (f *BatchFormer) Formed() int { return f.formed }
