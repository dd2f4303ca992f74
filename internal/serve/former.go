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
	"slices"
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
//
// The groups live by value in one slice, at most one per payload and in no
// particular order: a lookup scans the payloads and a close moves the last
// group into the freed slot. A pool has a handful of open groups (one per
// benchmark it serves), DuePayload and NextDue visit every one of them on
// each call anyway, and the slice keeps its capacity across batches, so
// opening a group allocates nothing once the former has seen its widest
// mix of payloads.
type BatchFormer struct {
	target   int
	linger   time.Duration
	slo      time.Duration
	class    sched.InstanceClass
	groups   []FormingGroup
	formed   int
	estimate ServiceEstimator
	// weight is a queued task's model batch (SetWeight).
	weight func(sched.HybridTask) int
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
	return &BatchFormer{target: target, linger: linger, slo: slo, class: class, weight: unitWeight}
}

// unitWeight weighs every task one: the sims' requests carry no model batch.
func unitWeight(sched.HybridTask) int { return 1 }

// find returns the index of the payload's open group, or -1.
func (f *BatchFormer) find(payload string) int {
	for i := range f.groups {
		if f.groups[i].Payload == payload {
			return i
		}
	}
	return -1
}

// remove closes group i by moving the last group into its slot; the
// vacated tail slot is cleared so it does not pin the payload string.
func (f *BatchFormer) remove(i int) {
	last := len(f.groups) - 1
	f.groups[i] = f.groups[last]
	f.groups[last] = FormingGroup{}
	f.groups = f.groups[:last]
}

// SetEstimator attaches a live service estimator: memberDue prices
// deadline slack with its result instead of the task's static estimate —
// the adaptive-estimates path, where observed latency digests replace the
// graph-derived pricing once warmed. A non-positive result is ignored in
// favor of the static prior (the digest must never feed a zero or
// degenerate estimate into slack arithmetic).
func (f *BatchFormer) SetEstimator(est ServiceEstimator) { f.estimate = est }

// SetWeight attaches the owner's model batch of a queued task: what the
// pool's requeue re-observes and its steals shed (PoolCore.Requeue,
// StealFrom, DispatchFrom). Unset, every task weighs one.
func (f *BatchFormer) SetWeight(w func(sched.HybridTask) int) { f.weight = w }

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
	var g *FormingGroup
	if i := f.find(t.Payload); i >= 0 {
		g = &f.groups[i]
		if t.Arrived < g.Oldest {
			g.Oldest = t.Arrived
		}
		if due := f.memberDue(t); due < g.Due {
			g.Due = due
		}
	} else {
		f.groups = append(f.groups, FormingGroup{Payload: t.Payload, Oldest: t.Arrived, Due: f.memberDue(t)})
		g = &f.groups[len(f.groups)-1]
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
	i := f.find(payload)
	if i < 0 {
		return true
	}
	g := &f.groups[i]
	return g.Size >= f.target || now >= g.Due
}

// DuePayload returns some payload outside skip whose group must dispatch at
// now (deterministically the one with the earliest due instant, ties
// broken by payload name), and false when nothing is due.
func (f *BatchFormer) DuePayload(now time.Duration, skip []string) (string, bool) {
	var best *FormingGroup
	for i := range f.groups {
		g := &f.groups[i]
		if (g.Size < f.target && now < g.Due) || slices.Contains(skip, g.Payload) {
			continue
		}
		if best == nil || g.Due < best.Due || (g.Due == best.Due && g.Payload < best.Payload) {
			best = g
		}
	}
	if best == nil {
		return "", false
	}
	return best.Payload, true
}

// NextDue returns the earliest due instant across the open groups of
// payloads outside skip, and false when none is forming.
func (f *BatchFormer) NextDue(skip []string) (time.Duration, bool) {
	found := false
	var min time.Duration
	for i := range f.groups {
		if due := f.groups[i].Due; (!found || due < min) && !slices.Contains(skip, f.groups[i].Payload) {
			min, found = due, true
		}
	}
	return min, found
}

// Close removes the payload's group when its batch dispatches and counts
// the formed batch; a payload with no open group is left uncounted.
func (f *BatchFormer) Close(payload string) {
	if i := f.find(payload); i >= 0 {
		f.remove(i)
		f.formed++
	}
}

// Reopen takes back the count of a Close whose batch went back to the
// queue before it ran: its tasks are Observed again, and the group counts
// as formed when it next dispatches.
func (f *BatchFormer) Reopen() { f.formed-- }

// Shed removes batch from the payload's forming group when queued work
// leaves the pool by another door (a steal pulled it away); an emptied
// group is dropped without counting as formed.
func (f *BatchFormer) Shed(payload string, batch int) {
	i := f.find(payload)
	if i < 0 {
		return
	}
	f.groups[i].Size -= batch
	if f.groups[i].Size <= 0 {
		f.remove(i)
	}
}

// Drop discards a payload's group entirely (no queued members remain)
// without counting it as formed.
func (f *BatchFormer) Drop(payload string) {
	if i := f.find(payload); i >= 0 {
		f.remove(i)
	}
}

// Formed counts batches released through Close.
func (f *BatchFormer) Formed() int { return f.formed }
