package sched

import "time"

// Pick removes and returns the selected task (PickInto by value).
func (p FCFSPolicy) Pick(q *HybridQueue, class InstanceClass, now time.Duration) (t HybridTask, ok bool) {
	ok = PickInto(p, q, class, now, &t)
	return t, ok
}

// TakeWhere is TakeWhereInto into a fresh slice.
func (q *HybridQueue) TakeWhere(max int, match func(HybridTask) bool) []HybridTask {
	return q.TakeWhereInto(nil, max, match)
}
