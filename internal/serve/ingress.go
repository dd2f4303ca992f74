// ingress.go is the sharded front half of the engine's submit path. Every
// admit used to cross the single per-pool mutex; now a submission lands on
// a per-shard bounded staging queue (shards sized to GOMAXPROCS, picked
// per-P) and the staged backlog drains into the pool's PoolCore/BatchFormer
// under the pool lock in batches — submitters contend only on their shard,
// and the pool lock pays one acquisition per drained batch instead of one
// per request. The same per-class split PR 3 proved out for queues, applied
// one level up, at the mouth of the engine.
//
// The ingress is deterministic on its own (offer/drain/close are plain
// state transitions), so the property harness can model-check shard
// interleavings single-threaded, while the engine drives it from many
// submitter goroutines.

package serve

import (
	"slices"
	"sync"
	"sync/atomic"

	"dscs/internal/sched"
)

// shardTokens hands out small shard-id tokens without runtime internals.
// Pool Get/Put hits the per-P private slot on the fast path, so goroutines
// running on the same P keep reusing the same token — per-P shard affinity
// with zero allocation at steady state — while a cold or stolen slot just
// mints the next id round-robin.
var (
	shardSeq    atomic.Uint64
	shardTokens = sync.Pool{New: func() any {
		id := int(shardSeq.Add(1) - 1)
		return &id
	}}
)

// shardIndex returns a shard index in [0, n) biased to the calling P.
// Correctness never depends on the affinity: any shard works, affinity
// only keeps the shard locks uncontended.
func shardIndex(n int) int {
	if n <= 1 {
		return 0
	}
	tok := shardTokens.Get().(*int)
	id := *tok
	shardTokens.Put(tok)
	return id % n
}

// ingressEntry is one staged submission: the scheduling task plus the
// pending request it resolves to (nil in core-level harnesses).
type ingressEntry struct {
	task sched.HybridTask
	req  *request
}

// ingressShard is one staging queue. Writers touch only their shard's
// lock; with per-P shard selection that lock is effectively uncontended.
// The backing array is retained across drains, so steady-state offers do
// not allocate.
type ingressShard struct {
	mu     sync.Mutex
	closed bool
	items  []ingressEntry
}

// ingress fronts one pool's core with per-shard bounded staging queues.
// The admission bound covers staged plus queued work, so the engine's
// ErrQueueFull semantics survive the split: staged counts entries offered
// but not yet drained, queued mirrors the downstream core's occupancy
// (stored by the engine under the pool lock after every core mutation).
// transit counts the entries of the drain in progress, off the shards but
// not yet in the queued mirror, so pending never misses them.
type ingress struct {
	shards  []ingressShard
	staged  atomic.Int64
	queued  atomic.Int64
	transit atomic.Int64
	dropped atomic.Int64
	bound   int64
}

// newIngress builds an ingress of the given shard count (floored at one)
// in front of a queue bounded at bound.
func newIngress(shards, bound int) *ingress {
	if shards < 1 {
		shards = 1
	}
	in := &ingress{shards: make([]ingressShard, shards), bound: int64(bound)}
	for i := range in.shards {
		in.shards[i].items = make([]ingressEntry, 0, 32)
	}
	return in
}

// offer stages one entry on the given shard (modulo the shard count). It
// rejects with ErrQueueFull, counting a drop, once staged plus queued work
// reaches the bound, and with ErrClosed after close. (Spill attempts, whose
// reject must not count, bounce through Engine.admitDirect instead.)
// The bound check reads two atomics; under concurrent offers it is exact
// to within the in-flight racers, and a sequential caller sees exactly
// the old single-queue admission behavior.
//
//dscslint:hotpath
func (in *ingress) offer(shard int, e ingressEntry) error {
	if in.staged.Load()+in.queued.Load() >= in.bound {
		in.dropped.Add(1)
		return ErrQueueFull
	}
	s := &in.shards[shard%len(in.shards)]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.items = append(s.items, e)
	s.mu.Unlock()
	in.staged.Add(1)
	return nil
}

// pending reports staged, in-transit and queued work — what the
// spill/steal scans and the rescue re-check read in place of a locked
// core QueueLen. A drained entry moves staged → transit → queued, each
// count raised before the last is lowered, and the loads run in that
// order, so a backlog in motion is never read as empty: a peer parking on
// that misreading would strand a dead pool's backlog. The admission bound
// reads staged plus queued alone, so a drain never over-counts it.
func (in *ingress) pending() int {
	return int(in.staged.Load() + in.transit.Load() + in.queued.Load())
}

// drainInto empties every shard into scratch (reusing its backing array)
// and returns the entries merged into admission order — by arrival
// instant, task ID breaking ties — so cross-shard interleavings reach the
// core in the same order a single queue would have seen. The caller holds
// the pool lock and must account every returned entry.
//
//dscslint:hotpath
func (in *ingress) drainInto(scratch []ingressEntry) []ingressEntry {
	out := scratch[:0]
	if in.staged.Load() == 0 {
		return out
	}
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		out = append(out, s.items...)
		s.items = s.items[:0]
		s.mu.Unlock()
	}
	in.transit.Store(int64(len(out)))
	in.staged.Add(-int64(len(out)))
	if len(out) > 1 {
		slices.SortFunc(out, func(a, b ingressEntry) int {
			if a.task.Arrived != b.task.Arrived {
				if a.task.Arrived < b.task.Arrived {
					return -1
				}
				return 1
			}
			return a.task.ID - b.task.ID
		})
	}
	return out
}

// syncQueued stores the downstream core's occupancy into the admission
// bound's mirror, which ends any drain in transit. Called under the pool
// lock after every core mutation.
func (in *ingress) syncQueued(n int) {
	in.queued.Store(int64(n))
	if in.transit.Load() != 0 {
		in.transit.Store(0)
	}
}

// droppedCount reports offers rejected at the bound.
func (in *ingress) droppedCount() int { return int(in.dropped.Load()) }

// close marks every shard closed — subsequent offers fail with ErrClosed,
// with no window for an entry to strand unobserved — and returns the
// flushed backlog for the caller to fail.
func (in *ingress) close(scratch []ingressEntry) []ingressEntry {
	out := scratch[:0]
	n := 0
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		s.closed = true
		out = append(out, s.items...)
		n += len(s.items)
		s.items = nil
		s.mu.Unlock()
	}
	in.staged.Add(-int64(n))
	return out
}
