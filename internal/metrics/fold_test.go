package metrics

import (
	"math"
	"slices"
	"testing"
	"time"
)

// slideRef is the per-observation window the one-pass fold replaced, kept
// as its reference: each observation takes the ring slot of the oldest and
// moves the sorted view by one binary search and one copy.
type slideRef struct {
	ring, sorted []time.Duration
	next, window int
}

func (r *slideRef) slide(v time.Duration) {
	if v < 0 {
		v = 0
	}
	if len(r.ring) < r.window {
		r.ring = append(r.ring, v)
		i, _ := slices.BinarySearch(r.sorted, v)
		r.sorted = slices.Insert(r.sorted, i, v)
		return
	}
	old := r.ring[r.next]
	r.ring[r.next] = v
	r.next = (r.next + 1) % r.window
	out, _ := slices.BinarySearch(r.sorted, old)
	r.sorted = slices.Delete(r.sorted, out, out+1)
	in, _ := slices.BinarySearch(r.sorted, v)
	r.sorted = slices.Insert(r.sorted, in, v)
}

// TestFoldMatchesSlide is the batch fold's differential: seeded
// interleavings of Record, RecordBatch, runs staged across every shard at
// once (so one fold can hold up to maxStageShards*stageCap observations)
// and reads go through a digest, a single-owner Window twin (which stages
// in its own run) and the per-observation reference, and after every read
// each one's ring, cursor and sorted view must equal the reference's
// exactly, and the twin must have counted every observation. Windows run from 1 — every fold's run is longer
// than the window, so slots would be written twice — past the staging
// capacity to the default. Values are duplicate-heavy with a wide-range
// minority and the extremes, so runs cancel, tie and straddle each other.
func TestFoldMatchesSlide(t *testing.T) {
	for _, window := range []int{1, 2, 3, 5, 16, 17, 64, 200, DefaultWindow} {
		for seed := uint64(1); seed <= 3; seed++ {
			next := lcg(seed*1000 + uint64(window))
			value := func() time.Duration {
				switch next() % 16 {
				case 0:
					return math.MaxInt64
				case 1:
					return -time.Duration(next() % 5) // clamps to zero
				case 2, 3, 4:
					return time.Duration(next() % 1e9)
				}
				return time.Duration(next()%6) * time.Millisecond
			}
			d := NewDigest(window)
			// Stage across the largest shard set, whatever GOMAXPROCS is.
			d.shards = make([]digestShard, maxStageShards)
			d.staged = make([]stageEntry, maxStageShards*stageCap)
			ref := slideRef{window: window}
			twin := NewWindow(window)
			slide := func(v time.Duration) {
				ref.slide(v)
				twin.Record(v)
			}
			batch := make([]time.Duration, 0, 3*stageCap)
			for op := 0; op < 4000; op++ {
				switch next() % 6 {
				case 0:
					v := value()
					d.Record(v)
					slide(v)
				case 1:
					batch = batch[:next()%uint64(cap(batch)+1)]
					for i := range batch {
						batch[i] = value()
					}
					d.RecordBatch(batch)
					for _, v := range batch {
						slide(v)
					}
				case 2, 3:
					// Stage straight into random shards without folding, as
					// concurrent writers on different Ps leave them.
					for n := next() % (maxStageShards * stageCap / 2); n > 0; n-- {
						s := &d.shards[next()%maxStageShards]
						if s.n == stageCap {
							continue
						}
						v := value()
						stageRaw(s, stageEntry{seq: uint64(d.total.Add(1)), v: max(v, 0)})
						slide(v)
					}
				default:
					q := float64(next()%101) / 100
					want := quantileSorted(ref.sorted, q)
					if got := d.Quantile(q); got != want {
						t.Fatalf("window %d seed %d op %d: Quantile(%v) = %v, slide reference %v", window, seed, op, q, got, want)
					}
					if !slices.Equal(d.w.sorted, ref.sorted) || !slices.Equal(d.w.ring, ref.ring) || d.w.next != ref.next {
						t.Fatalf("window %d seed %d op %d: fold diverged from the per-observation slide\nsorted %v\nwant   %v\nring %v next %d\nwant %v next %d",
							window, seed, op, d.w.sorted, ref.sorted, d.w.ring, d.w.next, ref.ring, ref.next)
					}
					if got := twin.Quantile(q); got != want || twin.Count() != d.Count() {
						t.Fatalf("window %d seed %d op %d: Window twin Quantile(%v) = %v (count %d), slide reference %v (count %d)",
							window, seed, op, q, got, twin.Count(), want, d.Count())
					}
					if !slices.Equal(twin.sorted, ref.sorted) || !slices.Equal(twin.ring, ref.ring) || twin.next != ref.next {
						t.Fatalf("window %d seed %d op %d: Window twin diverged from the per-observation slide", window, seed, op)
					}
				}
			}
		}
	}
}

// stageRaw stages e on a shard that is not full, as a writer does, without
// folding.
func stageRaw(s *digestShard, e stageEntry) {
	s.mu.Lock()
	s.buf[s.n] = e
	s.n++
	s.active.Store(true)
	s.mu.Unlock()
}

// TestFoldAllocations pins the fold at no allocation with the widest
// staged run — every shard full, a full window folding 128 observations
// at once, on the staging scratch — and NewDigest at its five: the digest,
// ring, sorted view, shards and staging scratch.
func TestFoldAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	d := NewDigest(0)
	d.shards = make([]digestShard, maxStageShards)
	d.staged = make([]stageEntry, maxStageShards*stageCap)
	next := lcg(9)
	stageAll := func() {
		for i := range d.shards {
			s := &d.shards[i]
			for s.n < stageCap {
				stageRaw(s, stageEntry{seq: uint64(d.total.Add(1)), v: time.Duration(next() % 1e9)})
			}
		}
	}
	for len(d.w.ring) < cap(d.w.ring) {
		stageAll()
		d.Quantile(0.5)
	}
	if got := testing.AllocsPerRun(200, func() {
		stageAll()
		d.Quantile(0.5)
	}); got != 0 {
		t.Errorf("a full-window fold of %d observations allocates %v times, want 0", maxStageShards*stageCap, got)
	}
	if got := testing.AllocsPerRun(200, func() { NewDigest(0) }); got != 5 {
		t.Errorf("NewDigest allocates %v times, want 5", got)
	}
}
