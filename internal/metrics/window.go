// window.go is the sliding-window order statistic both latency digests
// are built on: a ring of the most recent observations with a sorted view
// of it, so windowed quantiles react to drift. Window is its single-owner
// form — the simulations' per-pool wait windows, read and written by one
// event pump — and Digest (digest.go) is the concurrent shell around
// exactly one of them: a mutex in front of the same staging run and fold.

package metrics

import (
	"math"
	"slices"
	"time"
)

// stageCap is a window's staging run, in observations.
const stageCap = 16

// stageEntry is one staged observation. old is foldFull's scratch column:
// the fold keeps the values the run evicts there, sorted on their own.
type stageEntry struct {
	v   time.Duration
	old uint64
}

// Window is a sliding window of the last size observations with an
// order-statistic view, for a single owner: no lock, no atomic. Not safe
// for concurrent use; a Digest is the concurrent form.
//
// Record stages observations in a small run that folds into the window
// when it fills or a read finds it non-empty. While reads keep arriving,
// the fold keeps the sorted view in step with the ring, one staged run at
// a time (foldFull) — two binary searches bound the span the run's
// evicted and new values touch, and that span is rewritten twice: once to
// drop the evicted values, once to merge in the newcomers (O(log W + k²)
// compares for a run of k plus at most 2W words moved per fold, not per
// observation). Once a whole window of observations has folded with no
// read in between, nobody is looking: folds then write only the ring and
// mark the view stale, and the next read re-sorts the ring into the
// view's buffer (O(W log W), no allocation) — paid only after at least W
// unread observations whose incremental folds it replaces, so a window
// read less than once a window (a gauge under heavy traffic, a run's final
// quantile) stops paying per fold, and one read after every write pays
// what it always did.
type Window struct {
	ring []time.Duration // eviction order (circular)
	next int
	// sorted holds the ring's multiset in ascending order — the
	// order-statistic view quantiles index — whenever stale is false.
	sorted []time.Duration
	// unread counts the observations folded since the last read; once it
	// reaches a full window, folds stop maintaining sorted and set stale,
	// and the next read (view) rebuilds it from the ring.
	unread int
	stale  bool
	// folded counts the observations folded into ring and sorted.
	folded int64
	// pending is Record's staged run, folded when it fills or on a read.
	pending []stageEntry
}

// NewWindow returns an empty window over the given size (DefaultWindow
// when non-positive).
func NewWindow(size int) *Window {
	w := makeWindow(size)
	return &w
}

// makeWindow returns an empty window by value, for a Digest to embed.
func makeWindow(size int) Window {
	if size <= 0 {
		size = DefaultWindow
	}
	return Window{
		ring:    make([]time.Duration, 0, size),
		sorted:  make([]time.Duration, 0, size),
		pending: make([]stageEntry, 0, stageCap),
	}
}

// Record stages one observation, folding the staged run forward when it
// fills. Negative durations (a clock anomaly upstream) clamp to zero so no
// quantile can ever go negative.
//
//dscslint:hotpath
func (w *Window) Record(v time.Duration) {
	if v < 0 {
		v = 0
	}
	w.pending = append(w.pending, stageEntry{v: v})
	if len(w.pending) == cap(w.pending) {
		w.flush()
	}
}

// Count reports the total observations ever recorded (not capped at the
// window) — the warmup thresholds compare against it.
func (w *Window) Count() int64 {
	return w.folded + int64(len(w.pending))
}

// Quantile returns the p-quantile over the sliding window by the same
// interpolation as Sample.Percentile. Never negative, never NaN; 0 only
// when nothing was recorded.
func (w *Window) Quantile(p float64) time.Duration {
	return quantileSorted(w.view(), p)
}

// flush folds the staged run into the window.
func (w *Window) flush() {
	if len(w.pending) > 0 {
		w.fold(w.pending)
		w.pending = w.pending[:0]
	}
}

// view is every read's entry: it folds anything staged, rebuilds a stale
// view from the ring in place — the window's multiset never changed, so
// the rebuilt view is the one incremental folds would have kept — and
// returns the sorted window.
func (w *Window) view() []time.Duration {
	w.flush()
	w.unread = 0
	if w.stale {
		w.sorted = append(w.sorted[:0], w.ring...)
		slices.Sort(w.sorted)
		w.stale = false
	}
	return w.sorted
}

// fold brings a run of observations, in arrival order, into the window.
// The run's old column is scratch from here on (see foldFull).
func (w *Window) fold(staged []stageEntry) {
	n := len(staged)
	// The first window observations ever recorded fill the ring one at a
	// time.
	for len(staged) > 0 && len(w.ring) < cap(w.ring) {
		w.fill(staged[0].v)
		staged = staged[1:]
	}
	// A run longer than the window would write some slots twice. Its
	// excess is gone before the fold ends — the last window of the run
	// overwrites every slot — so it only advances the eviction cursor.
	if excess := len(staged) - len(w.ring); excess > 0 {
		w.next = (w.next + excess) % len(w.ring)
		staged = staged[excess:]
	}
	if len(staged) > 0 {
		if w.stale || w.unread >= len(w.ring) {
			// A full window folded unread: stop maintaining the view until
			// a reader asks for it.
			w.stale = true
			w.writeRing(staged)
		} else {
			w.foldFull(staged)
		}
	}
	w.unread += n
	w.folded += int64(n)
}

// writeRing overwrites the full ring's oldest slots with a run, in
// arrival order, leaving the (stale) sorted view alone.
func (w *Window) writeRing(run []stageEntry) {
	for i := range run {
		w.ring[w.next] = run[i].v
		if w.next++; w.next == len(w.ring) {
			w.next = 0
		}
	}
}

// foldFull folds a run of at most one window of observations, in arrival
// order, into the full window in one pass: the run overwrites the ring's
// oldest slots, and the sorted view gives up the evicted multiset and
// merges in the newcomers — the multiset a full re-sort of the ring would
// produce, so every quantile is bit-identical to it. A value that is both
// evicted and new cancels out; what is left costs two binary searches and
// one copy per value, and nothing above the largest value moved is
// touched. The fold keeps the evicted values in the run's own old column
// (the order is fixed once the ring is written), so it needs no scratch of
// its own.
func (w *Window) foldFull(run []stageEntry) {
	for i := range run {
		e := &run[i]
		old := w.ring[w.next]
		w.ring[w.next] = e.v
		if w.next++; w.next == len(w.ring) {
			w.next = 0
		}
		e.old = uint64(old) // observations are never negative
	}
	// Sort each column on its own: v holds the newcomers, old the evicted.
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j].v < run[j-1].v; j-- {
			run[j].v, run[j-1].v = run[j-1].v, run[j].v
		}
		for j := i; j > 0 && run[j].old < run[j-1].old; j-- {
			run[j].old, run[j-1].old = run[j-1].old, run[j].old
		}
	}
	run = run[:cancelEqual(run)]
	if len(run) == 0 {
		return
	}
	evicted := func(i int) time.Duration { return time.Duration(run[i].old) }
	sorted := w.sorted
	k := len(run)
	// Drop the evicted values front to back, one copy per gap between
	// them...
	first, _ := slices.BinarySearch(sorted, evicted(0))
	r, wr := first, first
	for i := 1; i < k; i++ {
		p, _ := slices.BinarySearch(sorted[r+1:], evicted(i))
		p += r + 1
		wr += copy(sorted[wr:], sorted[r+1:p])
		r = p
	}
	// ...up to hi: nothing at or above it moves, being past every value
	// that leaves or arrives...
	hi := r + 1
	if last := run[k-1].v; last == math.MaxInt64 {
		hi = len(sorted)
	} else if last > evicted(k-1) {
		p, _ := slices.BinarySearch(sorted[hi:], last+1)
		hi += p
	}
	wr += copy(sorted[wr:], sorted[r+1:hi])
	// ...then merge the newcomers in from the back, one copy per gap. A
	// newcomer no smaller than the first evicted value lands at or after
	// its position.
	end, kept := hi, wr
	for j := k - 1; j >= 0; j-- {
		v, p := run[j].v, kept
		if p > 0 && sorted[p-1] > v {
			from := 0
			if v >= evicted(0) {
				from = first
			}
			p, _ = slices.BinarySearch(sorted[from:kept], v)
			p += from
		}
		end -= copy(sorted[end-(kept-p):end], sorted[p:kept]) + 1
		sorted[end] = v
		kept = p
	}
}

// cancelEqual removes the values a sorted run both evicts (old column)
// and brings in (v column) — they leave the window's multiset as it was —
// and reports how many of each remain, compacted to the front of their
// columns in order.
func cancelEqual(run []stageEntry) int {
	a, b, ke, kn := 0, 0, 0, 0
	for a < len(run) && b < len(run) {
		switch ev, nv := run[a].old, uint64(run[b].v); {
		case ev == nv:
			a++
			b++
		case ev < nv:
			run[ke].old = ev
			ke++
			a++
		default:
			run[kn].v = run[b].v
			kn++
			b++
		}
	}
	for ; a < len(run); a++ {
		run[ke].old = run[a].old
		ke++
	}
	for ; b < len(run); b++ {
		run[kn].v = run[b].v
		kn++
	}
	return ke // == kn: as many values stay as leave
}

// fill appends v to a ring that is not full yet and inserts it into the
// sorted view.
func (w *Window) fill(v time.Duration) {
	w.ring = append(w.ring, v)
	i, _ := slices.BinarySearch(w.sorted, v)
	w.sorted = slices.Insert(w.sorted, i, v)
}
