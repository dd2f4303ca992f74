// digest.go is the latency observatory's data structure: an online
// quantile digest safe for concurrent Record from serving-engine worker
// goroutines. A Digest is a fixed-size ring of the most recent
// observations with a sorted view of it, so its windowed quantiles react
// to drift; every adaptive decision reads them — the wait-keyed balance
// (one digest per pool), the Adopt latch and Blend that service-estimate
// pricing uses, and the serve_latency_* and serve_queue_delay_* gauges on
// /metrics. The Observatory keys Digests per {benchmark, platform}, so the
// scheduler's live pricing and the telemetry both see per-pool service
// behavior rather than one blurred aggregate.

package metrics

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Digest tuning defaults shared by the serving engine and the
// discrete-event simulations.
const (
	// DefaultWindow is the sliding-window size of a digest, in
	// observations.
	DefaultWindow = 512
	// DefaultWarmup is the observation count below which a digest defers
	// to the static prior (the cold-start estimate).
	DefaultWarmup = 32
)

// Adoption hysteresis bands: a live estimate replaces the static prior
// only once it diverges beyond AdoptEnterRatio (in either direction), and
// drops back only when it re-converges within the tighter AdoptExitRatio —
// so pricing cannot flap when the observed latency hovers at a boundary.
const (
	AdoptEnterRatio = 1.5
	AdoptExitRatio  = 1.2
)

// Staging geometry: Record stages observations in per-shard fixed rings
// (contention-free for writers) that fold into the merged window only when
// a shard fills or a reader finds something staged.
const (
	// stageCap is one staging shard's capacity, in observations.
	stageCap = 16
	// maxStageShards bounds the per-digest shard count (shards default to
	// GOMAXPROCS, capped here so a digest's footprint stays small).
	maxStageShards = 8
)

// stageEntry is one staged observation with its global sequence number:
// the read-time merge folds entries in sequence order, so a deterministic
// (single-goroutine) Record stream folds exactly as the pre-sharding
// digest ingested it — quantiles and adoption flips stay bit-identical —
// no matter which shard each observation landed on.
type stageEntry struct {
	seq uint64
	v   time.Duration
}

// digestShard is one staging ring. Writers touch only their shard's lock,
// which with per-P shard selection is effectively uncontended.
type digestShard struct {
	mu  sync.Mutex
	n   int
	buf [stageCap]stageEntry
}

// Digest is a sliding window of the last window observations, plus the
// static-vs-live Adopt latch and Blend. Safe for concurrent use, and built
// for reads that follow writes (the balance decision reads a pool's wait
// digest on every submission, right after a dispatch recorded into it):
// Record appends to a per-P staging shard (no allocation, no shared lock),
// and the merged state — the window ring and its order-statistic view — is
// folded forward under the digest lock when a shard fills or a reader
// finds something staged.
//
// Who pays what: the fold keeps the sorted view in step with the ring, one
// staged run at a time (foldFullLocked) — two binary searches bound the
// span the run's evicted and new values touch, and that span is rewritten
// twice: once to drop the evicted values, once to merge in the newcomers
// (O(log W + k²) compares for a run of k plus at most 2W words moved per
// fold, not per observation). A windowed read is then the digest mutex and
// an index; with nothing staged it touches no shard lock at all
// (folded == total).
type Digest struct {
	mu   sync.Mutex
	ring []time.Duration // eviction order (circular)
	next int
	// sorted holds the ring's multiset in ascending order after every
	// folded observation — the order-statistic view quantiles index.
	sorted []time.Duration

	// total counts every Record ever made (staged included) — warmup
	// thresholds read it without touching any lock. It doubles as the
	// sequence source for the staging merge order.
	total atomic.Int64
	// folded counts the observations folded into ring and sorted, under
	// mu. It trails total by exactly what is staged or about to be (Record
	// bumps total before it stages), so folded == total means every shard
	// is empty.
	folded int64
	// shards are the staging rings; staged is the fold's merge scratch, one
	// slot per staging slot, owned by mu. It lives here and not in the
	// fold's frame so that a goroutine's first read fits the stack it
	// started with.
	shards []digestShard
	staged []stageEntry

	// live is the adoption latch (see Adopt); flips counts its toggles.
	live  bool
	flips int64
}

// NewDigest returns an empty digest over a window of the given size
// (DefaultWindow when non-positive).
func NewDigest(window int) *Digest {
	if window <= 0 {
		window = DefaultWindow
	}
	shards := runtime.GOMAXPROCS(0)
	if shards > maxStageShards {
		shards = maxStageShards
	}
	if shards < 1 {
		shards = 1
	}
	return &Digest{
		ring:   make([]time.Duration, 0, window),
		sorted: make([]time.Duration, 0, window),
		shards: make([]digestShard, shards),
		staged: make([]stageEntry, shards*stageCap),
	}
}

// Record stages one observation: an atomic sequence fetch plus an
// uncontended shard append — no allocation, no shared lock. Negative
// durations (a clock anomaly upstream) clamp to zero so no quantile can
// ever go negative. When the caller's shard fills, Record folds the
// staged backlog forward (amortized: once per stageCap observations).
//
//dscslint:hotpath
func (d *Digest) Record(v time.Duration) {
	if v < 0 {
		v = 0
	}
	seq := uint64(d.total.Add(1))
	s := &d.shards[ShardIndex(len(d.shards))]
	for {
		s.mu.Lock()
		if s.n < stageCap {
			s.buf[s.n] = stageEntry{seq: seq, v: v}
			s.n++
			full := s.n == stageCap
			s.mu.Unlock()
			if full {
				d.mu.Lock()
				d.foldStagedLocked()
				d.mu.Unlock()
			}
			return
		}
		// The shard filled and its folder hasn't drained it yet (the fold
		// happens outside the shard lock). Fold it forward ourselves and
		// retry — the fold empties every shard, so this makes progress.
		s.mu.Unlock()
		d.mu.Lock()
		d.foldStagedLocked()
		d.mu.Unlock()
	}
}

// RecordBatch stages a run of observations exactly as consecutive Record
// calls would — same values, same order, same sequence numbers — but pays
// the sequence fetch, shard selection, and shard lock once per run instead
// of once per value. The serving engine records one dispatched batch's
// queue delays through this. Folds fire on the same shard-full edges as
// the one-at-a-time path.
//
//dscslint:hotpath
func (d *Digest) RecordBatch(vs []time.Duration) {
	if len(vs) == 0 {
		return
	}
	seq := uint64(d.total.Add(int64(len(vs)))) - uint64(len(vs)) + 1
	s := &d.shards[ShardIndex(len(d.shards))]
	i := 0
	for i < len(vs) {
		s.mu.Lock()
		for i < len(vs) && s.n < stageCap {
			v := vs[i]
			if v < 0 {
				v = 0
			}
			s.buf[s.n] = stageEntry{seq: seq, v: v}
			s.n++
			seq++
			i++
		}
		full := s.n == stageCap
		s.mu.Unlock()
		if full {
			d.mu.Lock()
			d.foldStagedLocked()
			d.mu.Unlock()
		}
	}
}

// foldStagedLocked drains every staging shard and folds the entries into
// the merged window in sequence order. With nothing staged it returns
// without touching a shard lock. Callers hold d.mu.
func (d *Digest) foldStagedLocked() {
	if d.folded == d.total.Load() {
		return
	}
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		n += copy(d.staged[n:], s.buf[:s.n])
		s.n = 0
		s.mu.Unlock()
	}
	staged := d.staged[:n]
	// Insertion sort by sequence: single-writer streams arrive already
	// ordered (one pass), and the concurrent case is at most a few
	// stage-rings' worth of nearly sorted entries.
	for i := 1; i < len(staged); i++ {
		for j := i; j > 0 && staged[j].seq < staged[j-1].seq; j-- {
			staged[j], staged[j-1] = staged[j-1], staged[j]
		}
	}
	// The first window observations ever recorded fill the ring one at a
	// time.
	for len(staged) > 0 && len(d.ring) < cap(d.ring) {
		d.fillLocked(staged[0].v)
		staged = staged[1:]
	}
	// A run longer than the window would write some slots twice. Its
	// excess is gone before the fold ends — the last window of the run
	// overwrites every slot — so it only advances the eviction cursor.
	if excess := len(staged) - len(d.ring); excess > 0 {
		d.next = (d.next + excess) % len(d.ring)
		staged = staged[excess:]
	}
	if len(staged) > 0 {
		d.foldFullLocked(staged)
	}
	d.folded += int64(n)
}

// foldFullLocked folds a run of at most one window of observations, in
// sequence order, into the full window in one pass: the run overwrites the
// ring's oldest slots, and the sorted view gives up the evicted multiset
// and merges in the newcomers — the multiset a full re-sort of the ring
// would produce, so every quantile is bit-identical to it. A value that is
// both evicted and new cancels out; what is left costs two binary searches
// and one copy per value, and nothing above the largest value moved is
// touched. The fold keeps the evicted values in the run's own seq column
// (the order is fixed once the ring is written), so it needs no scratch of
// its own. Callers hold d.mu.
func (d *Digest) foldFullLocked(run []stageEntry) {
	for i := range run {
		e := &run[i]
		old := d.ring[d.next]
		d.ring[d.next] = e.v
		if d.next++; d.next == len(d.ring) {
			d.next = 0
		}
		e.seq = uint64(old) // observations are never negative
	}
	// Sort each column on its own: v holds the newcomers, seq the evicted.
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j].v < run[j-1].v; j-- {
			run[j].v, run[j-1].v = run[j-1].v, run[j].v
		}
		for j := i; j > 0 && run[j].seq < run[j-1].seq; j-- {
			run[j].seq, run[j-1].seq = run[j-1].seq, run[j].seq
		}
	}
	run = run[:cancelEqual(run)]
	if len(run) == 0 {
		return
	}
	evicted := func(i int) time.Duration { return time.Duration(run[i].seq) }
	sorted := d.sorted
	k := len(run)
	// Drop the evicted values front to back, one copy per gap between
	// them...
	first, _ := slices.BinarySearch(sorted, evicted(0))
	r, w := first, first
	for i := 1; i < k; i++ {
		p, _ := slices.BinarySearch(sorted[r+1:], evicted(i))
		p += r + 1
		w += copy(sorted[w:], sorted[r+1:p])
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
	w += copy(sorted[w:], sorted[r+1:hi])
	// ...then merge the newcomers in from the back, one copy per gap. A
	// newcomer no smaller than the first evicted value lands at or after
	// its position.
	end, kept := hi, w
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

// cancelEqual removes the values a sorted run both evicts (seq column)
// and brings in (v column) — they leave the window's multiset as it was —
// and reports how many of each remain, compacted to the front of their
// columns in order.
func cancelEqual(run []stageEntry) int {
	a, b, ke, kn := 0, 0, 0, 0
	for a < len(run) && b < len(run) {
		switch ev, nv := run[a].seq, uint64(run[b].v); {
		case ev == nv:
			a++
			b++
		case ev < nv:
			run[ke].seq = ev
			ke++
			a++
		default:
			run[kn].v = run[b].v
			kn++
			b++
		}
	}
	for ; a < len(run); a++ {
		run[ke].seq = run[a].seq
		ke++
	}
	for ; b < len(run); b++ {
		run[kn].v = run[b].v
		kn++
	}
	return ke // == kn: as many values stay as leave
}

// fillLocked appends v to a ring that is not full yet and inserts it into
// the sorted view.
func (d *Digest) fillLocked(v time.Duration) {
	d.ring = append(d.ring, v)
	i, _ := slices.BinarySearch(d.sorted, v)
	d.sorted = slices.Insert(d.sorted, i, v)
}

// Count reports the total observations ever recorded (not capped at the
// window) — the warmup thresholds compare against it. Lock-free: the hot
// warmth checks on the submit path never contend with writers.
func (d *Digest) Count() int64 {
	return d.total.Load()
}

// Quantile returns the p-quantile over the sliding window — the reactive
// estimate adaptive scheduling prices with — by the same interpolation as
// Sample.Percentile. Never negative, never NaN; 0 only when nothing was
// recorded. The read folds any staged observations
// forward first; with none staged it is the digest mutex and an index.
func (d *Digest) Quantile(p float64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	return quantileSorted(d.sorted, p)
}

// QuantilesInto fills out[i] with the ps[i]-quantile over the sliding
// window under a single staged-merge fold — value-identical to calling
// Quantile once per p, minus the repeated lock/fold round-trips. The
// per-batch gauge refresh on the serving hot path reads through this.
// out and ps must have equal length.
func (d *Digest) QuantilesInto(ps []float64, out []time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	for i, p := range ps {
		out[i] = quantileSorted(d.sorted, p)
	}
}

// adoptStep is the hysteresis decision shared by Digest.Adopt and Latch:
// given the current latch state, the live estimate, and the static prior,
// it returns the estimate to use, whether it is live, and whether the
// latch state flipped. The caller has already handled warmup and a
// degenerate (non-positive) live value; a non-positive static prior
// adopts any live estimate outright.
func adoptStep(latched bool, live, static time.Duration) (est time.Duration, adopted, flipped bool) {
	if static <= 0 {
		return live, true, !latched
	}
	ratio := float64(live) / float64(static)
	if latched {
		if ratio < AdoptExitRatio && ratio > 1/AdoptExitRatio {
			return static, false, true
		}
		return live, true, false
	}
	if ratio >= AdoptEnterRatio || ratio <= 1/AdoptEnterRatio {
		return live, true, true
	}
	return static, false, false
}

// Adopt is the static-vs-live switching decision with warmup and
// hysteresis: below warmup observations (or while the live q-quantile is
// degenerate, i.e. non-positive) the static prior holds. Once warmed, the
// live estimate is adopted when it diverges from the prior beyond
// AdoptEnterRatio and dropped again only when it re-converges within
// AdoptExitRatio, so the decision latches instead of flapping per request.
// A non-positive static prior adopts any warmed live estimate outright.
// It returns the estimate pricing should use and whether it is live.
//
// The latch lives in the digest, which assumes one stable prior per
// digest (the service-estimate regime). A caller comparing one digest
// against several different peers must keep a Latch per pair instead —
// otherwise the pairwise decisions would share state and depend on
// evaluation order.
func (d *Digest) Adopt(static time.Duration, q float64, warmup int64) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	live := quantileSorted(d.sorted, q)
	if d.total.Load() < warmup || live <= 0 {
		return static, false
	}
	est, adopted, flipped := adoptStep(d.live, live, static)
	if flipped {
		d.live = adopted
		d.flips++
	}
	return est, adopted
}

// Latch is a standalone one-sided adoption latch over the same hysteresis
// bands as Digest.Adopt, for decisions that compare one digest against
// multiple peers (the wait-gap balance triggers): each (donor, peer) pair
// owns its own Latch, so one pair's divergence cannot arm or release
// another's. Not safe for concurrent use; callers serialize access.
type Latch struct {
	live  bool
	flips int64
}

// Above evaluates the one-sided gap trigger: it latches when live
// diverges above static beyond AdoptEnterRatio and releases once live
// falls back within AdoptExitRatio of static — or anywhere below it.
// Divergence *below* static never arms it (unlike Digest.Adopt's
// two-sided bands, where a latch armed by the donor being the idle side
// would silently lower the entry threshold for a later upward swing from
// AdoptEnterRatio to AdoptExitRatio). A non-positive live releases; a
// non-positive static adopts any positive live outright — diverging
// above "nothing to wait for" at any ratio. Warmup is the caller's
// concern.
func (l *Latch) Above(live, static time.Duration) bool {
	on := l.live
	switch {
	case live <= 0:
		on = false
	case static <= 0:
		on = true
	default:
		ratio := float64(live) / float64(static)
		if l.live {
			on = ratio >= AdoptExitRatio
		} else {
			on = ratio >= AdoptEnterRatio
		}
	}
	if on != l.live {
		l.live = on
		l.flips++
	}
	return on
}

// Flips counts the latch's state toggles — the no-flapping tests pin it.
func (l *Latch) Flips() int64 { return l.flips }

// Reset releases the latch without counting a flip. Pool-death
// invalidation uses it: a latch armed by a now-dead pool's wait history
// prices a world that no longer exists, and releasing it is forgetting,
// not a hysteresis transition the flapping tests should see.
func (l *Latch) Reset() { l.live = false }

// Flips counts adoption-latch toggles — the no-flapping tests pin it.
func (d *Digest) Flips() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flips
}

// Blend mixes the static prior with the observed windowed p50, weighting
// the prior as warmup pseudo-observations against the (window-capped)
// observation count — a smooth pull from cold-start pricing toward
// measurement, with no threshold to flap across. A degenerate observed p50
// keeps the prior. The result is never negative: the weighted mean is
// computed in float64 (durations near MaxInt64 would wrap an int64
// product) and saturates at the maximum duration.
func (d *Digest) Blend(static time.Duration, warmup int64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	n := d.total.Load()
	if w := int64(cap(d.ring)); n > w {
		n = w
	}
	if n == 0 || warmup <= 0 {
		return static
	}
	p50 := quantileSorted(d.sorted, 0.5)
	if p50 <= 0 {
		return static
	}
	if static <= 0 {
		return p50
	}
	blend := (float64(static)*float64(warmup) + float64(p50)*float64(n)) / float64(warmup+n)
	if blend >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(blend)
}

// obsKey addresses one digest in the observatory.
type obsKey struct{ bench, platform string }

// Observatory holds the latency digests of a serving run, keyed per
// {benchmark, platform}. Safe for concurrent use; lookups on the record
// path are a lock-free sync.Map read.
type Observatory struct {
	window int
	warmup int64
	m      sync.Map // obsKey -> *Digest
}

// NewObservatory builds an observatory whose digests use the given window
// and warmup (defaults DefaultWindow/DefaultWarmup when non-positive).
func NewObservatory(window, warmup int) *Observatory {
	if window <= 0 {
		window = DefaultWindow
	}
	if warmup <= 0 {
		warmup = DefaultWarmup
	}
	return &Observatory{window: window, warmup: int64(warmup)}
}

// Warmup reports the observation count below which digests defer to the
// static prior.
func (o *Observatory) Warmup() int64 { return o.warmup }

// Record folds one completion latency into the keyed digest (created on
// first use) and returns the digest so the caller can read gauges off it.
//
//dscslint:hotpath
func (o *Observatory) Record(bench, platform string, v time.Duration) *Digest {
	k := obsKey{bench, platform}
	if d, ok := o.m.Load(k); ok {
		dg := d.(*Digest)
		dg.Record(v)
		return dg
	}
	d, _ := o.m.LoadOrStore(k, NewDigest(o.window))
	dg := d.(*Digest)
	dg.Record(v)
	return dg
}

// Digest returns the keyed digest, or nil when nothing was recorded for it.
func (o *Observatory) Digest(bench, platform string) *Digest {
	if d, ok := o.m.Load(obsKey{bench, platform}); ok {
		return d.(*Digest)
	}
	return nil
}

// ServiceQuantile prices one scheduling decision: the live q-quantile for
// the key once its digest is warmed and diverged (Digest.Adopt — warmup,
// hysteresis), the static prior otherwise. The result is positive whenever
// static is.
func (o *Observatory) ServiceQuantile(bench, platform string, static time.Duration, q float64) time.Duration {
	dg := o.Digest(bench, platform)
	if dg == nil {
		return static
	}
	est, _ := dg.Adopt(static, q, o.warmup)
	return est
}

// Blend mixes the static prior with the key's observed p50 (see
// Digest.Blend); the prior passes through untouched when nothing was
// recorded.
func (o *Observatory) Blend(bench, platform string, static time.Duration) time.Duration {
	dg := o.Digest(bench, platform)
	if dg == nil {
		return static
	}
	return dg.Blend(static, o.warmup)
}

// Forget drops every digest of one benchmark across all platforms — the
// redeploy invalidation: a changed chain must not inherit the old chain's
// latency history any more than its static pricing.
func (o *Observatory) Forget(bench string) {
	o.m.Range(func(k, _ interface{}) bool {
		if k.(obsKey).bench == bench {
			o.m.Delete(k)
		}
		return true
	})
}
