// digest.go is the latency observatory's data structure: online quantile
// digests safe for concurrent Record from serving-engine worker goroutines.
// A WindowDigest is a fixed-size ring of the most recent observations
// (windowed quantiles that react to drift — what the wait-keyed balance
// decisions read, one per pool). A Digest embeds one and adds
// constant-memory P² streaming estimators (Jain & Chlamtac, CACM 1985) for
// the cumulative p50/p95/p99 surfaced as gauges on /metrics, plus the
// Adopt latch and Blend that service-estimate pricing uses. The Observatory
// keys Digests per {benchmark, platform}, so the scheduler's live pricing
// and the telemetry both see per-pool service behavior rather than one
// blurred aggregate.

package metrics

import (
	"math"
	"runtime"
	"slices"
	"sort"
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

// streamQuantiles are the cumulative P² targets every digest maintains.
var streamQuantiles = [...]float64{0.50, 0.95, 0.99}

// Staging geometry: Record stages observations in per-shard fixed rings
// (contention-free for writers) that fold into the merged window and P²
// state only when a shard fills or a reader finds something staged.
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
// digest ingested it — quantiles, P² state, and adoption flips stay
// bit-identical — no matter which shard each observation landed on.
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

// WindowDigest is a sliding window of the last Window observations. Safe
// for concurrent use, and built for reads that follow writes (the balance
// decision reads a pool's wait digest on every submission, right after a
// dispatch recorded into it): Record appends to a per-P staging shard (no
// allocation, no shared lock), and the merged state — the window ring and
// its order-statistic view — is folded forward under the digest lock when
// a shard fills or a reader finds something staged.
//
// Who pays what: the fold keeps the sorted view in step with the ring, one
// observation at a time — a binary search for the value the ring evicts,
// one for the newcomer's slot, and a single copy of the span between them
// (O(log W) compares plus at most W words moved, nothing when the two are
// equal). A windowed read is then the digest mutex and an index; with
// nothing staged it touches no shard lock at all (folded == total).
type WindowDigest struct {
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
	// folded counts the observations folded into ring and sorted (and
	// streams), under mu. It trails total by exactly what is staged or about
	// to be (Record bumps total before it stages), so folded == total means
	// every shard is empty.
	folded int64
	// shards are the staging rings; staged is the fold's merge scratch, one
	// slot per staging slot, owned by mu. It lives here and not in the
	// fold's frame so that a goroutine's first read fits the stack it
	// started with.
	shards []digestShard
	staged []stageEntry
	// streams are the P² estimators the fold also feeds: none on a bare
	// window, the embedding Digest's own otherwise.
	streams []p2
}

// Digest is one {benchmark, platform} latency record: a WindowDigest plus
// P² streaming estimators over the whole stream, the static-vs-live Adopt
// latch and Blend. The window's fold feeds the estimators under the same
// lock, in the same sequence order.
type Digest struct {
	WindowDigest
	p2s [len(streamQuantiles)]p2

	// live is the adoption latch (see Adopt); flips counts its toggles.
	live  bool
	flips int64
}

// NewWindowDigest returns an empty window over the given number of
// observations (DefaultWindow when non-positive).
func NewWindowDigest(window int) *WindowDigest {
	d := &WindowDigest{}
	d.init(window)
	return d
}

// NewDigest returns an empty digest over a window of the given size
// (DefaultWindow when non-positive).
func NewDigest(window int) *Digest {
	d := &Digest{}
	d.init(window)
	for i, q := range streamQuantiles {
		d.p2s[i].init(q)
	}
	d.streams = d.p2s[:]
	return d
}

func (d *WindowDigest) init(window int) {
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
	d.ring = make([]time.Duration, 0, window)
	d.sorted = make([]time.Duration, 0, window)
	d.shards = make([]digestShard, shards)
	d.staged = make([]stageEntry, shards*stageCap)
}

// Record stages one observation: an atomic sequence fetch plus an
// uncontended shard append — no allocation, no shared lock. Negative
// durations (a clock anomaly upstream) clamp to zero so no quantile can
// ever go negative. When the caller's shard fills, Record folds the
// staged backlog forward (amortized: once per stageCap observations).
//
//dscslint:hotpath
func (d *WindowDigest) Record(v time.Duration) {
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
func (d *WindowDigest) RecordBatch(vs []time.Duration) {
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
// the merged window (and a Digest's P² streams) in sequence order. With
// nothing staged it returns without touching a shard lock. Callers hold
// d.mu.
func (d *WindowDigest) foldStagedLocked() {
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
	for _, e := range staged {
		d.slideLocked(e.v)
		for i := range d.streams {
			d.streams[i].observe(float64(e.v))
		}
	}
	d.folded += int64(n)
}

// slideLocked moves the window forward by one observation: v takes the
// ring slot of the oldest value (once the ring is full), and the sorted
// view gives up that value and takes v with one copy of the span between
// their positions — the same multiset a full re-sort of the ring would
// produce, so every quantile is bit-identical to it.
func (d *WindowDigest) slideLocked(v time.Duration) {
	if len(d.ring) < cap(d.ring) {
		d.ring = append(d.ring, v)
		i, _ := slices.BinarySearch(d.sorted, v)
		d.sorted = append(d.sorted, v)
		copy(d.sorted[i+1:], d.sorted[i:])
		d.sorted[i] = v
		return
	}
	old := d.ring[d.next]
	d.ring[d.next] = v
	if d.next++; d.next == len(d.ring) {
		d.next = 0
	}
	if v == old {
		return
	}
	out, _ := slices.BinarySearch(d.sorted, old)
	if v > old {
		// v lands left of the first element ≥ v; everything between the
		// vacated slot and there shifts down one.
		in, _ := slices.BinarySearch(d.sorted[out+1:], v)
		in += out
		copy(d.sorted[out:in], d.sorted[out+1:in+1])
		d.sorted[in] = v
	} else {
		in, _ := slices.BinarySearch(d.sorted[:out], v)
		copy(d.sorted[in+1:out+1], d.sorted[in:out])
		d.sorted[in] = v
	}
}

// Count reports the total observations ever recorded (not capped at the
// window) — the warmup thresholds compare against it. Lock-free: the hot
// warmth checks on the submit path never contend with writers.
func (d *WindowDigest) Count() int64 {
	return d.total.Load()
}

// quantileLocked is Quantile under d.mu: the p-quantile of the window by
// the same linear interpolation as Sample.Percentile, so the digest and
// the exact sample agree on identical inputs. Out-of-range or NaN p clamps
// into [0, 1]; an empty digest reports 0.
func (d *WindowDigest) quantileLocked(p float64) time.Duration {
	vs := d.sorted
	if len(vs) == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		return vs[0]
	}
	if p >= 1 {
		return vs[len(vs)-1]
	}
	pos := p * float64(len(vs)-1)
	lo := int(pos)
	hi := lo + 1
	frac := pos - float64(lo)
	if hi >= len(vs) || frac == 0 {
		return vs[lo]
	}
	return vs[lo] + time.Duration(frac*float64(vs[hi]-vs[lo]))
}

// Quantile returns the p-quantile over the sliding window — the reactive
// estimate adaptive scheduling prices with. Never negative, never NaN; 0
// only when nothing was recorded. The read folds any staged observations
// forward first; with none staged it is the digest mutex and an index.
func (d *WindowDigest) Quantile(p float64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	return d.quantileLocked(p)
}

// QuantilesInto fills out[i] with the ps[i]-quantile over the sliding
// window under a single staged-merge fold — value-identical to calling
// Quantile once per p, minus the repeated lock/fold round-trips. The
// per-batch gauge refresh on the serving hot path reads through this.
// out and ps must have equal length.
func (d *WindowDigest) QuantilesInto(ps []float64, out []time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	for i, p := range ps {
		out[i] = d.quantileLocked(p)
	}
}

// StreamQuantile returns the constant-memory P² estimate over the whole
// stream for the nearest maintained target (p50/p95/p99) — the cheap
// read backing the /metrics gauges.
func (d *Digest) StreamQuantile(p float64) time.Duration {
	best := 0
	for i, q := range streamQuantiles {
		if math.Abs(q-p) < math.Abs(streamQuantiles[best]-p) {
			best = i
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	return clampP2(d.p2s[best].quantile())
}

// StreamQuantilesInto fills out[i] with the P² estimate for the
// maintained target nearest ps[i], all under a single staged-merge fold —
// value-identical to calling StreamQuantile once per p. out and ps must
// have equal length.
func (d *Digest) StreamQuantilesInto(ps []float64, out []time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldStagedLocked()
	for i, p := range ps {
		best := 0
		for j, q := range streamQuantiles {
			if math.Abs(q-p) < math.Abs(streamQuantiles[best]-p) {
				best = j
			}
		}
		out[i] = clampP2(d.p2s[best].quantile())
	}
}

// clampP2 converts a raw P² estimate to a duration: never negative, never
// NaN, and saturating at the maximum duration (float64(MaxInt64) rounds up
// past MaxInt64; an unguarded conversion would wrap negative).
func clampP2(v float64) time.Duration {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	if v >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(v)
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
	live := d.quantileLocked(q)
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
	p50 := d.quantileLocked(0.5)
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

// p2 is one P² streaming quantile estimator: five markers tracking the
// running min, q/2, q, (1+q)/2, and max quantiles with parabolic height
// adjustment — O(1) per observation, O(1) memory, no stored samples.
type p2 struct {
	q    float64
	n    int
	pos  [5]float64 // actual marker positions (1-based observation ranks)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increment per observation
	h    [5]float64 // marker heights (the estimates)
}

func (e *p2) init(q float64) {
	e.q = q
	e.inc = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
}

func (e *p2) observe(x float64) {
	if e.n < 5 {
		e.h[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.h[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
			e.want = [5]float64{1, 1 + 2*e.q, 1 + 4*e.q, 3 + 2*e.q, 5}
		}
		return
	}
	// Locate the marker cell the observation falls into, stretching the
	// extremes when it lands outside them.
	var k int
	switch {
	case x < e.h[0]:
		e.h[0] = x
		k = 0
	case x >= e.h[4]:
		e.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}
	e.n++
	// Nudge interior markers toward their desired positions, adjusting
	// heights parabolically (linearly when the parabola overshoots a
	// neighbor).
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			if hp := e.parabolic(i, s); e.h[i-1] < hp && hp < e.h[i+1] {
				e.h[i] = hp
			} else {
				e.h[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *p2) parabolic(i int, s float64) float64 {
	return e.h[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.h[i+1]-e.h[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.h[i]-e.h[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *p2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.h[i] + s*(e.h[j]-e.h[i])/(e.pos[j]-e.pos[i])
}

// quantile reads the current estimate; below five observations it falls
// back to the exact quantile over what was stored.
func (e *p2) quantile() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		var tmp [5]float64
		copy(tmp[:], e.h[:e.n])
		vs := tmp[:e.n]
		sort.Float64s(vs)
		pos := e.q * float64(len(vs)-1)
		lo := int(pos)
		if lo >= len(vs)-1 {
			return vs[len(vs)-1]
		}
		return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
	}
	return e.h[2]
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

// RecordBatch folds a run of observations into the keyed digest (created
// on first use) under one key lookup and one staging pass — see
// Digest.RecordBatch. A nil digest comes back only for an empty run.
//
//dscslint:hotpath
func (o *Observatory) RecordBatch(bench, platform string, vs []time.Duration) *Digest {
	if len(vs) == 0 {
		return o.Digest(bench, platform)
	}
	k := obsKey{bench, platform}
	d, ok := o.m.Load(k)
	if !ok {
		d, _ = o.m.LoadOrStore(k, NewDigest(o.window))
	}
	dg := d.(*Digest)
	dg.RecordBatch(vs)
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
