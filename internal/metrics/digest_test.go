package metrics

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// lcg is the deterministic value stream the digest tests share.
func lcg(seed uint64) func() uint64 {
	s := seed
	return func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
}

// TestDigestMatchesExactQuantiles is the digest-vs-exact differential: as
// long as the window has not wrapped, the digest's windowed quantile must
// equal Sample.Percentile bit for bit on the same inputs — same
// interpolation, same boundary handling. Runs under -race in CI's
// scheduler step.
func TestDigestMatchesExactQuantiles(t *testing.T) {
	next := lcg(7)
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	d := NewDigest(512)
	s := NewSample(512)
	for i := 0; i < 512; i++ {
		v := time.Duration(next()%1e9) * time.Nanosecond
		d.Record(v)
		s.Add(v)
		if i%37 != 0 && i != 511 {
			continue
		}
		for _, q := range quantiles {
			if got, want := d.Quantile(q), s.Percentile(q); got != want {
				t.Fatalf("n=%d q=%v: digest %v != exact %v", i+1, q, got, want)
			}
		}
	}
}

// TestDigestWindowSlides: once the ring wraps, quantiles reflect only the
// most recent window — the property that makes the estimates react to
// drift where a cumulative sample cannot.
func TestDigestWindowSlides(t *testing.T) {
	d := NewDigest(64)
	for i := 0; i < 64; i++ {
		d.Record(10 * time.Millisecond)
	}
	if got := d.Quantile(0.5); got != 10*time.Millisecond {
		t.Fatalf("pre-drift p50 = %v", got)
	}
	for i := 0; i < 64; i++ {
		d.Record(30 * time.Millisecond)
	}
	if got := d.Quantile(0.5); got != 30*time.Millisecond {
		t.Fatalf("post-drift p50 = %v, old observations leaked", got)
	}
	if d.Count() != 128 {
		t.Fatalf("count = %d, want 128", d.Count())
	}
}

// TestP2StreamQuantiles checks the constant-memory estimators against the
// exact quantiles of a 20k-value stream: P² is approximate, so the pin is
// a relative tolerance, not equality.
func TestP2StreamQuantiles(t *testing.T) {
	next := lcg(99)
	d := NewDigest(128) // window much smaller than the stream
	s := NewSample(20000)
	for i := 0; i < 20000; i++ {
		// Skewed distribution (squared uniform) so the tails matter.
		u := float64(next()%1e6) / 1e6
		v := time.Duration(u * u * float64(time.Second))
		d.Record(v)
		s.Add(v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := float64(d.StreamQuantile(q))
		want := float64(s.Percentile(q))
		if want == 0 {
			t.Fatalf("degenerate exact q%v", q)
		}
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("q%v: stream %v vs exact %v (rel err %.3f)", q,
				time.Duration(got), time.Duration(want), rel)
		}
	}
}

// TestStreamQuantileSmallN: below five observations P² falls back to the
// exact stored values.
func TestStreamQuantileSmallN(t *testing.T) {
	d := NewDigest(16)
	if d.StreamQuantile(0.5) != 0 {
		t.Fatal("empty stream quantile must be 0")
	}
	d.Record(40 * time.Millisecond)
	if got := d.StreamQuantile(0.5); got != 40*time.Millisecond {
		t.Fatalf("1-obs p50 = %v", got)
	}
	d.Record(20 * time.Millisecond)
	d.Record(60 * time.Millisecond)
	if got := d.StreamQuantile(0.5); got != 40*time.Millisecond {
		t.Fatalf("3-obs p50 = %v, want the middle value", got)
	}
}

// TestDigestAdversarialNeverNaNZero drives Record with the adversarial
// sequences the fuzz seeds use — zero, the maximum duration, monotone
// decreasing — and asserts the digest can never emit a negative estimate,
// and Adopt never replaces a positive static prior with a non-positive
// live value.
func TestDigestAdversarialNeverNaNZero(t *testing.T) {
	static := 10 * time.Millisecond
	sequences := [][]time.Duration{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64},
		{1 << 40, 1 << 30, 1 << 20, 1 << 10, 1, 0},
		{-time.Second, -time.Millisecond, 0, time.Millisecond},
	}
	for si, seq := range sequences {
		d := NewDigest(8)
		for _, v := range seq {
			d.Record(v)
			for _, q := range []float64{0, 0.5, 0.95, 0.99, 1, math.NaN(), -1, 2} {
				if got := d.Quantile(q); got < 0 {
					t.Fatalf("seq %d: Quantile(%v) = %v negative", si, q, got)
				}
			}
			if got := d.StreamQuantile(0.95); got < 0 {
				t.Fatalf("seq %d: StreamQuantile negative: %v", si, got)
			}
			if est, _ := d.Adopt(static, 0.95, 4); est <= 0 {
				t.Fatalf("seq %d: Adopt fed a non-positive estimate %v into pricing", si, est)
			}
		}
	}
	// The all-zero digest must never adopt, no matter how warmed: a zero
	// service estimate would let the former hold a batch for the whole SLO.
	d := NewDigest(8)
	for i := 0; i < 100; i++ {
		d.Record(0)
	}
	if est, live := d.Adopt(static, 0.95, 4); live || est != static {
		t.Fatalf("all-zero digest adopted: est=%v live=%v", est, live)
	}
}

// TestAdoptWarmupAndHysteresis pins the static-vs-live switching contract:
// static below warmup, a single latch flip at the crossover when the
// observed latency has drifted 3x, no flapping while it hovers inside the
// hysteresis band, and a release flip when it genuinely re-converges.
func TestAdoptWarmupAndHysteresis(t *testing.T) {
	const warmup = 16
	static := 10 * time.Millisecond
	d := NewDigest(32)

	// Below warmup the static prior holds even though the observations
	// already sit at 3x.
	for i := 0; i < warmup-1; i++ {
		d.Record(30 * time.Millisecond)
		if est, live := d.Adopt(static, 0.95, warmup); live || est != static {
			t.Fatalf("obs %d (pre-warmup): est=%v live=%v", i+1, est, live)
		}
	}
	if d.Flips() != 0 {
		t.Fatalf("pre-warmup flips = %d", d.Flips())
	}

	// The warmup-crossing observation flips pricing to live — once.
	d.Record(30 * time.Millisecond)
	for i := 0; i < 50; i++ {
		est, live := d.Adopt(static, 0.95, warmup)
		if !live || est != 30*time.Millisecond {
			t.Fatalf("post-warmup call %d: est=%v live=%v", i, est, live)
		}
	}
	if d.Flips() != 1 {
		t.Fatalf("post-warmup flips = %d, want exactly 1 (no per-request flapping)", d.Flips())
	}

	// Drift back to 1.3x: inside the band (above the 1.2x exit, below the
	// 1.5x entry) the latch must hold, not flap.
	for i := 0; i < 64; i++ {
		d.Record(13 * time.Millisecond)
		if _, live := d.Adopt(static, 0.95, warmup); !live {
			t.Fatalf("obs %d at 1.3x: latch released inside the hysteresis band", i)
		}
	}
	if d.Flips() != 1 {
		t.Fatalf("hysteresis-band flips = %d, want still 1", d.Flips())
	}

	// Genuine re-convergence to 1.0x releases the latch exactly once.
	for i := 0; i < 64; i++ {
		d.Record(static)
		d.Adopt(static, 0.95, warmup)
	}
	if est, live := d.Adopt(static, 0.95, warmup); live || est != static {
		t.Fatalf("re-converged: est=%v live=%v", est, live)
	}
	if d.Flips() != 2 {
		t.Fatalf("re-convergence flips = %d, want 2", d.Flips())
	}

	// And a fresh 1.3x drift from static must NOT re-adopt (below entry).
	for i := 0; i < 64; i++ {
		d.Record(13 * time.Millisecond)
		if _, live := d.Adopt(static, 0.95, warmup); live {
			t.Fatal("re-adopted below the entry ratio")
		}
	}
}

// TestAdoptZeroStatic: with no prior to diverge from, a warmed digest is
// adopted outright.
func TestAdoptZeroStatic(t *testing.T) {
	d := NewDigest(16)
	for i := 0; i < 8; i++ {
		d.Record(5 * time.Millisecond)
	}
	if est, live := d.Adopt(0, 0.95, 4); !live || est != 5*time.Millisecond {
		t.Fatalf("zero-static adopt: est=%v live=%v", est, live)
	}
}

// TestDigestConcurrentRecord exercises the concurrent contract under
// -race: worker goroutines Record while readers pull quantiles, counts,
// and adoption decisions.
func TestDigestConcurrentRecord(t *testing.T) {
	d := NewDigest(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			next := lcg(seed)
			for i := 0; i < 2000; i++ {
				d.Record(time.Duration(next() % 1e9))
			}
		}(uint64(w + 1))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if d.Quantile(0.95) < 0 || d.StreamQuantile(0.5) < 0 {
					t.Error("negative quantile under concurrency")
					return
				}
				d.Adopt(time.Millisecond, 0.95, 32)
				d.Blend(time.Millisecond, 32)
				d.Count()
			}
		}()
	}
	wg.Wait()
	if d.Count() != 16000 {
		t.Fatalf("count = %d, want 16000", d.Count())
	}
}

// checkWindow asserts what every fold must leave behind: the maintained
// order-statistic view is the ring's multiset sorted, and nothing was
// folded that was not recorded.
func checkWindow(t *testing.T, d *WindowDigest) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if want := slices.Sorted(slices.Values(d.ring)); !slices.Equal(d.sorted, want) {
		t.Fatalf("maintained window is not the sorted ring:\n got %v\nwant %v", d.sorted, want)
	}
	if total := d.total.Load(); d.folded > total {
		t.Fatalf("folded %d observations of %d recorded", d.folded, total)
	}
}

// TestWindowMatchesSortedRing drives seeded mixes of every write and every
// windowed read through one digest and re-derives the window from the ring
// after each operation. The values are duplicate-heavy with a wide-range
// minority, so evictions land on runs of equal values as well as between
// them; batches run past the staging capacity, so folds fire mid-batch. A
// bare WindowDigest takes the same writes and reads and must hold the same
// window as the Digest after every read.
func TestWindowMatchesSortedRing(t *testing.T) {
	const ops = 20000
	for seed, window := range map[uint64]int{1: 3, 2: 64, 3: DefaultWindow} {
		bare := NewWindowDigest(window)
		next := lcg(seed)
		value := func() time.Duration {
			if next()%4 == 0 {
				return time.Duration(next() % 1e9)
			}
			return time.Duration(next()%9) * time.Millisecond
		}
		d := NewDigest(window)
		batch := make([]time.Duration, 0, 3*stageCap)
		ps := []float64{0.5, 0.95, 0.99}
		out := make([]time.Duration, len(ps))
		for i := 0; i < ops; i++ {
			read := true
			switch next() % 8 {
			case 0, 1, 2:
				v := value()
				d.Record(v)
				bare.Record(v)
				read = false
			case 3:
				batch = batch[:next()%uint64(cap(batch)+1)]
				for j := range batch {
					batch[j] = value()
				}
				d.RecordBatch(batch)
				bare.RecordBatch(batch)
				read = false
			case 4:
				q := float64(next()%101) / 100
				d.Quantile(q)
				bare.Quantile(q)
			case 5:
				d.QuantilesInto(ps, out)
				bare.QuantilesInto(ps, out)
			case 6:
				d.Adopt(4*time.Millisecond, 0.95, 8)
				bare.Quantile(0.95)
			case 7:
				d.Blend(4*time.Millisecond, 8)
				bare.Quantile(0.5)
			}
			checkWindow(t, &d.WindowDigest)
			checkWindow(t, bare)
			if read && (d.folded != d.Count() || bare.folded != bare.Count()) {
				t.Fatalf("seed %d op %d: a read left %d of %d observations unfolded (bare window: %d of %d)",
					seed, i, d.Count()-d.folded, d.Count(), bare.Count()-bare.folded, bare.Count())
			}
			// Staging shards fill on their own schedule, so the two windows
			// agree once a read has folded both.
			if read && (!slices.Equal(d.sorted, bare.sorted) || !slices.Equal(d.ring, bare.ring)) {
				t.Fatalf("seed %d op %d: the Digest's window and the bare window diverged", seed, i)
			}
		}
	}
}

// TestDigestConcurrentWindow runs writers against readers under -race:
// every read's quantile must sit between the minimum and maximum of the
// window it was taken from, and once the writers stop one read folds
// everything — folded reaches Count and the window is the sorted ring.
func TestDigestConcurrentWindow(t *testing.T) {
	const writers, readers, rounds, perRound = 4, 2, 700, 6
	const ceiling = time.Millisecond // above every recorded value
	d := NewDigest(128)
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(seed uint64) {
			defer writing.Done()
			next := lcg(seed)
			var batch [perRound - 1]time.Duration
			for i := 0; i < rounds; i++ {
				d.Record(time.Duration(next()) % ceiling)
				for j := range batch {
					batch[j] = time.Duration(next() % 16)
				}
				d.RecordBatch(batch[:])
			}
		}(uint64(w + 1))
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(q float64) {
			defer reading.Done()
			ps := []float64{0, q, 1}
			out := make([]time.Duration, len(ps))
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.QuantilesInto(ps, out)
				if out[1] < out[0] || out[1] > out[2] {
					t.Errorf("q%v = %v outside the window's [%v, %v]", q, out[1], out[0], out[2])
					return
				}
				if v := d.Quantile(q); v < 0 || v >= ceiling {
					t.Errorf("q%v = %v outside everything recorded", q, v)
					return
				}
			}
		}(0.5 + 0.45*float64(r))
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	d.Quantile(0.5)
	checkWindow(t, &d.WindowDigest)
	if want := int64(writers * rounds * perRound); d.Count() != want || d.folded != want {
		t.Fatalf("after quiesce: folded %d, count %d, want %d", d.folded, d.Count(), want)
	}
}

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// TestWarmRecordThenQuantileAllocatesNothing pins the host cost of the
// balancer's access pattern — a read right after a write, folding every
// time — on a window that has wrapped, for the Digest and for the bare
// WindowDigest the balancer holds (whose warm Record alone is pinned too).
func TestWarmRecordThenQuantileAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	next := lcg(5)
	d := NewDigest(64)
	for i := 0; i < 200; i++ {
		d.Record(time.Duration(next() % 1e9))
	}
	if got := testing.AllocsPerRun(1000, func() {
		d.Record(time.Duration(next() % 1e9))
		d.Quantile(0.95)
	}); got != 0 {
		t.Errorf("warm Record+Quantile allocates %v times, want 0", got)
	}
	w := NewWindowDigest(64)
	for i := 0; i < 200; i++ {
		w.Record(time.Duration(next() % 1e9))
	}
	if got := testing.AllocsPerRun(1000, func() {
		w.Record(time.Duration(next() % 1e9))
	}); got != 0 {
		t.Errorf("warm WindowDigest.Record allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		w.Record(time.Duration(next() % 1e9))
		w.Quantile(0.95)
	}); got != 0 {
		t.Errorf("warm WindowDigest Record+Quantile allocates %v times, want 0", got)
	}
}

// TestObservatoryKeysAndForget covers the per-{benchmark, platform} keying
// and the redeploy invalidation path.
func TestObservatoryKeysAndForget(t *testing.T) {
	o := NewObservatory(0, 0)
	if o.Warmup() != DefaultWarmup {
		t.Fatalf("default warmup = %d", o.Warmup())
	}
	o.Record("chatbot", "dscs", 10*time.Millisecond)
	o.Record("chatbot", "cpu", 90*time.Millisecond)
	o.Record("clinical", "dscs", 50*time.Millisecond)
	if o.Digest("chatbot", "dscs") == o.Digest("chatbot", "cpu") {
		t.Fatal("platforms must not share a digest")
	}
	if o.Digest("nope", "dscs") != nil {
		t.Fatal("unknown key must be nil")
	}
	if got := o.Blend("nope", "dscs", time.Second); got != time.Second {
		t.Fatalf("blend with no digest = %v, want the prior", got)
	}
	if got := o.ServiceQuantile("nope", "dscs", time.Second, 0.95); got != time.Second {
		t.Fatalf("quantile with no digest = %v, want the prior", got)
	}
	o.Forget("chatbot")
	if o.Digest("chatbot", "dscs") != nil || o.Digest("chatbot", "cpu") != nil {
		t.Fatal("Forget must drop every platform's digest for the benchmark")
	}
	if o.Digest("clinical", "dscs") == nil {
		t.Fatal("Forget dropped an unrelated benchmark")
	}
}

// TestBlendPullsTowardObservation: the blend weights the prior as warmup
// pseudo-observations, so it starts at the prior and converges on the
// observed p50 as evidence accumulates.
func TestBlendPullsTowardObservation(t *testing.T) {
	static := 10 * time.Millisecond
	observed := 40 * time.Millisecond
	d := NewDigest(64)
	if got := d.Blend(static, 16); got != static {
		t.Fatalf("empty blend = %v", got)
	}
	d.Record(observed)
	one := d.Blend(static, 16)
	if one <= static || one >= observed {
		t.Fatalf("1-obs blend %v outside (%v, %v)", one, static, observed)
	}
	for i := 0; i < 63; i++ {
		d.Record(observed)
	}
	many := d.Blend(static, 16)
	if many <= one {
		t.Fatalf("blend must move toward observation: %v then %v", one, many)
	}
	// 64 observations vs 16 pseudo-counts: (10*16 + 40*64)/80 = 34ms.
	if want := 34 * time.Millisecond; many != want {
		t.Fatalf("64-obs blend = %v, want %v", many, want)
	}
}

// TestLatchReset: releasing a latch on pool death is forgetting, not a
// hysteresis transition — the flip counter must not move, and the next
// arming pays the full AdoptEnterRatio again.
func TestLatchReset(t *testing.T) {
	var l Latch
	if !l.Above(30*time.Millisecond, 10*time.Millisecond) {
		t.Fatal("3x gap must arm the latch")
	}
	flips := l.Flips()
	l.Reset()
	if l.Flips() != flips {
		t.Fatalf("Reset counted a flip: %d -> %d", flips, l.Flips())
	}
	// 1.3x is above AdoptExitRatio (would have held an armed latch) but
	// below AdoptEnterRatio: after Reset it must NOT re-arm.
	if l.Above(13*time.Millisecond, 10*time.Millisecond) {
		t.Fatal("reset latch re-armed below the entry ratio")
	}
}
