package metrics

import (
	"testing"
	"time"
)

// benchSink keeps the measured reads live.
var benchSink time.Duration

// warmBenchDigest returns a default-window digest that has wrapped twice
// over a spread of values, folded, plus the value stream that filled it.
func warmBenchDigest() (*Digest, func() time.Duration) {
	next := lcg(11)
	value := func() time.Duration { return time.Duration(next() % 1e9) }
	d := NewDigest(0)
	for i := 0; i < 2*DefaultWindow; i++ {
		d.Record(value())
	}
	d.Quantile(0.5)
	return d, value
}

// BenchmarkDigestRecord is the write-heavy stretch: observations staged
// and folded with no reader asking (after the first unread window, into
// the ring alone).
func BenchmarkDigestRecord(b *testing.B) {
	d, value := warmBenchDigest()
	b.ReportAllocs()
	for b.Loop() {
		d.Record(value())
	}
}

// BenchmarkDigestRecordParallel is the write-heavy stretch with every
// writer at once (run it at -cpu 1,2): one digest lock shared by
// GOMAXPROCS writers and no reader.
func BenchmarkDigestRecordParallel(b *testing.B) {
	d, _ := warmBenchDigest()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := time.Duration(0)
		for pb.Next() {
			v = (v + 7919) % time.Second
			d.Record(v)
		}
	})
}

// BenchmarkDigestRecordUnread is the read-rarely pattern (a gauge, a
// run's final quantile): each op records two windows with no read between
// them — the folds stop maintaining the sorted view after the first — and
// then reads once, rebuilding it. ns/obs is the per-observation cost, to
// set beside BenchmarkDigestRecordThenQuantile's.
func BenchmarkDigestRecordUnread(b *testing.B) {
	d, value := warmBenchDigest()
	const stretch = 2 * DefaultWindow
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < stretch; i++ {
			d.Record(value())
		}
		benchSink = d.Quantile(0.95)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stretch), "ns/obs")
}

// BenchmarkDigestRecordThenQuantile is the balancer's pattern: every read
// follows a write, so every read folds.
func BenchmarkDigestRecordThenQuantile(b *testing.B) {
	d, value := warmBenchDigest()
	b.ReportAllocs()
	for b.Loop() {
		d.Record(value())
		benchSink = d.Quantile(0.95)
	}
}

// BenchmarkDigestQuantile is a read with nothing staged.
func BenchmarkDigestQuantile(b *testing.B) {
	d, _ := warmBenchDigest()
	b.ReportAllocs()
	for b.Loop() {
		benchSink = d.Quantile(0.95)
	}
}

// BenchmarkDigestQuantileFreshGoroutine reads from a newly spawned
// goroutine each iteration — a submitter's first digest read, on a stack
// that has not grown yet. The spawn and hand-off are part of the number;
// compare it across commits, not against BenchmarkDigestQuantile.
func BenchmarkDigestQuantileFreshGoroutine(b *testing.B) {
	d, _ := warmBenchDigest()
	done := make(chan time.Duration)
	b.ReportAllocs()
	for b.Loop() {
		go func() { done <- d.Quantile(0.95) }()
		benchSink = <-done
	}
}
