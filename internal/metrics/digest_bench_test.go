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
// and folded with no reader asking.
func BenchmarkDigestRecord(b *testing.B) {
	d, value := warmBenchDigest()
	b.ReportAllocs()
	for b.Loop() {
		d.Record(value())
	}
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
