package metrics

import (
	"testing"
	"time"
)

// BenchmarkSamplePercentile is the simulations' reduction: p50 then p99
// of one replay's latency sample (85k values), read unsorted. Each op
// first restores the sample's original order, since a selection leaves
// the values partly ordered; that copy is part of the number.
func BenchmarkSamplePercentile(b *testing.B) {
	const n = 85000
	next := lcg(31)
	orig := make([]time.Duration, n)
	for i := range orig {
		orig[i] = time.Duration(next() % 1e9)
	}
	s := NewSample(n)
	for _, v := range orig {
		s.Add(v)
	}
	b.ReportAllocs()
	for b.Loop() {
		copy(s.values, orig)
		benchSink = s.Percentile(0.50)
		benchSink += s.Percentile(0.99)
	}
}
