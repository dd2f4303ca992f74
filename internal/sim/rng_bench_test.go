package sim

import (
	"strings"
	"testing"
	"time"
)

// benchDraw is a benchmark's sink, so no draw is optimised away.
var benchDraw float64

// benchService is the service-time distribution the draw benchmarks use.
var benchService = LogNormal{Median: 10 * time.Millisecond, Sigma: 0.2}

// benchPattern runs pattern once per iteration, 'L' a LogNormal draw and
// 'F' a Float64, on RNG and on the unbuffered refRNG, and reports ns/draw.
func benchPattern(b *testing.B, pattern string) {
	run := func(b *testing.B, ln func() time.Duration, f func() float64) {
		b.ReportAllocs()
		sum := 0.0
		for b.Loop() {
			for i := 0; i < len(pattern); i++ {
				if pattern[i] == 'L' {
					sum += float64(ln())
				} else {
					sum += f()
				}
			}
		}
		benchDraw = sum
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pattern)), "ns/draw")
	}
	b.Run("batch", func(b *testing.B) {
		r := NewRNG(1)
		run(b, func() time.Duration { return benchService.Sample(r) }, r.Float64)
	})
	b.Run("reference", func(b *testing.B) {
		r := newRefRNG(1)
		run(b, func() time.Duration { return refSample(benchService, r) }, r.Float64)
	})
}

// BenchmarkLogNormalBackToBack draws service times back to back, as a
// replay's service model does, so the batch serves all but the first.
func BenchmarkLogNormalBackToBack(b *testing.B) { benchPattern(b, "L") }

// BenchmarkLogNormalInterleaved breaks the streaks with Float64 draws.
// Alternating and three LogNormals then one Float64 end every streak long
// before a fill, so they time the back-to-back check. First-fill ends each
// streak one draw into its first fill, abandoning batch-1 entries, the most
// a streak's end can; mid-fill ends it halfway into its fifth. Each must
// stay within a few percent of the reference: minRun bounds the work a
// streak's end wastes.
func BenchmarkLogNormalInterleaved(b *testing.B) {
	b.Run("alternate", func(b *testing.B) { benchPattern(b, "LF") })
	b.Run("three-one", func(b *testing.B) { benchPattern(b, "LLLF") })
	b.Run("first-fill", func(b *testing.B) { benchPattern(b, strings.Repeat("L", minRun+1)+"F") })
	b.Run("mid-fill", func(b *testing.B) { benchPattern(b, strings.Repeat("L", minRun+4*batch+batch/2)+"F") })
}
