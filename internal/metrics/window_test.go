package metrics

import (
	"testing"
	"time"
)

// TestWindowAllocations pins a warm Window's record-then-read at no
// allocation and NewWindow at its four: the window, ring, sorted view and
// staging run.
func TestWindowAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	next := lcg(41)
	w := NewWindow(64)
	for i := 0; i < 200; i++ {
		w.Record(time.Duration(next() % 1e9))
	}
	if got := testing.AllocsPerRun(1000, func() {
		w.Record(time.Duration(next() % 1e9))
		w.Quantile(0.95)
	}); got != 0 {
		t.Errorf("warm Record+Quantile allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { windowSink = NewWindow(0) }); got != 4 {
		t.Errorf("NewWindow allocates %v times, want 4", got)
	}
}

// windowSink keeps a new window on the heap, as its owners keep it.
var windowSink *Window

// warmBenchWindow is warmBenchDigest for a Window.
func warmBenchWindow() (*Window, func() time.Duration) {
	next := lcg(11)
	value := func() time.Duration { return time.Duration(next() % 1e9) }
	w := NewWindow(0)
	for i := 0; i < 2*DefaultWindow; i++ {
		w.Record(value())
	}
	w.Quantile(0.5)
	return w, value
}

// BenchmarkWindowRecord is BenchmarkDigestRecord for the single-owner
// window: the same fold, with no lock or atomic in front of it.
func BenchmarkWindowRecord(b *testing.B) {
	w, value := warmBenchWindow()
	b.ReportAllocs()
	for b.Loop() {
		w.Record(value())
	}
}

// BenchmarkWindowRecordThenQuantile is the simulations' balance pattern:
// every read follows a write, so every read folds.
func BenchmarkWindowRecordThenQuantile(b *testing.B) {
	w, value := warmBenchWindow()
	b.ReportAllocs()
	for b.Loop() {
		w.Record(value())
		benchSink = w.Quantile(0.95)
	}
}
