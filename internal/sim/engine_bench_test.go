package sim

import (
	"testing"
	"time"
)

// benchEvents is the event count of one benchmark pass, the size of the
// benchmark's sim.engine_event_ns probe.
const benchEvents = 200000

// BenchmarkEngineAfter schedules benchEvents timers over a 977 µs spread
// on a warmed engine, then runs them: the heap at its largest.
func BenchmarkEngineAfter(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < benchEvents; i++ {
			e.After(time.Duration(i%977)*time.Microsecond, nop)
		}
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
}

// BenchmarkEngineArrivals is the rack replay's shape: benchEvents/2
// arrivals 5 µs apart handed over as one stream, each arming one
// completion timer up to 977 µs out, so the heap holds only the timers in
// flight.
func BenchmarkEngineArrivals(b *testing.B) {
	e := NewEngine()
	at := func(i int) time.Duration { return e.Now() + time.Duration(i)*5*time.Microsecond }
	arrive := func(i int) { e.After(time.Duration(i%977)*time.Microsecond, nop) }
	b.ReportAllocs()
	for b.Loop() {
		e.Arrivals(benchEvents/2, at, arrive)
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
}
