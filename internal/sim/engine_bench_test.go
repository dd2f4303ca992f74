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
	var start time.Duration
	at := func(i int) time.Duration { return start + time.Duration(i)*5*time.Microsecond }
	arrive := func(i int) { e.After(time.Duration(i%977)*time.Microsecond, nop) }
	b.ReportAllocs()
	for b.Loop() {
		start = e.Now()
		e.Stream(benchEvents/2, at, arrive)
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
}

// BenchmarkEngineStreams is the cluster driver's shape: a 64-event fault
// script out of order, the arrivals of BenchmarkEngineArrivals less the
// script and the sampler's ticks (one per 100 arrivals), handed over as
// three streams in that order, with a completion timer per arrival.
func BenchmarkEngineStreams(b *testing.B) {
	const faults = 64
	ticks := benchEvents / 200
	arrivals := benchEvents/2 - faults - ticks
	e := NewEngine()
	var start time.Duration
	faultAt := func(i int) time.Duration { return start + time.Duration(faults-i)*7*time.Millisecond }
	arriveAt := func(i int) time.Duration { return start + time.Duration(i)*5*time.Microsecond }
	tickAt := func(i int) time.Duration { return start + time.Duration(i)*500*time.Microsecond }
	arrive := func(i int) { e.After(time.Duration(i%977)*time.Microsecond, nop) }
	other := func(int) {}
	b.ReportAllocs()
	for b.Loop() {
		start = e.Now()
		e.Stream(faults, faultAt, other)
		e.Stream(arrivals, arriveAt, arrive)
		e.Stream(ticks, tickAt, other)
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(faults+ticks+2*arrivals)), "ns/event")
}
