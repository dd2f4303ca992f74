// Package sim provides the discrete-event simulation kernel used by every
// system-level experiment: a virtual clock, an event queue, and deterministic
// random distributions.
//
// Every event carries a sequence number taken when it is scheduled, and the
// engine runs events in (instant, sequence) order: by timestamp, and events
// scheduled for the same instant in the order they were scheduled. That is
// a total order, so a run is fully deterministic for a fixed seed.
//
// The queue has two parts. Timers scheduled with At and After are values
// (instant, sequence, callback) in a 4-ary min-heap; scheduling one
// allocates nothing once the heap has grown. A trace's arrivals are handed
// over once with Arrivals: the engine snapshots their instants, sorts an
// index only if they are out of order, and merges the stream's head with
// the heap's top. The stream takes its block of sequence numbers when Arrivals
// is called, so an arrival ties with timers exactly as if it had been
// scheduled with At at that moment, and the heap only ever holds the
// timers in flight, not the whole trace.
package sim

import (
	"cmp"
	"slices"
	"time"
)

// event is one scheduled timer: its callback runs at the virtual instant at;
// seq breaks ties between timers due at the same instant.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before is the queue's order.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// stream is the pending arrival stream. at holds arrival i's clamped
// instant at index i, and arrival i holds sequence number base+1+i. The
// next arrival to run is index next, or order[next] when the instants were
// out of order (order is nil when they were not).
type stream struct {
	at    []time.Duration
	order []int
	next  int
	base  uint64
	fn    func(int)
}

// peek returns the index of the next arrival to run.
func (s *stream) peek() int {
	if s.order == nil {
		return s.next
	}
	return s.order[s.next]
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	heap    []event
	arr     stream
	seq     uint64
	stopped bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) clamps to the current instant so causality is preserved.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Arrivals schedules fn(i) at instant at(i) for every i in [0, n) and
// runs them exactly as the loop
//
//	for i := 0; i < n; i++ { e.At(at(i), func() { fn(i) }) }
//
// would at this moment: at is called once per index, in order, before
// Arrivals returns, instants before Now clamp to Now, and the arrivals take
// the next n sequence numbers, so same-instant ties with timers scheduled
// before and after the call resolve as they would for At. Instants already
// in order cost one allocation and one pass whatever n is; out-of-order
// instants take a second allocation for the run order and a sort. An
// engine holds one stream at a time: calling Arrivals while arrivals of an
// earlier call are still pending panics.
func (e *Engine) Arrivals(n int, at func(int) time.Duration, fn func(int)) {
	if e.arr.next < len(e.arr.at) {
		panic("sim: Arrivals called while an earlier stream is pending")
	}
	if n <= 0 {
		return
	}
	times := make([]time.Duration, n)
	sorted := true
	for i := range times {
		times[i] = max(at(i), e.now)
		if i > 0 && times[i] < times[i-1] {
			sorted = false
		}
	}
	var order []int
	if !sorted {
		// Indices are distinct, so ordering by (instant, index) is the
		// stable sort by instant: index order is At's sequence order.
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(times[a], times[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	e.arr = stream{at: times, order: order, base: e.seq, fn: fn}
	e.seq += uint64(n)
}

// Run processes events until the queue drains or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() time.Duration {
	e.stopped = false
	for !e.stopped {
		_, fromStream, ok := e.head()
		if !ok {
			break
		}
		e.fire(fromStream)
	}
	return e.now
}

// head reports the earliest pending instant and whether the arrival stream
// (rather than the heap) holds it; ok is false when nothing is pending.
func (e *Engine) head() (at time.Duration, fromStream, ok bool) {
	s := &e.arr
	if s.next < len(s.at) {
		i := s.peek()
		at := s.at[i]
		if len(e.heap) == 0 {
			return at, true, true
		}
		top := &e.heap[0]
		if at < top.at || at == top.at && s.base+1+uint64(i) < top.seq {
			return at, true, true
		}
		return top.at, false, true
	}
	if len(e.heap) == 0 {
		return 0, false, false
	}
	return e.heap[0].at, false, true
}

// fire advances the clock to the head event and runs it.
func (e *Engine) fire(fromStream bool) {
	if !fromStream {
		ev := e.pop()
		e.now = ev.at
		ev.fn()
		return
	}
	s := &e.arr
	i := s.peek()
	e.now = s.at[i]
	fn := s.fn
	s.next++
	if s.next == len(s.at) {
		*s = stream{} // drained: release the instants
	}
	fn(i)
}

// push adds ev to the 4-ary heap, sifting it up from the last leaf.
func (e *Engine) push(ev event) {
	e.heap = append(e.heap, ev)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the heap's earliest event, sifting the last leaf
// down from the root.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback for the collector
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
