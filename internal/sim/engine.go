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
// allocates nothing once the heap has grown. A sequence of instants known
// before the run — a trace's arrivals, a fault script, a sampler's ticks —
// is handed over once with Stream, and the engine reads it in place: it
// keeps only each stream's head instant, and a permutation of the indices
// when the instants are out of order. The head of every pending stream is
// merged with the heap's top. A stream takes its block of sequence numbers
// when Stream is called, so its events tie with timers exactly as if they
// had been scheduled with At at that moment, and the heap only ever holds
// the timers that events arm.
//
// RNG draws its distributions from one splitmix64 state, and computes a
// streak of back-to-back LogNormal draws ahead in a batch, bit for bit the
// values drawing them one at a time gives. Neither an Engine nor an RNG is
// safe for use from more than one goroutine. A copied RNG can share its
// original's batch, which keeps both correct only on one goroutine; give
// each component its own stream with Split.
package sim

import (
	"cmp"
	"math/bits"
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

// stream is one pending Stream call. Event i runs at at(i) clamped to
// floor, the Now of the call, and holds sequence number base+1+i. next
// counts the events already run; the run order is the index order, or
// order when the instants are out of order (order is nil when they are
// not). i and head are the next event's index and clamped instant.
type stream struct {
	at      func(int) time.Duration
	fn      func(int)
	order   []int
	n, next int
	i       int
	head    time.Duration
	floor   time.Duration
	base    uint64
}

// load caches the head of the stream at position next, which must be < n.
func (s *stream) load() {
	s.i = s.next
	if s.order != nil {
		s.i = s.order[s.next]
	}
	s.head = max(s.at(s.i), s.floor)
}

// seq is the head event's sequence number.
func (s *stream) seq() uint64 { return s.base + 1 + uint64(s.i) }

// maxStreams is how many streams an engine reads in place at once; a
// stream handed over while that many are pending becomes timers.
const maxStreams = 4

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	heap    []event
	streams [maxStreams]stream
	nstream int // streams[:nstream] are pending
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

// Stream schedules fn(i) at instant at(i) for every i in [0, n) and runs
// them exactly as the loop
//
//	for i := 0; i < n; i++ { e.At(at(i), func() { fn(i) }) }
//
// would at this moment: instants before the Now of the call clamp to it,
// and the stream takes the next n sequence numbers, so same-instant ties
// with timers and streams scheduled before and after the call resolve as
// they would for At. The engine reads at in place, at the call and again
// while the stream runs, so at must be pure: it may be called any number
// of times for any index, and must return the same instant each time.
// Instants in order allocate nothing whatever n is; out-of-order instants
// allocate the run order once and sort it by (clamped instant, index). Up
// to maxStreams streams are read in place at once; a stream handed over
// while that many are pending is scheduled as the At loop above.
func (e *Engine) Stream(n int, at func(int) time.Duration, fn func(int)) {
	if n <= 0 {
		return
	}
	if e.nstream == maxStreams {
		for i := 0; i < n; i++ {
			e.At(at(i), func() { fn(i) })
		}
		return
	}
	floor := e.now
	sorted := true
	for i, prev := 1, max(at(0), floor); i < n && sorted; i++ {
		t := max(at(i), floor)
		sorted = t >= prev
		prev = t
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
			if c := cmp.Compare(max(at(a), floor), max(at(b), floor)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	s := &e.streams[e.nstream]
	e.nstream++
	*s = stream{at: at, fn: fn, order: order, n: n, floor: floor, base: e.seq}
	s.load()
	e.seq += uint64(n)
}

// Run processes events until the queue drains or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() time.Duration {
	e.stopped = false
	for !e.stopped {
		_, from, ok := e.head()
		if !ok {
			break
		}
		e.fire(from)
	}
	return e.now
}

// head reports the earliest pending instant and where it is: the index of
// the stream whose head it is, or -1 for the heap's top. ok is false when
// nothing is pending.
func (e *Engine) head() (at time.Duration, from int, ok bool) {
	from = -1
	var seq uint64
	if len(e.heap) > 0 {
		at, seq, ok = e.heap[0].at, e.heap[0].seq, true
	}
	for k := range e.streams[:e.nstream] {
		s := &e.streams[k]
		if !ok || s.head < at || s.head == at && s.seq() < seq {
			at, seq, from, ok = s.head, s.seq(), k, true
		}
	}
	return at, from, ok
}

// fire advances the clock to the head event, from the heap (from < 0) or
// stream from, and runs it.
func (e *Engine) fire(from int) {
	if from < 0 {
		ev := e.pop()
		e.now = ev.at
		ev.fn()
		return
	}
	s := &e.streams[from]
	e.now = s.head
	i, fn := s.i, s.fn
	if s.next++; s.next < s.n {
		s.load()
	} else {
		// Drained: the last pending stream takes its slot, and the slot
		// it leaves drops the callbacks for the collector.
		e.nstream--
		*s = e.streams[e.nstream]
		e.streams[e.nstream] = stream{}
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
// down from the root. Which child is earliest is data the branch predictor
// cannot learn, so the child is chosen without a branch: a tournament of
// pairs for a full group of four, a masked scan for a partial one.
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
		var m int
		if c+3 < n {
			a := pick(h, c, c+1)
			b := pick(h, c+2, c+3)
			m = pick(h, a, b)
		} else {
			m = c
			for j := c + 1; j < n; j++ {
				m = pick(h, m, j)
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

// pick returns whichever of i and j holds the earlier event, by a mask and
// not a branch. (at, seq) compares as one 128-bit unsigned number, at's
// sign bit flipped so negative instants order first: j is earlier exactly
// when subtracting i's key from j's borrows out of the high word. Sequence
// numbers are distinct, so the two never tie.
func pick(h []event, i, j int) int {
	const sign = 1 << 63
	_, borrow := bits.Sub64(h[j].seq, h[i].seq, 0)
	_, borrow = bits.Sub64(uint64(h[j].at)^sign, uint64(h[i].at)^sign, borrow)
	return i ^ (i^j)&-int(borrow)
}
