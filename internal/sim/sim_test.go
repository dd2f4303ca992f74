package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*time.Millisecond, func() { order = append(order, 3) })
	e.After(10*time.Millisecond, func() { order = append(order, 1) })
	e.After(20*time.Millisecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.After(time.Second, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if at != time.Duration(i)*time.Second {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var ranAt time.Duration
	e.After(time.Second, func() {
		e.At(0, func() { ranAt = e.Now() }) // in the past; must clamp
	})
	e.Run()
	if ranAt != time.Second {
		t.Fatalf("past event ran at %v, want clamp to 1s", ranAt)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Second, func() { ran++ })
	}
	e.RunUntil(5 * time.Second)
	if ran != 5 {
		t.Fatalf("ran %d events, want 5", ran)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.Run()
	if ran != 10 {
		t.Fatalf("after full run, ran = %d, want 10", ran)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i), func() {
			ran++
			if ran == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran %d events after Stop, want 3", ran)
	}
}

// TestArrivalsTakeSequenceAtCall pins the stream's place among same-instant
// timers: after those scheduled before the call, in index order however
// they were passed, before those scheduled after; at runs once per index,
// in order, inside the call.
func TestArrivalsTakeSequenceAtCall(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(time.Millisecond, func() { order = append(order, "before") })
	var calls []int
	at := []time.Duration{2 * time.Millisecond, time.Millisecond, -time.Second, time.Millisecond}
	e.Arrivals(len(at), func(i int) time.Duration {
		calls = append(calls, i)
		return at[i]
	}, func(i int) { order = append(order, fmt.Sprint(i)) })
	if fmt.Sprint(calls) != "[0 1 2 3]" || e.Pending() != 5 {
		t.Fatalf("at called for %v, pending %d; want [0 1 2 3], 5", calls, e.Pending())
	}
	e.At(time.Millisecond, func() { order = append(order, "after") })
	e.Run()
	if got := fmt.Sprint(order); got != "[2 before 1 3 after 0]" {
		t.Fatalf("ran %s, want [2 before 1 3 after 0]", got)
	}
}

// raceDetector is set by race_test.go under -race.
var raceDetector bool

func nop() {}

// TestWarmTimersAllocateNothing pins At's host cost: a timer is a value in
// the heap, so once the heap has grown scheduling and running allocate
// nothing.
func TestWarmTimersAllocateNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine()
	schedule := func() {
		for i := 0; i < 64; i++ {
			e.After(time.Duration(i%7), nop)
		}
		e.Run()
	}
	schedule()
	if got := testing.AllocsPerRun(100, schedule); got != 0 {
		t.Errorf("After+Run on a warmed engine allocates %v times, want 0", got)
	}
}

// TestArrivalsAllocations pins the stream's host cost whatever its length:
// one allocation for instants in order, a second for the run order of
// instants out of order. The process's first collection allocates its mark
// workers, so one runs before counting, and the count averages over
// enough runs that a later cycle's bookkeeping rounds away.
func TestArrivalsAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	runtime.GC()
	e := NewEngine()
	for _, n := range []int{1, 100, 100000} {
		sorted := func(i int) time.Duration { return e.Now() + time.Duration(i) }
		reversed := func(i int) time.Duration { return e.Now() + time.Duration(n-i) }
		for _, c := range []struct {
			at   func(int) time.Duration
			want float64
		}{{sorted, 1}, {reversed, 2}} {
			if n == 1 {
				c.want = 1 // one instant is in order
			}
			if got := testing.AllocsPerRun(20, func() {
				e.Arrivals(n, c.at, func(int) {})
				e.Run()
			}); got != c.want {
				t.Errorf("Arrivals of %d allocates %v times, want %v", n, got, c.want)
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	for i := 0; i < 1000; i++ {
		if n := r.Intn(17); n < 0 || n >= 17 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(1)
	mean := 100 * time.Millisecond
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.05 {
		t.Fatalf("exp mean = %v, want ~%v", time.Duration(got), mean)
	}
}

func TestLogNormalMedianAndTail(t *testing.T) {
	r := NewRNG(2)
	d := LogNormal{Median: 50 * time.Millisecond, Sigma: 0.32}
	vals := make([]time.Duration, 20000)
	for i := range vals {
		vals[i] = d.Sample(r)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	median := vals[len(vals)/2]
	p99 := vals[len(vals)*99/100]
	if math.Abs(float64(median)-float64(d.Median))/float64(d.Median) > 0.05 {
		t.Fatalf("median = %v, want ~%v", median, d.Median)
	}
	// sigma 0.32 puts p99 at ~2.1x the median (the paper's 110% gap).
	ratio := float64(p99) / float64(median)
	if ratio < 1.9 || ratio > 2.3 {
		t.Fatalf("p99/median = %.2f, want ~2.1", ratio)
	}
}

func TestLogNormalQuantile(t *testing.T) {
	d := LogNormal{Median: 50 * time.Millisecond, Sigma: 0.32}
	if q := d.Quantile(0.5); q != 50*time.Millisecond {
		t.Fatalf("median quantile = %v", q)
	}
	q99 := d.Quantile(0.99)
	ratio := float64(q99) / float64(d.Median)
	if ratio < 2.0 || ratio > 2.2 {
		t.Fatalf("analytic p99/median = %.3f, want ~2.1", ratio)
	}
	if d.Quantile(0.25) >= d.Quantile(0.75) {
		t.Fatal("quantile not monotonic")
	}
}

func TestNormQuantileInverse(t *testing.T) {
	// NormQuantile should invert the normal CDF at standard points.
	cases := map[float64]float64{
		0.5:    0,
		0.8413: 1.0,
		0.9772: 2.0,
		0.99:   2.326,
	}
	for p, want := range cases {
		if got := NormQuantile(p); math.Abs(got-want) > 0.01 {
			t.Errorf("NormQuantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(99)
	s1 := r.Split()
	s2 := r.Split()
	equal := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("split streams collided %d times", equal)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	d := LogNormal{Median: 30 * time.Millisecond, Sigma: 0.4}
	f := func(a, b uint8) bool {
		p1 := float64(a%100)/100 + 0.001
		p2 := float64(b%100)/100 + 0.001
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return d.Quantile(p1) <= d.Quantile(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refEngine is the engine as it was before its queue held values: every
// event boxed behind a pointer in a binary heap ordered by (at, seq), with
// the standard library heap's up/down inlined. The differential tests hold
// Engine to it.
type refEngine struct {
	now     time.Duration
	queue   refHeap
	seq     uint64
	stopped bool
}

type refHeap []*event

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h refHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *refHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *refHeap) pop() *event {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	return ev
}

func (e *refEngine) Now() time.Duration { return e.now }

func (e *refEngine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(&event{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Run() time.Duration {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		ev := e.queue.pop()
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

func (e *refEngine) RunUntil(deadline time.Duration) time.Duration {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			e.now = deadline
			return e.now
		}
		ev := e.queue.pop()
		e.now = ev.at
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *refEngine) Pending() int { return len(e.queue) }

// Arrivals is the At loop Engine.Arrivals is specified to equal.
func (e *refEngine) Arrivals(n int, at func(int) time.Duration, fn func(int)) {
	for i := 0; i < n; i++ {
		i := i
		e.At(at(i), func() { fn(i) })
	}
}

// scheduler is the surface the differential tests drive on both engines.
type scheduler interface {
	Now() time.Duration
	At(t time.Duration, fn func())
	After(d time.Duration, fn func())
	Arrivals(n int, at func(int) time.Duration, fn func(int))
	Stop()
	Run() time.Duration
	RunUntil(deadline time.Duration) time.Duration
	Pending() int
}

// fired is one callback run: which callback, at what virtual instant.
type fired struct {
	id int
	at time.Duration
}

// program runs one engine through a schedule. Callback ids are handed out
// in creation order, and what a callback does when it fires is a pure
// function of the seed and its id, so two engines that pop the same events
// in the same order create the same callbacks with the same ids.
type program struct {
	e    scheduler
	seed uint64
	ids  int
	log  []fired
}

func (p *program) callback() func() {
	id := p.ids
	p.ids++
	return func() { p.fire(id) }
}

// fire logs the callback, schedules zero to two children (a tie at the
// current instant, a short delay, a clamped past instant, an absolute grid
// instant, a negative delay) and stops the run one time in sixteen.
func (p *program) fire(id int) {
	now := p.e.Now()
	p.log = append(p.log, fired{id, now})
	r := mix(p.seed ^ uint64(id))
	for k := 0; k < [4]int{0, 0, 1, 2}[r&3]; k++ {
		c := mix(r + uint64(k))
		d := time.Duration((c>>8)%8) * time.Millisecond
		switch c % 5 {
		case 0:
			p.e.After(0, p.callback())
		case 1:
			p.e.After(d, p.callback())
		case 2:
			p.e.At(now-d-1, p.callback())
		case 3:
			p.e.At(time.Duration((c>>16)%32)*time.Millisecond, p.callback())
		case 4:
			p.e.After(-d, p.callback())
		}
	}
	if (r>>4)&15 == 0 {
		p.e.Stop()
	}
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// scheduleOp applies one decoded outside operation to a program.
func scheduleOp(p *program, op, arg byte) {
	now := p.e.Now()
	ms := time.Millisecond
	switch op % 16 {
	case 0, 1, 2, 3, 4: // near the current instant, some in the past; ties
		p.e.At(now+time.Duration(int(arg%32)-4)*ms, p.callback())
	case 5, 6, 7:
		p.e.After(time.Duration(arg%16)*ms, p.callback())
	case 8:
		p.e.At(now-time.Duration(arg)*time.Microsecond-1, p.callback())
	case 9:
		p.e.After(-time.Duration(arg)*time.Microsecond, p.callback())
	case 10, 11: // a deadline that may lie before the current instant
		p.e.RunUntil(now + time.Duration(int(arg%64)-8)*ms/2)
	case 12:
		p.e.Run()
	case 13:
		p.e.Stop()
	case 14:
		p.e.At(now, p.callback())
	default:
		p.arrivals(arg)
	}
}

// arrivals hands the engine a stream of up to 204 arrivals whose instants
// are, by arg%5: in order (or all but 1 ns) with ties and a clamped start,
// out of order, all tied, negative (all clamp to Now), or in reverse order.
func (p *program) arrivals(arg byte) {
	now := p.e.Now()
	n := int(arg/5) * 4
	base := p.ids
	p.ids += n
	at := func(i int) time.Duration {
		h := mix(p.seed ^ uint64(base+i))
		switch arg % 5 {
		case 0: // for odd arg/5, odd indices 1 ns late: out of order by 1 ns
			return now + time.Duration(i/3-2)*time.Millisecond + time.Duration(i%2*int(arg/5%2))
		case 1:
			return now + time.Duration(int(h%32)-4)*time.Millisecond + time.Duration((h>>8)%3)
		case 2:
			return now + 2*time.Millisecond
		case 3:
			return -time.Duration(h%5)*time.Millisecond - time.Duration(i)
		default:
			return now + time.Duration(n-i)*time.Millisecond/2
		}
	}
	p.e.Arrivals(n, at, func(i int) { p.fire(base + i) })
}

// runSchedule decodes data as (op, arg) byte pairs, applies each to Engine
// and to refEngine, and reports the first difference in fired callbacks,
// Now or Pending after any step, then after a final Run.
func runSchedule(data []byte) error {
	var seed uint64
	for i := 0; i < len(data) && i < 8; i++ {
		seed = seed<<8 | uint64(data[i])
	}
	eng := NewEngine()
	a := &program{e: eng, seed: seed}
	b := &program{e: &refEngine{}, seed: seed}
	checked := 0
	check := func(step int) error {
		if len(a.log) != len(b.log) {
			return fmt.Errorf("step %d: %d callbacks fired, reference %d", step, len(a.log), len(b.log))
		}
		for ; checked < len(a.log); checked++ {
			if a.log[checked] != b.log[checked] {
				return fmt.Errorf("step %d: callback %d fired %+v, reference %+v",
					step, checked, a.log[checked], b.log[checked])
			}
		}
		if a.e.Now() != b.e.Now() || a.e.Pending() != b.e.Pending() {
			return fmt.Errorf("step %d: now %v pending %d, reference now %v pending %d",
				step, a.e.Now(), a.e.Pending(), b.e.Now(), b.e.Pending())
		}
		return nil
	}
	for i := 0; i+1 < len(data); i += 2 {
		if data[i]%16 == 15 && eng.Pending() > len(eng.heap) {
			// One stream at a time: run to the pending one's last instant.
			last := slices.Max(eng.arr.at)
			a.e.RunUntil(last)
			b.e.RunUntil(last)
		} else {
			scheduleOp(a, data[i], data[i+1])
			scheduleOp(b, data[i], data[i+1])
		}
		if err := check(i / 2); err != nil {
			return err
		}
	}
	a.e.Run()
	b.e.Run()
	return check(len(data) / 2)
}

// TestEngineMatchesReference runs three seeded 20,000-operation schedules
// on Engine and refEngine. Every other 2,000-operation stretch schedules
// without running, so the queue grows to thousands of events before the
// next Run drains it.
func TestEngineMatchesReference(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 2000
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2*ops)
		rng.Read(data)
		for i := 0; i < ops; i++ {
			if (i/2000)%2 == 1 && data[2*i]%16 >= 10 && data[2*i]%16 <= 12 {
				data[2*i] = 0
			}
		}
		if err := runSchedule(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 3, 14, 0, 5, 0, 12, 0})
	f.Add([]byte("at-after-past-clamp-rununtil-stop-run"))
	f.Add([]byte{0, 9, 15, 200, 14, 0, 10, 20, 15, 201, 5, 2, 12, 0, 15, 202, 0, 6, 15, 203, 11, 9, 15, 204, 12, 0})
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 29)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			data = data[:1<<13]
		}
		if err := runSchedule(data); err != nil {
			t.Fatal(err)
		}
	})
}
