package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"dscs/benchmark/refkernel"
)

// The reference kernel's nominal cost. RefIterNs is the quiet-box median of
// refkernel.Observe on the host this benchmark was defined on (2-vCPU KVM
// guest, go1.24, GOMAXPROCS=2); every host-time metric is scaled by
// RefIterNs/observed so a slow minute on the box reads the same as a fast
// one. It is a unit, not a tunable: changing it rescales every norm_*
// metric and invalidates comparisons with earlier runs.
const (
	RefIterNs = 3000.0
	// kernelIters sizes the observation after each block: a single slice
	// and a dual slice of this many iterations, about 5 ms together.
	kernelIters = 800
	// setupKernelIters sizes the observation after each set-up: one set-up
	// gets one factor, so it has to be a steadier one (about 30 ms).
	setupKernelIters = 5000
)

// block is one fixed-count unit of measured work plus the kernel
// observation that followed it.
type block struct {
	ops     int
	wall    time.Duration // the timed region only
	iterNs  float64       // kernel ns/iter observed right after the block
	mallocs uint64
	bytes   uint64
	// p50 and p90 are this block's own latency percentiles, in
	// microseconds, as measured; lat indexes its samples in phase.lat.
	p50, p90     float64
	latLo, latHi int
}

// phase accumulates blocks. Block i sits in slot i%slots of granule
// i/slots: a granule is the repeating unit of the workload (one block for
// the live workloads, one replay of each pump for sim-rack, one pass over
// the experiments for paper-figs), so blocks in the same slot did the same
// work and can be compared across granules.
type phase struct {
	slots  int
	blocks []block
	lat    []time.Duration
	gc     gcDelta
}

type gcDelta struct {
	cycles  uint32
	pauseNs uint64
}

// memMark is a MemStats snapshot reduced to what the brackets need.
type memMark struct {
	mallocs, bytes, pauseNs uint64
	gc                      uint32
}

func mark() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC}
}

// runner is one workload instance, built by a set-up. run executes block i
// and returns its op count, the wall time of the timed region and the
// per-op latency samples (valid until the next run); check verifies what
// run produced, outside every bracket.
type runner interface {
	run(i int) (ops int, wall time.Duration, lat []time.Duration)
	check(t *tally)
	// finish runs the end-of-phase checks (conservation) and releases the
	// instance.
	finish(t *tally)
}

// stopRule says, after blocks blocks and elapsed seconds, whether the
// measured phase is over.
type stopRule func(blocks int, elapsed float64) bool

// afterSeconds stops once seconds of wall time have passed, but only after a
// whole number of granules (at least one).
func afterSeconds(seconds float64, granule int) stopRule {
	return func(blocks int, elapsed float64) bool {
		return blocks > 0 && blocks%granule == 0 && elapsed >= seconds
	}
}

// afterBlocks stops after exactly n blocks.
func afterBlocks(n int) stopRule {
	return func(blocks int, _ float64) bool { return blocks >= n }
}

// measure drives r until stop says so, interleaving the reference kernel
// after every block while the system under test is quiescent. Allocation
// counts bracket the timed call only: the kernel and the checks are outside.
func measure(r runner, slots int, stop stopRule, t *tally) *phase {
	p := &phase{slots: slots}
	start := time.Now()
	g0 := mark()
	var us []float64
	for i := 0; !stop(i, time.Since(start).Seconds()); i++ {
		before := mark()
		ops, wall, lat := r.run(i)
		after := mark()
		lo := len(p.lat)
		p.lat = append(p.lat, lat...)
		us = us[:0]
		for _, d := range lat {
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
		sort.Float64s(us)
		r.check(t)
		p.blocks = append(p.blocks, block{
			ops: ops, wall: wall, iterNs: refkernel.Observe(kernelIters),
			mallocs: after.mallocs - before.mallocs, bytes: after.bytes - before.bytes,
			p50: percentile(us, 0.50), p90: percentile(us, 0.90),
			latLo: lo, latHi: len(p.lat),
		})
	}
	g1 := mark()
	p.gc = gcDelta{g1.gc - g0.gc, g1.pauseNs - g0.pauseNs}
	return p
}

// factorWindow is how many kernel observations on either side of a block
// (besides the two adjacent to it) its speed factor is read from.
const factorWindow = 4

// factor is block i's speed factor: nominal over observed kernel cost, the
// observation being the median of those around the block. One 5 ms slice is
// too noisy a reading for a block of 30 ms to 2 s; the median of nine
// follows the box's drift (which is slow) without the slices' own jitter.
func (p *phase) factor(i int) float64 {
	lo, hi := max(i-1-factorWindow, 0), min(i+1+factorWindow, len(p.blocks))
	obs := make([]float64, 0, hi-lo)
	for _, b := range p.blocks[lo:hi] {
		obs = append(obs, b.iterNs)
	}
	return RefIterNs / medianOf(obs)
}

// perSlot evaluates f on every block and returns, for each slot, the median
// over granules. A median, not a mean or a ratio of sums: the box disturbs
// single blocks (and single kernel slices) for milliseconds at a time, in
// both directions once normalised, and those blocks should not count.
func (p *phase) perSlot(f func(i int) float64) []float64 {
	bySlot := make([][]float64, p.slots)
	for i := range p.blocks {
		bySlot[i%p.slots] = append(bySlot[i%p.slots], f(i))
	}
	out := make([]float64, p.slots)
	for s, v := range bySlot {
		out[s] = medianOf(v)
	}
	return out
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func (p *phase) ops() int {
	n := 0
	for _, b := range p.blocks {
		n += b.ops
	}
	return n
}

// rawThroughput is ops per second of timed wall time, as measured.
func (p *phase) rawThroughput() float64 {
	var wall time.Duration
	for _, b := range p.blocks {
		wall += b.wall
	}
	return float64(p.ops()) / wall.Seconds()
}

// normThroughput is ops per second at nominal speed: the ops of one granule
// over its normalised duration, each slot's duration being the median over
// granules of that slot's block time times its speed factor.
func (p *phase) normThroughput() float64 {
	ops := p.perSlot(func(i int) float64 { return float64(p.blocks[i].ops) })
	secs := p.perSlot(func(i int) float64 { return p.blocks[i].wall.Seconds() * p.factor(i) })
	return sum(ops) / sum(secs)
}

// normLatency is a latency percentile at nominal speed, in microseconds.
// With one slot (the live workloads) it is the median over blocks of the
// block's own percentile times the block's speed factor. With several (the
// batch workloads) the unit of latency is the granule — one replay of each
// pump, one pass over the experiments: what someone waiting for the result
// waits for — and the percentile is read across the granules' normalised
// durations, never at the slowest one: a run fits only three passes over the
// experiments, and the maximum of three is not a percentile. A single 6 ms
// experiment is too short a thing to time within a tenth; a pass is not.
func (p *phase) normLatency(pct float64) float64 {
	if p.slots == 1 {
		v := make([]float64, len(p.blocks))
		for i, b := range p.blocks {
			v[i] = b.p50 * p.factor(i)
			if pct >= 0.9 {
				v[i] = b.p90 * p.factor(i)
			}
		}
		return medianOf(v)
	}
	granules := make([]float64, len(p.blocks)/p.slots)
	for i := 0; i < len(granules)*p.slots; i++ {
		granules[i/p.slots] += p.blocks[i].wall.Seconds() * 1e6 * p.factor(i)
	}
	sort.Float64s(granules)
	rank := int(math.Ceil(pct * float64(len(granules))))
	rank = max(1, min(rank, len(granules)-1))
	return granules[rank-1]
}

// pooled returns every latency sample in microseconds, sorted; with norm
// set each is first multiplied by its block's speed factor. The ungated
// driver.* tail percentiles read from it.
func (p *phase) pooled(norm bool) []float64 {
	out := make([]float64, 0, len(p.lat))
	for i, b := range p.blocks {
		f := 1.0
		if norm {
			f = p.factor(i)
		}
		for _, d := range p.lat[b.latLo:b.latHi] {
			out = append(out, float64(d.Nanoseconds())/1e3*f)
		}
	}
	sort.Float64s(out)
	return out
}

func (p *phase) allocsPerOp() (objects, bytes float64) {
	var m, b uint64
	for _, blk := range p.blocks {
		m += blk.mallocs
		b += blk.bytes
	}
	n := float64(p.ops())
	return float64(m) / n, float64(b) / n
}

// refStats summarises the kernel observations: the median ns/iter and the
// coefficient of variation, which says how disturbed the run was.
func (p *phase) refStats() (median, cv float64) {
	obs := make([]float64, len(p.blocks))
	for i, b := range p.blocks {
		obs[i] = b.iterNs
	}
	return medianOf(obs), stddev(obs) / mean(obs)
}

// percentile reads the p-quantile (nearest rank) of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

func stddev(v []float64) float64 {
	m := mean(v)
	var s float64
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(v)))
}

// setupRepeats is how many times a workload is set up from scratch; the
// reported setup_s is the median speed-corrected duration and the last
// instance is the one measured.
const setupRepeats = 5

// timedSetups runs build setupRepeats times, tearing down all but the last
// instance, and returns that instance with the median corrected duration
// and the heap in use after the last set-up.
func timedSetups(build func() (runner, error), t *tally) (r runner, setupS, heapMB float64, err error) {
	var durs []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		inst, err := build()
		if err != nil {
			return nil, 0, 0, err
		}
		d := time.Since(start).Seconds()
		durs = append(durs, d*RefIterNs/refkernel.Observe(setupKernelIters))
		if i < setupRepeats-1 {
			inst.finish(t)
		} else {
			r = inst
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return r, medianOf(durs), float64(ms.HeapAlloc) / (1 << 20), nil
}
