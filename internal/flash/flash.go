// Package flash models the NAND flash array inside the drive: a geometry of
// channels, dies, and planes with page-granular read/program timing, an FTL
// that stripes logical pages across the array for parallelism, and a
// latency model that accounts for die-level overlap and channel bus
// serialization — the substrate the DSCS-Drive's P2P path reads from.
//
// # Representation
//
// The FTL allocates append-only on the least-written die, lowest index
// winning ties. Write is the only allocator, so that rule is exactly
// round-robin from die 0: allocation g (counting from zero over the array's
// life) lands on die g % dies, as that die's page number g / dies. The array
// therefore keeps one counter, next, instead of a write position and a wear
// count per die. A physical address (PPA) is arithmetic on g; a write of n
// pages occupies its deepest die ceil(n / dies) times wherever the rotation
// stands; wear per die follows from next alone.
//
// One Write numbers its pages consecutively, so the logical-to-physical
// table is a sorted slice of extents, each {first logical page, page count,
// first allocation number}: page lpn+i of an extent is allocation g+i. A
// write replaces what it covers with one extent — in place when it covers
// exactly one extent, as an overwrite of a placed object does — and keeps
// the uncovered head and tail of the extents it cuts, so it splices in at
// most three. A write that continues the extent before it, in logical pages
// and in allocations, extends that extent instead. A page lookup is a binary
// search. Host cost per operation is a binary search plus work per extent
// touched, not per 16 KiB page, and the table's size tracks how fragmented
// the logical space is, not how much of it is written.
//
// A read goes extent by extent, by the same invariant: the n pages an
// extent contributes, from allocation g on, put n / dies pages on every die
// and one more on each of the n % dies dies from die g % dies on, wrapping.
// A read therefore costs closed-form work per extent — a divide and at most
// one increment per die — and a page standing alone, as a single-page
// overwrite leaves it, costs one divide and one increment.
//
// All of this rests on the round-robin invariant. A second source of
// allocations that does not take the next number in order — garbage
// collection that relocates pages to a die of its choosing, a per-die
// allocator — would break it, and with it every closed form above.
package flash

import (
	"fmt"
	"slices"
	"time"

	"dscs/internal/units"
)

// Geometry describes the physical organization of the array.
type Geometry struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	PageSize       units.Bytes
	PagesPerBlock  int
	BlocksPerPlane int

	ReadLatency    time.Duration // tR: array -> page register
	ProgramLatency time.Duration // tPROG
	EraseLatency   time.Duration // tBERS
	ChannelBW      units.Bandwidth

	// Energy per byte moved through the array (sense + transfer).
	ReadEnergyPerByte  units.Energy
	WriteEnergyPerByte units.Energy
}

// SmartSSDClass returns a geometry in the class of a 4 TB datacenter TLC
// drive: 8 channels x 4 dies, 16 KiB pages, 1.2 GB/s ONFI channels.
func SmartSSDClass() Geometry {
	return Geometry{
		Channels:       8,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		PageSize:       16 * units.KiB,
		PagesPerBlock:  1024,
		BlocksPerPlane: 4096,

		ReadLatency:    60 * time.Microsecond,
		ProgramLatency: 700 * time.Microsecond,
		EraseLatency:   3 * time.Millisecond,
		ChannelBW:      1.2 * units.GBps,

		ReadEnergyPerByte:  50 * units.PicoJoule,
		WriteEnergyPerByte: 350 * units.PicoJoule,
	}
}

// Validate rejects degenerate geometries.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChannel <= 0 || g.PlanesPerDie <= 0 {
		return fmt.Errorf("flash: non-positive parallelism dims")
	}
	if g.PageSize <= 0 || g.PagesPerBlock <= 0 || g.BlocksPerPlane <= 0 {
		return fmt.Errorf("flash: non-positive capacity dims")
	}
	if g.ReadLatency <= 0 || g.ProgramLatency <= 0 || g.ChannelBW <= 0 {
		return fmt.Errorf("flash: non-positive timing")
	}
	return nil
}

// Capacity returns the raw array capacity.
func (g Geometry) Capacity() units.Bytes {
	return g.PageSize * units.Bytes(g.PagesPerBlock) * units.Bytes(g.BlocksPerPlane) *
		units.Bytes(g.PlanesPerDie) * units.Bytes(g.DiesPerChannel) * units.Bytes(g.Channels)
}

func (g Geometry) totalDies() int { return g.Channels * g.DiesPerChannel }

// pageXfer is the channel-bus time for one page.
func (g Geometry) pageXfer() time.Duration {
	return g.ChannelBW.TransferTime(g.PageSize)
}

// PPA is a physical page address.
type PPA struct {
	Channel, Die, Plane, Block, Page int
}

// extent maps n consecutive logical pages from lpn on to consecutive
// allocations from g on: page lpn+i is allocation g+i.
type extent struct {
	lpn, n, g int64
}

// end is the first logical page past the extent.
func (e extent) end() int64 { return e.lpn + e.n }

// Array is the flash array with its FTL state. It is not safe for concurrent
// use — operations share the extent table and the perDie tally — and nothing
// hands it out: every caller reaches it through an ssd.Drive, under that
// drive's lock, as real controllers serialize per queue pair.
type Array struct {
	geo  Geometry
	dies int64

	// ext is the logical-to-physical table: disjoint extents sorted by
	// first logical page. Pages no extent covers are unmapped.
	ext []extent

	// next is the number of pages ever allocated, and the next allocation's
	// number (append-only allocation; steady-state GC cost is folded into
	// ProgramLatency). See the package comment for what derives from it.
	next int64
	// mapped counts live logical pages, invalidated pages made stale by
	// overwrites.
	mapped, invalidated int64

	// perDie is Read's per-operation page tally, kept on the array so an
	// operation allocates nothing.
	perDie []int64
}

// NewArray returns an array with an empty FTL.
func NewArray(geo Geometry) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geo:    geo,
		dies:   int64(geo.totalDies()),
		perDie: make([]int64, geo.totalDies()),
	}, nil
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Extents reports the size of the logical-to-physical table: how many runs
// of consecutively allocated logical pages the live data forms.
func (a *Array) Extents() int { return len(a.ext) }

// pagesFor returns the page count spanning n bytes.
func (a *Array) pagesFor(n units.Bytes) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + a.geo.PageSize - 1) / a.geo.PageSize)
}

// search returns the index of the first extent ending after lpn: the extent
// holding lpn if one does, else the first one past it.
func (a *Array) search(lpn int64) int {
	lo, hi := 0, len(a.ext)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.ext[m].end() <= lpn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// ppa returns the physical address behind a logical page: allocation g is
// page g / dies of die g % dies, planes interleaved block by block.
func (a *Array) ppa(lpn int64) (PPA, bool) {
	i := a.search(lpn)
	if i == len(a.ext) || a.ext[i].lpn > lpn {
		return PPA{}, false
	}
	g := a.ext[i].g + lpn - a.ext[i].lpn
	die, seq := int(g%a.dies), g/a.dies
	pagesPerPlane := int64(a.geo.PagesPerBlock) * int64(a.geo.BlocksPerPlane)
	within := seq % (pagesPerPlane * int64(a.geo.PlanesPerDie))
	return PPA{
		Channel: die / a.geo.DiesPerChannel,
		Die:     die % a.geo.DiesPerChannel,
		Plane:   int(seq/int64(a.geo.PagesPerBlock)) % a.geo.PlanesPerDie,
		Block:   int(within/int64(a.geo.PagesPerBlock)) % a.geo.BlocksPerPlane,
		Page:    int(seq % int64(a.geo.PagesPerBlock)),
	}, true
}

// Write stores the logical pages [lpnStart, lpnStart+pages), one page
// program each, and returns the operation latency. Overwrites remap and
// invalidate.
//
//dscslint:hotpath
func (a *Array) Write(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	end := lpnStart + pages
	// ext[i:j] are the extents the write covers, wholly or in part.
	i := a.search(lpnStart)
	j := i
	var live int64
	for ; j < len(a.ext) && a.ext[j].lpn < end; j++ {
		e := a.ext[j]
		live += min(e.end(), end) - max(e.lpn, lpnStart)
	}
	a.invalidated += live
	a.mapped += pages - live
	fresh := extent{lpn: lpnStart, n: pages, g: a.next}
	a.next += pages

	if j == i+1 && a.ext[i].lpn == lpnStart && a.ext[i].n == pages {
		a.ext[i] = fresh // an overwrite of exactly one extent
	} else {
		// What replaces ext[i:j]: the head the write leaves of ext[i], the
		// write itself, the tail it leaves of ext[j-1].
		var buf [3]extent
		put := buf[:0]
		if i < j && a.ext[i].lpn < lpnStart {
			head := a.ext[i]
			head.n = lpnStart - head.lpn
			put = append(put, head)
		} else if i > 0 {
			if prev := &a.ext[i-1]; prev.end() == lpnStart && prev.g+prev.n == fresh.g {
				// The write continues the extent before it.
				prev.n += pages
				fresh.n = 0
			}
		}
		if fresh.n != 0 {
			put = append(put, fresh)
		}
		if i < j {
			if last := a.ext[j-1]; last.end() > end {
				put = append(put, extent{lpn: end, n: last.end() - end, g: last.g + end - last.lpn})
			}
		}
		a.ext = slices.Replace(a.ext, i, j, put...)
	}
	// Per-die serialization dominates a program (tPROG far exceeds bus
	// time), and round-robin puts ceil(pages/dies) of them on the deepest
	// die whichever die the rotation starts from.
	lat := time.Duration((pages+a.dies-1)/a.dies) * a.geo.ProgramLatency
	energy := units.Energy(float64(pages)*float64(a.geo.PageSize)) * a.geo.WriteEnergyPerByte
	return lat, energy
}

// WriteBytes writes n bytes at a logical byte offset.
func (a *Array) WriteBytes(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	start := offset / int64(a.geo.PageSize)
	return a.Write(start, a.pagesFor(n))
}

// Read returns the latency of reading the logical pages
// [lpnStart, lpnStart+pages). Unmapped pages read as zero-fill from the
// controller without touching the array.
//
// The per-die tally goes extent by extent (see the package comment).
//
//dscslint:hotpath
func (a *Array) Read(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	perDie, dies := a.perDie, a.dies
	clear(perDie)
	end := lpnStart + pages
	// every is the pages each die gets from the extents' whole rotations.
	var mapped, every int64
	for _, e := range a.ext[a.search(lpnStart):] {
		if e.lpn >= end {
			break
		}
		lo := max(e.lpn, lpnStart)
		// Allocation numbers are non-negative, so the unsigned remainder
		// is g % dies without the signed division's sign fix-up.
		run, die := min(e.end(), end)-lo, uint64(e.g+lo-e.lpn)%uint64(dies)
		mapped += run
		if run == 1 {
			// Single-page overwrites leave these.
			perDie[die]++
			continue
		}
		if run >= dies {
			every += run / dies
			run %= dies
		}
		// The remainder wraps past the last die at most once.
		if tail := perDie[die:]; run <= int64(len(tail)) {
			bump(tail[:run])
		} else {
			bump(tail)
			bump(perDie[:run-int64(len(tail))])
		}
	}
	if every != 0 {
		for die := range perDie {
			perDie[die] += every
		}
	}
	if mapped == 0 {
		// Zero-fill read: controller-only, a page transfer worth of work.
		return a.geo.pageXfer(), 0
	}
	lat := a.readLatency(perDie)
	energy := units.Energy(float64(mapped)*float64(a.geo.PageSize)) * a.geo.ReadEnergyPerByte
	return lat, energy
}

// bump adds one page to each die of q.
func bump(q []int64) {
	for i := range q {
		q[i]++
	}
}

// ReadBytes reads n bytes at a logical byte offset.
func (a *Array) ReadBytes(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	start := offset / int64(a.geo.PageSize)
	return a.Read(start, a.pagesFor(n))
}

// readLatency composes die-level sensing with channel bus serialization:
// per channel, dies sense pages in parallel waves of tR while the shared
// bus streams finished pages; the channel finishes at
// max(sense pipeline, bus serialization) + the first page's sense.
func (a *Array) readLatency(perDie []int64) time.Duration {
	var worst time.Duration
	for ch := 0; ch < a.geo.Channels; ch++ {
		// The channel's dies are adjacent in perDie; the deepest die
		// queue bounds the sensing pipeline.
		var pages, deepest int64
		for _, q := range perDie[ch*a.geo.DiesPerChannel:][:a.geo.DiesPerChannel] {
			pages += q
			deepest = max(deepest, q)
		}
		if pages == 0 {
			continue
		}
		sense := time.Duration(deepest) * a.geo.ReadLatency
		bus := time.Duration(pages) * a.geo.pageXfer()
		total := a.geo.ReadLatency + max(sense-a.geo.ReadLatency, bus)
		worst = max(worst, total)
	}
	return worst
}

// MappedPages reports how many logical pages are live.
func (a *Array) MappedPages() int64 { return a.mapped }

// InvalidatedPages reports pages made stale by overwrites.
func (a *Array) InvalidatedPages() int64 { return a.invalidated }

// WearSpread returns max/min die program counts (1.0 is perfectly even);
// returns 1 when nothing has been written.
func (a *Array) WearSpread() float64 {
	minW, maxW := a.next/a.dies, (a.next+a.dies-1)/a.dies
	if maxW == 0 {
		return 1
	}
	if minW == 0 {
		minW = 1
	}
	return float64(maxW) / float64(minW)
}

// SustainedReadBW reports the array's streaming read bandwidth given full
// parallelism: per channel the min of die sensing rate and bus rate.
func (g Geometry) SustainedReadBW() units.Bandwidth {
	perDie := float64(g.PageSize) / g.ReadLatency.Seconds()
	senseRate := perDie * float64(g.DiesPerChannel)
	busRate := float64(g.ChannelBW)
	per := senseRate
	if busRate < per {
		per = busRate
	}
	return units.Bandwidth(per * float64(g.Channels))
}
