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
// count per die, and the logical-to-physical table stores only each page's
// allocation number — in dense segments of 2,048 logical pages, 1 + g per
// cell with 0 for unmapped, behind a map from segment index with a memo of
// the last segment touched. A physical address (PPA) is arithmetic on g; a
// write of n pages occupies its deepest die ceil(n / dies) times wherever
// the rotation stands; wear per die follows from next alone. Host cost is
// one map lookup per 2,048 pages and a slice walk, not a hash per 16 KiB
// page.
//
// A read goes by runs, by the same invariant: one Write numbers its pages
// consecutively, so a run of n cells holding 1+g, 2+g, … puts n / dies
// pages on every die and one more on each of the n % dies dies from die
// g % dies on, wrapping. A read therefore costs one compare per page to
// find the runs plus closed-form work per run — a divide and at most one
// increment per die — and a page standing alone, as a single-page
// overwrite leaves it, costs one divide and one increment.
//
// All of this rests on the round-robin invariant. A second source of
// allocations that does not take the next number in order — garbage
// collection that relocates pages to a die of its choosing, a per-die
// allocator — would break it, and with it every closed form above.
package flash

import (
	"fmt"
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

// The logical-to-physical table is cut into segments of segPages
// consecutive logical pages.
const (
	segShift = 11
	segPages = 1 << segShift
)

// segment maps segPages logical pages: a cell holds 1 + the page's
// allocation number, 0 while the page is unmapped.
type segment [segPages]int64

// Array is the flash array with its FTL state. It is not safe for concurrent
// use — operations share the segment memo and the perDie tally — and nothing
// hands it out: every caller reaches it through an ssd.Drive, under that
// drive's lock, as real controllers serialize per queue pair.
type Array struct {
	geo  Geometry
	dies int64

	// FTL: logical page number >> segShift -> that segment of the table.
	segs map[int64]*segment
	// last memoises the segment lastIdx names; nil before the first write.
	last    *segment
	lastIdx int64

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
		segs:   make(map[int64]*segment),
		perDie: make([]int64, geo.totalDies()),
	}, nil
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// pagesFor returns the page count spanning n bytes.
func (a *Array) pagesFor(n units.Bytes) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + a.geo.PageSize - 1) / a.geo.PageSize)
}

// segmentAt returns the segment with index idx, nil if no page of it was
// ever written.
func (a *Array) segmentAt(idx int64) *segment {
	if a.last != nil && a.lastIdx == idx {
		return a.last
	}
	seg := a.segs[idx]
	if seg != nil {
		a.last, a.lastIdx = seg, idx
	}
	return seg
}

// ppa returns the physical address behind a logical page: allocation g is
// page g / dies of die g % dies, planes interleaved block by block.
func (a *Array) ppa(lpn int64) (PPA, bool) {
	seg := a.segmentAt(lpn >> segShift)
	if seg == nil || seg[lpn&(segPages-1)] == 0 {
		return PPA{}, false
	}
	g := seg[lpn&(segPages-1)] - 1 // the cell holds 1 + g
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
	for lpn, end := lpnStart, lpnStart+pages; lpn < end; {
		idx := lpn >> segShift
		seg := a.segmentAt(idx)
		if seg == nil {
			// Once per 2,048 never-written logical pages; overwrites and
			// reads allocate nothing.
			seg = new(segment)
			a.segs[idx] = seg
			a.last, a.lastIdx = seg, idx
		}
		lo := lpn & (segPages - 1)
		n := min(segPages-lo, end-lpn)
		cells := seg[lo : lo+n]
		for i, cell := range cells {
			if cell != 0 {
				a.invalidated++
			} else {
				a.mapped++
			}
			a.next++
			cells[i] = a.next
		}
		lpn += n
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
// The per-die tally goes run by run (see the package comment).
//
//dscslint:hotpath
func (a *Array) Read(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	perDie, dies := a.perDie, a.dies
	clear(perDie)
	// every is the pages each die gets from the runs' whole rotations.
	var mapped, every int64
	for lpn, end := lpnStart, lpnStart+pages; lpn < end; {
		lo := lpn & (segPages - 1)
		n := min(segPages-lo, end-lpn)
		if seg := a.segmentAt(lpn >> segShift); seg != nil {
			cells := seg[lo : lo+n]
			for i := 0; i < len(cells); {
				cell := cells[i]
				if cell == 0 {
					i++
					continue
				}
				j, want := i+1, cell+1
				for j < len(cells) && cells[j] == want {
					j++
					want++
				}
				// cell is 1 + g with g >= 0, so the unsigned remainder is
				// g % dies without the signed division's sign fix-up.
				run, die := int64(j-i), uint64(cell-1)%uint64(dies)
				mapped += run
				i = j
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
		}
		lpn += n
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
