// Package flash models the NAND flash array inside the drive: a geometry of
// channels, dies, and planes with page-granular read/program timing, an FTL
// that stripes logical pages across the array for parallelism, and a
// latency model that accounts for die-level overlap and channel bus
// serialization — the substrate the DSCS-Drive's P2P path reads from.
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

// Array is the flash array with its FTL state. Not safe for concurrent use;
// the drive serializes access as real controllers do per queue pair.
type Array struct {
	geo Geometry

	// FTL: logical page number -> physical page address.
	l2p map[int64]PPA
	// next physical page cursor per die (simple append-only allocation;
	// steady-state GC cost is folded into ProgramLatency).
	cursor []int64
	// invalidated counts pages made stale by overwrites.
	invalidated int64
	// programs counts page writes per die for wear accounting.
	programs []int64

	// perDie and perChannel are Read/Write's per-operation page tallies,
	// kept on the array so an operation allocates nothing. Sharing them is
	// sound only because the array is not concurrent: every caller reaches
	// it under ssd.Drive.mu.
	perDie, perChannel []int64
}

// NewArray returns an array with an empty FTL.
func NewArray(geo Geometry) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geo:        geo,
		l2p:        make(map[int64]PPA),
		cursor:     make([]int64, geo.totalDies()),
		programs:   make([]int64, geo.totalDies()),
		perDie:     make([]int64, geo.totalDies()),
		perChannel: make([]int64, geo.Channels),
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

// dieIndex flattens a channel/die pair.
func (a *Array) dieIndex(channel, die int) int {
	return channel*a.geo.DiesPerChannel + die
}

// allocate assigns the next physical page on the least-written die,
// striping load across the whole array (dynamic wear leveling).
func (a *Array) allocate() (PPA, int) {
	best := 0
	for i := 1; i < len(a.cursor); i++ {
		if a.cursor[i] < a.cursor[best] {
			best = i
		}
	}
	seq := a.cursor[best]
	a.cursor[best]++
	a.programs[best]++
	pagesPerPlane := int64(a.geo.PagesPerBlock) * int64(a.geo.BlocksPerPlane)
	plane := int(seq/int64(a.geo.PagesPerBlock)) % a.geo.PlanesPerDie
	within := seq % (pagesPerPlane * int64(a.geo.PlanesPerDie))
	block := int(within/int64(a.geo.PagesPerBlock)) % a.geo.BlocksPerPlane
	page := int(seq % int64(a.geo.PagesPerBlock))
	return PPA{
		Channel: best / a.geo.DiesPerChannel,
		Die:     best % a.geo.DiesPerChannel,
		Plane:   plane,
		Block:   block,
		Page:    page,
	}, best
}

// Write programs the logical pages backing [lpnStart, lpnStart+pages) and
// returns the operation latency. Overwrites remap and invalidate.
//
//dscslint:hotpath
func (a *Array) Write(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	perDie := a.perDie
	clear(perDie)
	for i := int64(0); i < pages; i++ {
		lpn := lpnStart + i
		if _, ok := a.l2p[lpn]; ok {
			a.invalidated++
		}
		ppa, die := a.allocate()
		a.l2p[lpn] = ppa
		perDie[die]++
	}
	lat := a.opLatency(perDie, a.geo.ProgramLatency)
	energy := units.Energy(float64(pages)*float64(a.geo.PageSize)) * a.geo.WriteEnergyPerByte
	return lat, energy
}

// WriteBytes programs n bytes at a logical byte offset.
func (a *Array) WriteBytes(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	start := offset / int64(a.geo.PageSize)
	return a.Write(start, a.pagesFor(n))
}

// Read returns the latency of reading the logical pages
// [lpnStart, lpnStart+pages). Unmapped pages read as zero-fill from the
// controller without touching the array.
//
//dscslint:hotpath
func (a *Array) Read(lpnStart, pages int64) (time.Duration, units.Energy) {
	if pages <= 0 {
		return 0, 0
	}
	perChannel, perDie := a.perChannel, a.perDie
	clear(perChannel)
	clear(perDie)
	var mapped int64
	for i := int64(0); i < pages; i++ {
		ppa, ok := a.l2p[lpnStart+i]
		if !ok {
			continue
		}
		mapped++
		perChannel[ppa.Channel]++
		perDie[a.dieIndex(ppa.Channel, ppa.Die)]++
	}
	if mapped == 0 {
		// Zero-fill read: controller-only, a page transfer worth of work.
		return a.geo.pageXfer(), 0
	}
	lat := a.readLatency(perChannel, perDie)
	energy := units.Energy(float64(mapped)*float64(a.geo.PageSize)) * a.geo.ReadEnergyPerByte
	return lat, energy
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
func (a *Array) readLatency(perChannel, perDie []int64) time.Duration {
	var worst time.Duration
	for ch := 0; ch < a.geo.Channels; ch++ {
		pages := perChannel[ch]
		if pages == 0 {
			continue
		}
		// Deepest die queue on this channel bounds the sensing pipeline.
		var deepest int64
		for d := 0; d < a.geo.DiesPerChannel; d++ {
			if q := perDie[a.dieIndex(ch, d)]; q > deepest {
				deepest = q
			}
		}
		sense := time.Duration(deepest) * a.geo.ReadLatency
		bus := time.Duration(pages) * a.geo.pageXfer()
		total := a.geo.ReadLatency + maxDur(sense-a.geo.ReadLatency, bus)
		if total > worst {
			worst = total
		}
	}
	return worst
}

// opLatency is the program/erase analogue: per-die serialization dominates
// because program time far exceeds bus time.
func (a *Array) opLatency(perDie []int64, per time.Duration) time.Duration {
	var deepest int64
	for _, q := range perDie {
		if q > deepest {
			deepest = q
		}
	}
	return time.Duration(deepest) * per
}

// MappedPages reports how many logical pages are live.
func (a *Array) MappedPages() int64 { return int64(len(a.l2p)) }

// InvalidatedPages reports pages made stale by overwrites.
func (a *Array) InvalidatedPages() int64 { return a.invalidated }

// WearSpread returns max/min die program counts (1.0 is perfectly even);
// returns 1 when nothing has been written.
func (a *Array) WearSpread() float64 {
	minW, maxW := int64(-1), int64(0)
	for _, w := range a.programs {
		if minW < 0 || w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
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

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
