package flash

import "dscs/internal/units"

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

// MappedPages reports how many logical pages are live: the extents' total
// length.
func (a *Array) MappedPages() int64 {
	var n int64
	for _, e := range a.ext {
		n += e.n
	}
	return n
}

// InvalidatedPages reports pages made stale by overwrites. Write is the
// only mutator and every page it programs is live or stale, so that is
// every page ever programmed less the live ones.
func (a *Array) InvalidatedPages() int64 { return a.next - a.MappedPages() }

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

// Capacity returns the raw array capacity.
func (g Geometry) Capacity() units.Bytes {
	return g.PageSize * units.Bytes(g.PagesPerBlock) * units.Bytes(g.BlocksPerPlane) *
		units.Bytes(g.PlanesPerDie) * units.Bytes(g.DiesPerChannel) * units.Bytes(g.Channels)
}

// PPA is a physical page address.
type PPA struct {
	Channel, Die, Plane, Block, Page int
}
