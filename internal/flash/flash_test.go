package flash

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dscs/internal/units"
)

func newArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(SmartSSDClass())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryCapacity(t *testing.T) {
	g := SmartSSDClass()
	// 8ch x 4 dies x 2 planes x 1024 blocks x 256 pages x 16KiB = 4 TiB raw.
	if c := g.Capacity(); c != 4*units.Bytes(1<<40) {
		t.Errorf("capacity = %v, want 4TiB", c)
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := SmartSSDClass().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := SmartSSDClass()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels should fail")
	}
	bad2 := SmartSSDClass()
	bad2.ReadLatency = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero tR should fail")
	}
}

func TestSustainedReadBW(t *testing.T) {
	// 8 channels, bus-limited at 1.2 GB/s or sense-limited at
	// 4 x 16KiB/60us = 1.09 GB/s per channel -> ~8.7 GB/s array-wide.
	bw := SmartSSDClass().SustainedReadBW()
	if bw < 7*units.GBps || bw > 10*units.GBps {
		t.Errorf("sustained read bw = %v, want 7-10GB/s", bw)
	}
}

func TestWriteThenReadMapped(t *testing.T) {
	a := newArray(t)
	lat, energy := a.WriteBytes(0, 4*units.MiB)
	if lat <= 0 || energy <= 0 {
		t.Fatalf("write lat=%v energy=%v", lat, energy)
	}
	if a.MappedPages() != 256 {
		t.Fatalf("mapped pages = %d, want 256", a.MappedPages())
	}
	rlat, renergy := a.ReadBytes(0, 4*units.MiB)
	if rlat <= 0 || renergy <= 0 {
		t.Fatalf("read lat=%v energy=%v", rlat, renergy)
	}
	// Reads are far faster than programs.
	if rlat >= lat {
		t.Errorf("read %v should beat program %v", rlat, lat)
	}
}

func TestUnmappedReadIsZeroFill(t *testing.T) {
	a := newArray(t)
	lat, energy := a.ReadBytes(1<<30, 64*units.KiB)
	if energy != 0 {
		t.Error("zero-fill read must not touch the array")
	}
	if lat <= 0 || lat > 100*time.Microsecond {
		t.Errorf("zero-fill latency = %v", lat)
	}
}

func TestParallelismSpeedsReads(t *testing.T) {
	// A multi-page read striped across channels must be much faster than
	// pages x tR serialized.
	a := newArray(t)
	const size = 8 * units.MiB // 512 pages
	a.WriteBytes(0, size)
	lat, _ := a.ReadBytes(0, size)
	serial := time.Duration(512) * SmartSSDClass().ReadLatency
	if lat >= serial/4 {
		t.Errorf("striped read %v should be >4x faster than serial %v", lat, serial)
	}
	// And no faster than the array's sustained bandwidth allows.
	floor := SmartSSDClass().SustainedReadBW().TransferTime(size)
	if lat < floor/2 {
		t.Errorf("read %v implausibly beats bandwidth floor %v", lat, floor)
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	a := newArray(t)
	a.WriteBytes(0, 1*units.MiB)
	if a.InvalidatedPages() != 0 {
		t.Fatal("fresh writes must not invalidate")
	}
	a.WriteBytes(0, 1*units.MiB)
	if a.InvalidatedPages() != 64 {
		t.Errorf("invalidated = %d, want 64", a.InvalidatedPages())
	}
	// Remap means still exactly 64 live pages.
	if a.MappedPages() != 64 {
		t.Errorf("mapped = %d, want 64", a.MappedPages())
	}
}

func TestWearLeveling(t *testing.T) {
	a := newArray(t)
	for i := 0; i < 64; i++ {
		a.WriteBytes(int64(i)*int64(units.MiB), 1*units.MiB)
	}
	if spread := a.WearSpread(); spread > 1.5 {
		t.Errorf("wear spread = %.2f, want near 1.0", spread)
	}
}

func TestReadLatencyGrowsWithSize(t *testing.T) {
	a := newArray(t)
	a.WriteBytes(0, 64*units.MiB)
	small, _ := a.ReadBytes(0, 64*units.KiB)
	big, _ := a.ReadBytes(0, 64*units.MiB)
	if big <= small {
		t.Errorf("64MiB read %v should exceed 64KiB read %v", big, small)
	}
}

func TestZeroSizedOps(t *testing.T) {
	a := newArray(t)
	if lat, e := a.ReadBytes(0, 0); lat != 0 || e != 0 {
		t.Error("zero read should be free")
	}
	if lat, e := a.WriteBytes(0, 0); lat != 0 || e != 0 {
		t.Error("zero write should be free")
	}
}

func TestMappingUniquenessProperty(t *testing.T) {
	// Distinct logical pages must map to distinct physical pages.
	a := newArray(t)
	a.Write(0, 2000)
	seen := make(map[PPA]bool)
	for lpn := int64(0); lpn < 2000; lpn++ {
		ppa, ok := a.ppa(lpn)
		if !ok {
			t.Fatalf("lpn %d unmapped", lpn)
		}
		if seen[ppa] {
			t.Fatalf("ppa %+v assigned twice", ppa)
		}
		seen[ppa] = true
		if ppa.Channel < 0 || ppa.Channel >= a.geo.Channels ||
			ppa.Die < 0 || ppa.Die >= a.geo.DiesPerChannel ||
			ppa.Plane < 0 || ppa.Plane >= a.geo.PlanesPerDie {
			t.Fatalf("ppa out of geometry: %+v", ppa)
		}
	}
}

func TestPagesForProperty(t *testing.T) {
	a := newArray(t)
	f := func(n uint32) bool {
		b := units.Bytes(n)
		pages := a.pagesFor(b)
		ps := int64(a.geo.PageSize)
		return pages*ps >= int64(b) && (pages-1)*ps < int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refArray is the per-page FTL this package started with:
// a map from logical page to a stored PPA, a cursor and a wear count per
// die, and a least-written-die scan on every allocation. It is kept
// verbatim (type and receiver renamed) as the reference the differential
// and fuzz tests hold Array to.
type refArray struct {
	geo Geometry

	l2p         map[int64]PPA
	cursor      []int64
	invalidated int64
	programs    []int64

	perDie, perChannel []int64
}

func newRefArray(geo Geometry) *refArray {
	return &refArray{
		geo:        geo,
		l2p:        make(map[int64]PPA),
		cursor:     make([]int64, geo.totalDies()),
		programs:   make([]int64, geo.totalDies()),
		perDie:     make([]int64, geo.totalDies()),
		perChannel: make([]int64, geo.Channels),
	}
}

func (a *refArray) pagesFor(n units.Bytes) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + a.geo.PageSize - 1) / a.geo.PageSize)
}

func (a *refArray) dieIndex(channel, die int) int {
	return channel*a.geo.DiesPerChannel + die
}

func (a *refArray) allocate() (PPA, int) {
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

func (a *refArray) Write(lpnStart, pages int64) (time.Duration, units.Energy) {
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

func (a *refArray) WriteBytes(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	start := offset / int64(a.geo.PageSize)
	return a.Write(start, a.pagesFor(n))
}

func (a *refArray) Read(lpnStart, pages int64) (time.Duration, units.Energy) {
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
		return a.geo.pageXfer(), 0
	}
	lat := a.readLatency(perChannel, perDie)
	energy := units.Energy(float64(mapped)*float64(a.geo.PageSize)) * a.geo.ReadEnergyPerByte
	return lat, energy
}

func (a *refArray) ReadBytes(offset int64, n units.Bytes) (time.Duration, units.Energy) {
	start := offset / int64(a.geo.PageSize)
	return a.Read(start, a.pagesFor(n))
}

func (a *refArray) readLatency(perChannel, perDie []int64) time.Duration {
	var worst time.Duration
	for ch := 0; ch < a.geo.Channels; ch++ {
		pages := perChannel[ch]
		if pages == 0 {
			continue
		}
		var deepest int64
		for d := 0; d < a.geo.DiesPerChannel; d++ {
			if q := perDie[a.dieIndex(ch, d)]; q > deepest {
				deepest = q
			}
		}
		sense := time.Duration(deepest) * a.geo.ReadLatency
		bus := time.Duration(pages) * a.geo.pageXfer()
		total := a.geo.ReadLatency + refMaxDur(sense-a.geo.ReadLatency, bus)
		if total > worst {
			worst = total
		}
	}
	return worst
}

func (a *refArray) opLatency(perDie []int64, per time.Duration) time.Duration {
	var deepest int64
	for _, q := range perDie {
		if q > deepest {
			deepest = q
		}
	}
	return time.Duration(deepest) * per
}

func (a *refArray) MappedPages() int64 { return int64(len(a.l2p)) }

func (a *refArray) InvalidatedPages() int64 { return a.invalidated }

func (a *refArray) WearSpread() float64 {
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

// tally counts, die by die, the mapped pages among [lpnStart,
// lpnStart+pages), one map lookup a page.
func (a *refArray) tally(lpnStart, pages int64) []int64 {
	perDie := make([]int64, a.geo.totalDies())
	for lpn := lpnStart; lpn < lpnStart+pages; lpn++ {
		if ppa, ok := a.l2p[lpn]; ok {
			perDie[a.dieIndex(ppa.Channel, ppa.Die)]++
		}
	}
	return perDie
}

func refMaxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// The offsets the layers above generate. The object store bump-allocates
// replicas chunkSize apart, which is not a multiple of the 16 KiB page;
// faas keeps intermediates and staged weights at the two region offsets.
const (
	chunkSize           = int64(32 * units.MB)
	scratchRegionOffset = int64(1) << 42
	weightRegionOffset  = int64(1) << 43
)

// segPages is a logical-page boundary the layouts straddle: 2,048, where a
// table cut into dense 2,048-page segments would split a run. The extent
// table has no such boundary; ranges across it stay in the tests because a
// table of fixed-size blocks is the obvious alternative representation.
const segPages = 2048

// arrayOp is one byte-addressed read or write.
type arrayOp struct {
	write  bool
	offset int64
	n      units.Bytes
}

// differ drives an Array and the reference with the same operations.
type differ struct {
	got *Array
	ref *refArray
}

func newDiffer(geo Geometry) (*differ, error) {
	a, err := NewArray(geo)
	if err != nil {
		return nil, err
	}
	return &differ{got: a, ref: newRefArray(geo)}, nil
}

// step applies op to both and compares everything either can report.
func (d *differ) step(op arrayOp) error {
	var gotLat, refLat time.Duration
	var gotE, refE units.Energy
	if op.write {
		gotLat, gotE = d.got.WriteBytes(op.offset, op.n)
		refLat, refE = d.ref.WriteBytes(op.offset, op.n)
	} else {
		gotLat, gotE = d.got.ReadBytes(op.offset, op.n)
		refLat, refE = d.ref.ReadBytes(op.offset, op.n)
	}
	if gotLat != refLat || gotE != refE {
		return fmt.Errorf("%+v: latency %v energy %v, reference %v %v", op, gotLat, gotE, refLat, refE)
	}
	// readLatency folds the tally into a per-channel sum and maximum, so a
	// wrong tally can still price right; compare the tally itself.
	if pages := d.ref.pagesFor(op.n); !op.write && pages > 0 {
		want := d.ref.tally(op.offset/int64(d.ref.geo.PageSize), pages)
		for die, got := range d.got.perDie {
			if got != want[die] {
				return fmt.Errorf("%+v: die %d read %d pages, reference %d (tally %v, want %v)",
					op, die, got, want[die], d.got.perDie, want)
			}
		}
	}
	if g, r := d.got.MappedPages(), d.ref.MappedPages(); g != r {
		return fmt.Errorf("%+v: %d mapped pages, reference %d", op, g, r)
	}
	if g, r := d.got.InvalidatedPages(), d.ref.InvalidatedPages(); g != r {
		return fmt.Errorf("%+v: %d invalidated pages, reference %d", op, g, r)
	}
	if g, r := d.got.WearSpread(), d.ref.WearSpread(); g != r {
		return fmt.Errorf("%+v: wear spread %v, reference %v", op, g, r)
	}
	return nil
}

// checkPPAs compares the reconstructed physical address of every page the
// reference maps, that the extent table is sorted, disjoint and free of
// empty extents, and that it maps nothing else.
func (d *differ) checkPPAs() error {
	for lpn, want := range d.ref.l2p {
		if got, ok := d.got.ppa(lpn); !ok || got != want {
			return fmt.Errorf("lpn %d: ppa %+v (mapped %v), reference %+v", lpn, got, ok, want)
		}
	}
	var pages, end int64
	for i, e := range d.got.ext {
		if e.n <= 0 || (i > 0 && e.lpn < end) {
			return fmt.Errorf("extent %d %+v: empty, or overlaps or precedes the one before (ending at %d)", i, e, end)
		}
		pages += e.n
		end = e.end()
	}
	if pages != int64(len(d.ref.l2p)) {
		return fmt.Errorf("extents map %d pages, reference maps %d", pages, len(d.ref.l2p))
	}
	return nil
}

// TestArrayMatchesReference replays seeded operation streams through the
// extent-table FTL and the per-page reference: chunk-spaced objects
// overwritten whole and in part, ranges straddling a segment boundary, the
// scratch and weight regions, zero-length and never-written ranges. Every
// operation's latency and energy and every counter must agree throughout.
func TestArrayMatchesReference(t *testing.T) {
	geo := SmartSSDClass()
	ps := int64(geo.PageSize)
	segBytes := int64(segPages) * ps
	ops := 20000
	if testing.Short() || raceDetector {
		ops = 2000 // one goroutine: the race detector only slows the reference's map
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, err := newDiffer(geo)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ops; i++ {
			var op arrayOp
			op.write = rng.Intn(5) < 2
			switch rng.Intn(8) {
			case 0, 1, 2: // an object the store placed, whole or in part
				op.offset = int64(rng.Intn(12)) * chunkSize
				op.n = units.Bytes(rng.Int63n(20 << 20))
				if rng.Intn(3) == 0 {
					op.offset += rng.Int63n(4 << 20)
				}
			case 3: // straddling a segment boundary
				op.offset = int64(1+rng.Intn(3))*segBytes - rng.Int63n(6*ps)
				op.n = units.Bytes(rng.Int63n(12 * ps))
			case 4:
				op.offset = scratchRegionOffset
				op.n = units.Bytes(rng.Int63n(40 << 20))
			case 5:
				op.offset = weightRegionOffset + rng.Int63n(3)*ps
				op.n = units.Bytes(rng.Int63n(100 << 20))
			case 6: // zero-length, or a range nothing ever wrote
				if rng.Intn(2) == 0 {
					op.offset = rng.Int63n(1 << 44)
				} else {
					op.write = false
					op.offset = 1<<44 + rng.Int63n(1<<40)
					op.n = units.Bytes(rng.Int63n(8 << 20))
				}
			case 7: // single pages and sub-page ranges
				op.offset = int64(rng.Intn(12))*chunkSize + rng.Int63n(1<<20)
				op.n = units.Bytes(rng.Int63n(3 * ps))
			}
			if err := d.step(op); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
		if err := d.checkPPAs(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestArrayMatchesReferenceOddGeometry repeats the comparison on a geometry
// whose die count is not a power of two and does not divide segPages, where a wrong modulus or tie-break would show first.
func TestArrayMatchesReferenceOddGeometry(t *testing.T) {
	geo := SmartSSDClass()
	geo.Channels, geo.DiesPerChannel, geo.PlanesPerDie = 3, 5, 3
	geo.PagesPerBlock, geo.BlocksPerPlane = 7, 11 // small, so block and plane numbers wrap
	ps := int64(geo.PageSize)
	rng := rand.New(rand.NewSource(7))
	d, err := newDiffer(geo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		op := arrayOp{
			write:  rng.Intn(2) == 0,
			offset: rng.Int63n(3*int64(segPages)) * ps,
			n:      units.Bytes(rng.Int63n(300 * ps)),
		}
		if err := d.step(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := d.checkPPAs(); err != nil {
		t.Fatal(err)
	}
}

// TestReadTallyLayouts holds every read's per-die tally, latency and energy
// to the reference on the layouts a tally by runs of consecutive
// allocations could get wrong: runs just under, at and over the die count
// from every starting die, runs a segment boundary cuts, single pages
// overwritten inside an extent, and unmapped holes — on the 32-die drive
// and on 15 dies, which divide neither segPages nor a power of two.
func TestReadTallyLayouts(t *testing.T) {
	odd := SmartSSDClass()
	odd.Channels, odd.DiesPerChannel = 3, 5
	for _, geo := range []Geometry{SmartSSDClass(), odd} {
		dies := int64(geo.totalDies())
		ps := int64(geo.PageSize)
		w := func(lpn, n int64) arrayOp { return arrayOp{write: true, offset: lpn * ps, n: units.Bytes(n * ps)} }
		r := func(lpn, n int64) arrayOp { return arrayOp{offset: lpn * ps, n: units.Bytes(n * ps)} }
		const base, far = 100, 1 << 30 // far: a write there only turns the rotation
		layouts := map[string][]arrayOp{}
		for _, n := range []int64{dies - 1, dies, dies + 1, 2*dies + 3} {
			for o := int64(0); o < dies; o++ {
				layouts[fmt.Sprintf("run%d/from-die%d", n, o)] = []arrayOp{
					w(far, o), w(base, n),
					r(base, n), r(base+1, n-1), r(base, n-1), r(base-2, n+4),
				}
			}
		}
		for _, back := range []int64{1, dies / 2, dies + 1} {
			lpn := int64(segPages) - back
			for _, o := range []int64{0, 1, dies - 1} {
				layouts[fmt.Sprintf("segment-cut%d/from-die%d", back, o)] = []arrayOp{
					w(far, o), w(lpn, 2*dies+3),
					r(lpn, 2*dies+3), r(segPages, dies), r(lpn-1, back+1),
				}
			}
		}
		layouts["run-over-a-whole-segment"] = []arrayOp{
			w(far, 3), w(segPages-5, segPages+2*dies+9),
			r(segPages-5, segPages+2*dies+9), r(0, 3*segPages),
		}
		overwrites := []arrayOp{w(far, 2), w(base, 3*dies+7)}
		for p := int64(0); p < 3*dies+7; p += 3 {
			overwrites = append(overwrites, w(base+p, 1))
		}
		overwrites = append(overwrites, w(base+dies, 2), // a two-page run inside
			r(base, 3*dies+7), r(base+1, 3*dies+5), r(base+dies-1, 4))
		layouts["single-page-overwrites"] = overwrites
		fragmented := []arrayOp{w(base, 2*dies+1)}
		for p := int64(0); p < 2*dies+1; p += 2 {
			fragmented = append(fragmented, w(base+p, 1))
		}
		layouts["every-other-page-overwritten"] = append(fragmented, r(base, 2*dies+1))
		layouts["holes"] = []arrayOp{
			w(base, dies+1), w(base+dies+5, 2), w(base+2*dies+20, dies-1), w(base+3*dies+25, 1),
			r(base-3, 3*dies+30), r(base+dies, 7), r(base+dies+1, 4),
		}
		reversed := []arrayOp{}
		for p := int64(2*dies + 1); p >= 0; p-- {
			reversed = append(reversed, w(base+p, 1))
		}
		layouts["written-backwards"] = append(reversed, r(base, 2*dies+2))
		layouts["run-continued-by-next-write"] = []arrayOp{
			w(base, dies-3), w(base+dies-3, dies+5), r(base, 2*dies+2),
		}
		for name, ops := range layouts {
			t.Run(fmt.Sprintf("%ddies/%s", dies, name), func(t *testing.T) {
				d, err := newDiffer(geo)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					if err := d.step(op); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			})
		}
	}
}

// FuzzArrayOps decodes a byte stream into reads and writes — four bytes an
// operation: kind and region, position within the region, and a 16-bit
// length — and holds Array to the reference after every one.
func FuzzArrayOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0xff, 0xff, 0, 0, 0xff, 0xff, 1, 1, 0, 1, 0, 0, 0xff, 0xff})
	f.Add([]byte("write-read-overwrite-straddle-scratch-weights"))
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runArrayOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// runArrayOps is the fuzz body.
func runArrayOps(data []byte) error {
	geo := SmartSSDClass()
	ps := int64(geo.PageSize)
	segBytes := int64(segPages) * ps
	bases := [8]int64{
		0, chunkSize, 2 * chunkSize, // store-placed objects
		segBytes - 3*ps, 2*segBytes - ps - 1, // straddling a segment boundary
		scratchRegionOffset, weightRegionOffset,
		1 << 45, // never written: reads only
	}
	d, err := newDiffer(geo)
	if err != nil {
		return err
	}
	for i := 0; i+4 <= len(data); i += 4 {
		region := int(data[i]>>1) % len(bases)
		op := arrayOp{
			write:  data[i]&1 == 1 && region != len(bases)-1,
			offset: bases[region] + int64(data[i+1])*12345,
			n:      units.Bytes(int64(data[i+2])|int64(data[i+3])<<8) * 331,
		}
		if err := d.step(op); err != nil {
			return fmt.Errorf("op %d: %w", i/4, err)
		}
	}
	return d.checkPPAs()
}

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// TestWarmArrayOpsAllocateNothing pins the host cost of an operation over
// ranges already written: no allocation on read or overwrite.
func TestWarmArrayOpsAllocateNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	a := newArray(t)
	offsets := []int64{0, chunkSize, scratchRegionOffset, weightRegionOffset}
	for _, off := range offsets {
		a.WriteBytes(off, 20*units.MB)
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, off := range offsets {
			a.ReadBytes(off, 20*units.MB)
			a.WriteBytes(off, 20*units.MB)
		}
	}); got != 0 {
		t.Errorf("warm read + overwrite allocates %v times, want 0", got)
	}
}

// TestExtentTableBounded pins the table's growth: placing a new object adds
// one extent, overwriting it adds none and rewrites its extent in place, and
// an overwrite inside it splices in a head and a tail once, then no more.
func TestExtentTableBounded(t *testing.T) {
	a := newArray(t)
	for obj := int64(0); obj < 40; obj++ {
		before := a.Extents()
		a.WriteBytes(obj*chunkSize, 20*units.MB)
		if grew := a.Extents() - before; grew != 1 {
			t.Fatalf("object %d added %d extents, want 1", obj, grew)
		}
	}
	before := a.Extents()
	if allocs := testing.AllocsPerRun(1000, func() { a.WriteBytes(3*chunkSize, 20*units.MB) }); allocs != 0 && !raceDetector {
		t.Errorf("an overwrite allocates %v times, want 0", allocs)
	}
	if a.Extents() != before {
		t.Errorf("1,000 overwrites took the table from %d to %d extents", before, a.Extents())
	}
	for i := 0; i < 3; i++ {
		a.WriteBytes(5*chunkSize+int64(units.MB), 2*units.MB)
		if want := before + 2; a.Extents() != want {
			t.Fatalf("overwrite %d inside an object: %d extents, want %d", i, a.Extents(), want)
		}
	}
	if a.MappedPages() != 40*a.pagesFor(20*units.MB) {
		t.Errorf("mapped pages = %d after overwrites, want %d", a.MappedPages(), 40*a.pagesFor(20*units.MB))
	}
}

var benchLat time.Duration

// BenchmarkArrayRead is the host cost of reading a placed 3 MB object.
func BenchmarkArrayRead(b *testing.B) {
	a, err := NewArray(SmartSSDClass())
	if err != nil {
		b.Fatal(err)
	}
	a.WriteBytes(chunkSize, 3*units.MB)
	b.ReportAllocs()
	for b.Loop() {
		benchLat, _ = a.ReadBytes(chunkSize, 3*units.MB)
	}
}

// BenchmarkArrayReadFragmented is the host cost of reading a placed 3 MB
// object whose every other page was since overwritten on its own, so no
// two neighbouring pages hold consecutive allocations.
func BenchmarkArrayReadFragmented(b *testing.B) {
	a, err := NewArray(SmartSSDClass())
	if err != nil {
		b.Fatal(err)
	}
	a.WriteBytes(chunkSize, 3*units.MB)
	start, pages := chunkSize/int64(a.geo.PageSize), a.pagesFor(3*units.MB)
	for p := int64(0); p < pages; p += 2 {
		a.Write(start+p, 1)
	}
	b.ReportAllocs()
	for b.Loop() {
		benchLat, _ = a.ReadBytes(chunkSize, 3*units.MB)
	}
}

// BenchmarkArrayReadSmall is the host cost of reading a placed 200 KB
// object.
func BenchmarkArrayReadSmall(b *testing.B) {
	a, err := NewArray(SmartSSDClass())
	if err != nil {
		b.Fatal(err)
	}
	a.WriteBytes(chunkSize, 200*units.KB)
	b.ReportAllocs()
	for b.Loop() {
		benchLat, _ = a.ReadBytes(chunkSize, 200*units.KB)
	}
}

// BenchmarkArrayOverwrite is the host cost of overwriting a placed 600 KB
// object in place.
func BenchmarkArrayOverwrite(b *testing.B) {
	a, err := NewArray(SmartSSDClass())
	if err != nil {
		b.Fatal(err)
	}
	a.WriteBytes(chunkSize, 600*units.KB)
	b.ReportAllocs()
	for b.Loop() {
		benchLat, _ = a.WriteBytes(chunkSize, 600*units.KB)
	}
}
