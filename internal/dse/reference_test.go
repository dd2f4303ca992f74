package dse

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"dscs/internal/dsa"
	"dscs/internal/power"
	"dscs/internal/units"
)

// paperPoints is one exploration of PaperSpace, shared by the tests below.
var paperPoints = sync.OnceValues(func() ([]Point, error) {
	return Explore(PaperSpace(), power.Node45nm)
})

func explorePaper(t testing.TB) []Point {
	t.Helper()
	points, err := paperPoints()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// refBytes is units.Bytes.String as fmt rendered it.
func refBytes(b units.Bytes) string {
	switch {
	case b >= units.TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(units.TB))
	case b >= units.GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(units.GB))
	case b >= units.MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(units.MB))
	case b >= units.KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(units.KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// refLabel is dsa.Config.String and Point.Label as fmt rendered them.
func refLabel(c dsa.Config) string {
	return fmt.Sprintf("Dim%d-%s-%v", c.Rows, refBytes(c.TotalBuf()), c.DRAM)
}

// refPareto is pareto as it sorted a copy of the points.
func refPareto(points []Point, axes func(Point) (float64, float64)) []Point {
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		xi, yi := axes(sorted[i])
		xj, yj := axes(sorted[j])
		if xi != xj {
			return xi > xj
		}
		return yi < yj
	})
	var out []Point
	best := -1.0
	for _, p := range sorted {
		_, y := axes(p)
		if best < 0 || y < best {
			out = append(out, p)
			best = y
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// refOptimal is Optimal as it keyed frontier membership by formatted label.
func refOptimal(points []Point) (Point, bool) {
	onPower := map[string]bool{}
	for _, p := range refPareto(points, PowerAxes) {
		onPower[refLabel(p.Config)] = true
	}
	onArea := map[string]bool{}
	for _, p := range refPareto(points, AreaAxes) {
		onArea[refLabel(p.Config)] = true
	}
	var best Point
	found := false
	for _, p := range points {
		if !p.Feasible || !onPower[refLabel(p.Config)] || !onArea[refLabel(p.Config)] {
			continue
		}
		if !found || p.Throughput > best.Throughput ||
			(p.Throughput == best.Throughput && p.Area < best.Area) {
			best = p
			found = true
		}
	}
	if found {
		return best, true
	}
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		if !found || p.Throughput > best.Throughput {
			best = p
			found = true
		}
	}
	return best, found
}

// TestLabelMatchesFormatReference pins the strconv labels to the fmt
// renderings they replace, byte for byte, on every PaperSpace design and on
// buffer totals at each unit's edges.
func TestLabelMatchesFormatReference(t *testing.T) {
	configs := PaperSpace().Enumerate()
	// Every PaperSpace design has its own label, so the label-keyed
	// reference below and the Config-keyed Optimal agree on identity.
	labels := make(map[string]bool, len(configs))
	for _, c := range configs {
		labels[refLabel(c)] = true
	}
	if len(labels) != len(configs) {
		t.Errorf("%d distinct labels for %d designs", len(labels), len(configs))
	}
	base := dsa.PaperOptimal()
	for _, total := range []units.Bytes{0, 1023, units.KB, 1500 * units.MB, 2 * units.TB} {
		configs = append(configs, base.WithBuffers(total))
	}
	configs = append(configs, dsa.Config{Rows: -3, DRAM: power.DRAMKind(99), InputBuf: -7})
	for _, c := range configs {
		want := refLabel(c)
		if got := c.String(); got != want {
			t.Errorf("Config.String() = %q, want %q", got, want)
		}
		if got := (Point{Config: c}).Label(); got != want {
			t.Errorf("Point.Label() = %q, want %q", got, want)
		}
	}
}

// samePoints reports whether two point lists are equal element for element.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tiedPoints draws n points from a few designs with coarse, often tied
// throughputs, powers and areas: duplicates and ties are where a frontier
// or an identity rule could part from the reference.
func tiedPoints(rng *rand.Rand, n int) []Point {
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{
			Config:     dsa.Config{Rows: 4 << rng.IntN(4), DRAM: power.DRAMKind(rng.IntN(3))},
			Throughput: float64(rng.IntN(8)),
			DynPower:   units.Power(rng.IntN(6)),
			Area:       units.Area(rng.IntN(6)),
			Feasible:   rng.IntN(3) > 0,
		}
	}
	return points
}

// TestParetoMatchesSortReference pins the index-sorted frontiers to the
// copy-sorted reference, including which of two tied points survives.
func TestParetoMatchesSortReference(t *testing.T) {
	check := func(name string, points []Point) {
		t.Helper()
		if got, want := ParetoPower(points), refPareto(points, PowerAxes); !samePoints(got, want) {
			t.Errorf("%s: ParetoPower = %v, want %v", name, got, want)
		}
		if got, want := ParetoArea(points), refPareto(points, AreaAxes); !samePoints(got, want) {
			t.Errorf("%s: ParetoArea = %v, want %v", name, got, want)
		}
	}
	check("paper space", explorePaper(t))
	check("empty", nil)
	rng := rand.New(rand.NewPCG(54, 1))
	for i := range 300 {
		check(fmt.Sprintf("tied space %d", i), tiedPoints(rng, 1+rng.IntN(60)))
	}
}

// TestOptimalMatchesLabelReference pins the Config-keyed Optimal to the
// label-keyed reference: on the paper space, on a degenerate space whose
// feasible designs lie on no frontier (the fallback), and on spaces full
// of duplicate designs and tied values.
func TestOptimalMatchesLabelReference(t *testing.T) {
	check := func(name string, points []Point) {
		t.Helper()
		got, gotOK := Optimal(points)
		want, wantOK := refOptimal(points)
		if got != want || gotOK != wantOK {
			t.Errorf("%s: Optimal = %+v, %v; want %+v, %v", name, got, gotOK, want, wantOK)
		}
	}
	paper := explorePaper(t)
	check("paper space", paper)
	if best, _ := Optimal(paper); best.Config.Rows != 128 || best.Config.DRAM != power.DDR5 {
		t.Errorf("paper optimum = %s, want a 128x128 DDR5 design", best.Label())
	}
	degenerate := []Point{
		{Config: dsa.Config{Rows: 1024}, Throughput: 900, DynPower: 10, Area: 100},
		{Config: dsa.Config{Rows: 64}, Throughput: 500, DynPower: 20, Area: 200, Feasible: true},
		{Config: dsa.Config{Rows: 32}, Throughput: 400, DynPower: 30, Area: 300, Feasible: true},
	}
	check("degenerate", degenerate)
	if best, ok := Optimal(degenerate); !ok || best.Config.Rows != 64 {
		t.Errorf("degenerate optimum = %+v, %v; want the feasible 64x64 by the fallback", best, ok)
	}
	check("empty", nil)
	rng := rand.New(rand.NewPCG(54, 2))
	for i := range 300 {
		check(fmt.Sprintf("tied space %d", i), tiedPoints(rng, 1+rng.IntN(60)))
	}
}

// TestOptimalAllocations bounds the selection on the paper space: two index
// orders, one per frontier, where keying by label built a string per point.
func TestOptimalAllocations(t *testing.T) {
	points := explorePaper(t)
	if n := testing.AllocsPerRun(20, func() { Optimal(points) }); n > 8 {
		t.Errorf("Optimal on the paper space allocates %.0f times, want <= 8", n)
	}
}

// BenchmarkOptimal times the paper's selection rule on the paper space.
func BenchmarkOptimal(b *testing.B) {
	points := explorePaper(b)
	b.ReportAllocs()
	for b.Loop() {
		Optimal(points)
	}
}
