package dse

import (
	"math"
	"testing"

	"dscs/internal/dsa"
	"dscs/internal/model"
	"dscs/internal/power"
	"dscs/internal/units"
)

func TestPaperSpaceSize(t *testing.T) {
	// The paper examines more than 650 accelerator configurations.
	configs := PaperSpace().Enumerate()
	if len(configs) < 650 {
		t.Fatalf("search space has %d configs, paper requires >650", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %v invalid: %v", c, err)
		}
		if c.TotalBuf() > 32*units.MiB {
			t.Fatalf("config %v exceeds the 32MB buffer cap", c)
		}
		key := c.String()
		if seen[key] {
			t.Fatalf("duplicate config %s", key)
		}
		seen[key] = true
	}
}

func TestEvaluateProducesSanePoint(t *testing.T) {
	p, err := Evaluate(dsa.PaperOptimal(), SuiteModels(), power.Node45nm, 25)
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 || p.DynPower <= 0 || p.Area <= 0 {
		t.Fatalf("degenerate point: %+v", p)
	}
	// The selected design is feasible at 14 nm.
	if !p.Feasible {
		t.Error("the paper's chosen design must be feasible")
	}
	// Hundreds to thousands of requests/s on the suite average (Figure 7's
	// x-axis reaches ~2500 fps).
	if p.Throughput < 100 || p.Throughput > 10000 {
		t.Errorf("throughput = %.0f, want 100-10000", p.Throughput)
	}
}

func TestParetoProperties(t *testing.T) {
	space := Space{
		Dims:        []int{8, 32, 128},
		BufferSteps: []units.Bytes{512 * units.KiB, 4 * units.MiB},
		Memories:    []power.DRAMKind{power.DDR4, power.DDR5},
		MaxBuffer:   32 * units.MiB,
		Budget:      25,
	}
	points, err := Explore(space, power.Node45nm)
	if err != nil {
		t.Fatal(err)
	}
	frontier := ParetoPower(points)
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// Frontier is sorted by throughput and strictly improving in power.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].Throughput <= frontier[i-1].Throughput {
			t.Fatal("frontier not ascending in throughput")
		}
		if frontier[i].DynPower <= frontier[i-1].DynPower {
			t.Fatal("frontier should trade power for throughput")
		}
	}
	// No point dominates a frontier point.
	for _, f := range frontier {
		for _, p := range points {
			if p.Throughput > f.Throughput && p.DynPower < f.DynPower {
				t.Fatalf("%s dominates frontier point %s", p.Label(), f.Label())
			}
		}
	}
	area := ParetoArea(points)
	for i := 1; i < len(area); i++ {
		if area[i].Area <= area[i-1].Area {
			t.Fatal("area frontier should trade area for throughput")
		}
	}
}

func TestBigArraysInfeasible(t *testing.T) {
	cfg := dsa.Config{
		Name: "big", Rows: 1024, Cols: 1024, VPULanes: 1024,
		Freq: units.GHz, DRAM: power.DDR5, DoubleBuffered: true,
	}.WithBuffers(32 * units.MiB)
	p, err := Evaluate(cfg, SuiteModels(), power.Node45nm, 25)
	if err != nil {
		t.Fatal(err)
	}
	if p.Feasible {
		t.Error("a 1024x1024 array cannot fit the 25W drive budget")
	}
}

func TestFitCubicOnFrontier(t *testing.T) {
	space := Space{
		Dims:        []int{4, 8, 16, 32, 64, 128},
		BufferSteps: []units.Bytes{256 * units.KiB, 1 * units.MiB, 4 * units.MiB},
		Memories:    []power.DRAMKind{power.DDR4, power.DDR5},
		MaxBuffer:   32 * units.MiB,
		Budget:      25,
	}
	points, err := Explore(space, power.Node45nm)
	if err != nil {
		t.Fatal(err)
	}
	frontier := ParetoPower(points)
	if len(frontier) < 4 {
		t.Skipf("frontier too small for fit: %d points", len(frontier))
	}
	coeffs, err := FitCubic(frontier, PowerAxes)
	if err != nil {
		t.Fatal(err)
	}
	if len(coeffs) != 4 {
		t.Fatalf("cubic fit has %d coefficients", len(coeffs))
	}
}

func TestOptimal(t *testing.T) {
	points := []Point{
		{Config: dsa.Config{Rows: 64, Cols: 64}, Throughput: 500, Area: 50, Feasible: true},
		{Config: dsa.Config{Rows: 128, Cols: 128}, Throughput: 900, Area: 100, Feasible: true},
		{Config: dsa.Config{Rows: 1024, Cols: 1024}, Throughput: 700, Area: 5000, Feasible: false},
	}
	best, ok := Optimal(points)
	if !ok || best.Config.Rows != 128 {
		t.Fatalf("optimal = %+v, want the feasible 128x128", best)
	}
	if _, ok := Optimal(nil); ok {
		t.Error("no points should yield no optimum")
	}
}

// TestEvaluateRejectsNoModels pins the empty-suite edge: with no models
// the average latency is 0/0, which used to come back as a NaN point
// marked feasible with a nil error.
func TestEvaluateRejectsNoModels(t *testing.T) {
	for _, models := range [][]*model.Graph{nil, {}} {
		p, err := Evaluate(dsa.PaperOptimal(), models, power.Node45nm, 25)
		if err == nil {
			t.Fatalf("Evaluate with %d models = %+v, nil error; want an error", len(models), p)
		}
	}
}

// TestExploreMatchesEvaluate pins the sweep's buffer reuse: every point
// Explore computes with a worker's reused program must be bit-identical to
// the public Evaluate's, which compiles into a fresh one.
func TestExploreMatchesEvaluate(t *testing.T) {
	space := Space{
		Dims:        []int{8, 64, 256},
		BufferSteps: []units.Bytes{512 * units.KiB, 4 * units.MiB, 16 * units.MiB},
		Memories:    []power.DRAMKind{power.DDR4, power.HBM2},
		MaxBuffer:   32 * units.MiB,
		Budget:      25,
	}
	points, err := Explore(space, power.Node45nm)
	if err != nil {
		t.Fatal(err)
	}
	configs := space.Enumerate()
	if len(points) != len(configs) || len(points) < 10 {
		t.Fatalf("Explore returned %d points for %d configs", len(points), len(configs))
	}
	models := SuiteModels()
	for i, cfg := range configs {
		want, err := Evaluate(cfg, models, power.Node45nm, space.Budget)
		if err != nil {
			t.Fatal(err)
		}
		got := points[i]
		if got.Config != want.Config || got.Feasible != want.Feasible ||
			math.Float64bits(got.Throughput) != math.Float64bits(want.Throughput) ||
			math.Float64bits(float64(got.DynPower)) != math.Float64bits(float64(want.DynPower)) ||
			math.Float64bits(float64(got.Area)) != math.Float64bits(float64(want.Area)) {
			t.Fatalf("%s: Explore = %+v, Evaluate = %+v", cfg, got, want)
		}
	}
}

// BenchmarkExplore times one full Section 4.2 sweep and reports its
// allocations: the sweep compiles seven models on every configuration, so
// a program allocated per compilation shows here first.
func BenchmarkExplore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Explore(PaperSpace(), power.Node45nm); err != nil {
			b.Fatal(err)
		}
	}
}
