// Package dse implements the paper's design-space exploration (Section 4.2):
// enumerating more than 650 DSA configurations (PE array dimensions from
// 4x4 to 1024x1024, buffer capacities up to 32 MB, and three memory
// technologies), evaluating each on the benchmark suite with the
// cycle-level simulator, and computing the power-performance and
// area-performance Pareto frontiers with the cubic fits of Figures 7 and 8.
package dse

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dscs/internal/compiler"
	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/metrics"
	"dscs/internal/model"
	"dscs/internal/power"
	"dscs/internal/units"
)

// Point is one evaluated design.
type Point struct {
	Config dsa.Config

	// Throughput is the average frames/requests per second across the
	// suite at batch 1 (the paper's performance metric).
	Throughput float64
	// DynPower is the average dynamic power while running, on the DSE's
	// 45 nm baseline node (Figure 7's y-axis).
	DynPower units.Power
	// Area is the 45 nm die area (Figure 8's y-axis).
	Area units.Area
	// Feasible marks configs within the drive power budget after 14 nm
	// scaling.
	Feasible bool
}

// Label renders the paper's design-point naming (e.g. "Dim128-4MB").
func (p Point) Label() string {
	return fmt.Sprintf("Dim%d-%v-%v", p.Config.Rows, p.Config.TotalBuf(), p.Config.DRAM)
}

// Space describes the search space.
type Space struct {
	// Dims are the square PE-array dimensions.
	Dims []int
	// BufferSteps are the per-dimension buffer capacities to try.
	BufferSteps []units.Bytes
	// Memories are the DRAM technologies.
	Memories []power.DRAMKind
	// MaxBuffer caps total buffer capacity (32 MB in the paper).
	MaxBuffer units.Bytes
	// Budget is the drive's power envelope for feasibility (25 W).
	Budget units.Power
}

// PaperSpace returns the search space of Section 4.2: array dims 4..1024 in
// powers of two, buffers proportional to the array capped at 32 MB, and
// DDR4/DDR5/HBM2 — more than 650 configurations.
func PaperSpace() Space {
	var bufs []units.Bytes
	for b := 128 * units.KiB; b <= 32*units.MiB; b *= 2 {
		// Power-of-two steps plus quarter-points between them.
		bufs = append(bufs, b, b+b/4, b+b/2, b+3*b/4)
	}
	return Space{
		Dims:        []int{4, 8, 16, 32, 64, 128, 256, 512, 1024},
		BufferSteps: bufs,
		Memories:    []power.DRAMKind{power.DDR4, power.DDR5, power.HBM2},
		MaxBuffer:   32 * units.MiB,
		Budget:      25,
	}
}

// Enumerate lists every configuration in the space.
func (s Space) Enumerate() []dsa.Config {
	var out []dsa.Config
	for _, dim := range s.Dims {
		for _, buf := range s.BufferSteps {
			if buf > s.MaxBuffer {
				continue
			}
			// Buffers must at least hold a double-buffered weight tile.
			if int64(buf)/2 < 2*int64(dim)*int64(dim) {
				continue
			}
			for _, mem := range s.Memories {
				cfg := dsa.Config{
					Name: "dse", Rows: dim, Cols: dim, VPULanes: dim,
					Freq: units.GHz, DRAM: mem, DoubleBuffered: true,
				}.WithBuffers(buf)
				out = append(out, cfg)
			}
		}
	}
	return out
}

// SuiteModels returns the evaluation models used to score design points.
// The DSE scores at batch 1, the serverless operating point.
func SuiteModels() []*model.Graph {
	return []*model.Graph{
		model.LogisticRegressionCredit(4096),
		model.ResNet50(),
		model.SSDMobileNetPPE(),
		model.BERTBaseChatbot(),
		model.InceptionV3Clinical(),
		model.ResNet18Moderation(),
		model.ViTRemoteSensing(),
	}
}

// Evaluate scores one configuration across the models: throughput is the
// harmonic composition (requests per second of the average latency), power
// is energy over busy time at 45 nm.
func Evaluate(cfg dsa.Config, models []*model.Graph, node power.TechNode, budget units.Power) (Point, error) {
	return evaluate(new(isa.Program), cfg, models, node, budget)
}

// evaluate is Evaluate compiling every model into prog, whose storage the
// next call reuses: Explore's workers each keep one program for the whole
// sweep instead of allocating one per (configuration, model).
func evaluate(prog *isa.Program, cfg dsa.Config, models []*model.Graph, node power.TechNode, budget units.Power) (Point, error) {
	if len(models) == 0 {
		return Point{}, fmt.Errorf("dse: no models to evaluate %v on", cfg)
	}
	sim, err := dsa.New(cfg)
	if err != nil {
		return Point{}, err
	}
	var totalLatency float64
	var totalEnergy units.Energy
	for _, g := range models {
		if err := compiler.CompileInto(prog, g, 1, cfg, compiler.Options{}); err != nil {
			return Point{}, err
		}
		st, err := sim.Run(prog)
		if err != nil {
			return Point{}, err
		}
		lat := st.Latency(cfg.Freq)
		totalLatency += lat.Seconds()
		e, _ := sim.Energy(st, node)
		totalEnergy += e
	}
	avgLatency := totalLatency / float64(len(models))
	p := Point{
		Config:     cfg,
		Throughput: 1 / avgLatency,
		DynPower:   units.Power(float64(totalEnergy) / totalLatency),
		Area:       power.DieArea(node, cfg.PEs(), cfg.TotalBuf()),
	}
	peak14 := power.PeakPower(power.Node14nm, cfg.PEs(), cfg.TotalBuf(), cfg.Freq, cfg.DRAM)
	p.Feasible = peak14+9 <= budget // flash subsystem share per ssd.SmartSSDClass
	return p, nil
}

// Explore evaluates the whole space in parallel and returns the points.
func Explore(s Space, node power.TechNode) ([]Point, error) {
	configs := s.Enumerate()
	models := SuiteModels()
	points := make([]Point, len(configs))
	errs := make([]error, len(configs))

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prog isa.Program
			for i := range work {
				points[i], errs[i] = evaluate(&prog, configs[i], models, node, s.Budget)
			}
		}()
	}
	for i := range configs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// ParetoPower returns the power-performance frontier: points where no other
// point has both higher throughput and lower power.
func ParetoPower(points []Point) []Point {
	return pareto(points, func(p Point) (x, y float64) {
		return p.Throughput, float64(p.DynPower)
	})
}

// ParetoArea returns the area-performance frontier.
func ParetoArea(points []Point) []Point {
	return pareto(points, func(p Point) (x, y float64) {
		return p.Throughput, float64(p.Area)
	})
}

// pareto extracts the maximal-x / minimal-y frontier, sorted by x.
func pareto(points []Point, axes func(Point) (float64, float64)) []Point {
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
	// Return in ascending throughput order like the figures.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FitCubic fits the frontier's y = f(throughput) cubic, as annotated in
// Figures 7 and 8.
func FitCubic(frontier []Point, axes func(Point) (float64, float64)) ([]float64, error) {
	if len(frontier) < 4 {
		return nil, fmt.Errorf("dse: frontier too small for a cubic fit (%d points)", len(frontier))
	}
	xs := make([]float64, len(frontier))
	ys := make([]float64, len(frontier))
	for i, p := range frontier {
		xs[i], ys[i] = axes(p)
	}
	return metrics.PolyFit(xs, ys, 3)
}

// PowerAxes are the Figure 7 axes.
func PowerAxes(p Point) (float64, float64) { return p.Throughput, float64(p.DynPower) }

// AreaAxes are the Figure 8 axes.
func AreaAxes(p Point) (float64, float64) { return p.Throughput, float64(p.Area) }

// Optimal returns the paper's selection rule (Section 4.2): the highest-
// throughput design that is feasible within the power budget AND lies on
// both the power-performance and area-performance Pareto frontiers. The
// paper's answer is the 128x128 array with 4 MB of buffers on DDR5.
func Optimal(points []Point) (Point, bool) {
	onPower := map[string]bool{}
	for _, p := range ParetoPower(points) {
		onPower[p.Label()] = true
	}
	onArea := map[string]bool{}
	for _, p := range ParetoArea(points) {
		onArea[p.Label()] = true
	}
	var best Point
	found := false
	for _, p := range points {
		if !p.Feasible || !onPower[p.Label()] || !onArea[p.Label()] {
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
	// Degenerate spaces (tests with few points) fall back to the feasible
	// throughput maximum.
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
